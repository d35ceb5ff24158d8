// Process-wide metrics registry: counters, gauges, and fixed-bucket
// histograms with lock-free per-thread shards merged on snapshot.
//
// Design mirrors the arena philosophy of the decode path: registration
// (cold, mutex-guarded) hands out light value-type handles; the hot
// path — Counter::add(), Histogram::record() — is an enabled-flag load,
// a thread-local shard lookup, and one relaxed fetch_add into a
// pre-sized atomic slot array. No mutex, no allocation, no false
// sharing between workers in steady state. snapshot() merges every
// shard under the registration mutex and returns a plain-value
// MetricsSnapshot that can be serialized to JSON.
//
// Shards are owned by the Registry and are never freed before it, so
// counts survive thread exit. A thread that exits hands its shard, counts
// intact, to the registry's free list, and the next thread to register
// takes it from there (totals stay exact: counters are sums), so a
// long-lived process that keeps starting threads holds as many shards as
// it ever ran threads at once, not as many as it ever started. The
// thread-local shard cache is keyed by a process-unique registry id, so a
// Registry dying (tests construct short-lived ones) can never alias a
// stale cache entry onto a new Registry at a reused address.
//
// Handles must not outlive their Registry. For the process-wide
// obs::registry() singleton that is automatic; code that may run during
// static destruction (e.g. a static ThreadPool draining its queue)
// calls obs::ensure_initialized() from its constructor so the registry
// is constructed first and therefore destroyed last.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/thread_annotations.hpp"

namespace gompresso::obs {

class Registry;

/// Power-of-two latency/size buckets: bucket 0 holds the value 0,
/// bucket i (1 <= i < kHistogramBuckets-1) holds [2^(i-1), 2^i), and
/// the last bucket is the overflow tail [2^(kHistogramBuckets-2), inf).
inline constexpr std::size_t kHistogramBuckets = 32;

inline std::size_t histogram_bucket(std::uint64_t v) {
  const std::size_t w = static_cast<std::size_t>(std::bit_width(v));
  return w < kHistogramBuckets ? w : kHistogramBuckets - 1;
}

/// Inclusive lower bound of bucket `i`.
inline std::uint64_t histogram_bucket_lower(std::size_t i) {
  return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
}

/// Inclusive upper bound of bucket `i` (the overflow tail reports its
/// lower bound: there is no meaningful ceiling to quote).
inline std::uint64_t histogram_bucket_upper(std::size_t i) {
  if (i == 0) return 0;
  if (i >= kHistogramBuckets - 1) return histogram_bucket_lower(i);
  return (std::uint64_t{1} << i) - 1;
}

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Monotonic counter. add() is the single-relaxed-atomic-add hot path.
class Counter {
 public:
  Counter() = default;
  inline void add(std::uint64_t n) const;
  void inc() const { add(1); }

 private:
  friend class Registry;
  Counter(Registry* reg, std::uint32_t slot) : reg_(reg), slot_(slot) {}
  Registry* reg_ = nullptr;
  std::uint32_t slot_ = 0;
};

/// Up/down instantaneous value (queue depth, worker occupancy). Backed
/// by one shared atomic — not sharded, because a gauge's point-in-time
/// reading must not be split across shards. Update sites are block- or
/// task-granularity, so the shared cache line is acceptable.
class Gauge {
 public:
  Gauge() = default;
  inline void add(std::int64_t delta) const;
  inline void set(std::int64_t v) const;

 private:
  friend class Registry;
  Gauge(Registry* reg, std::uint32_t slot) : reg_(reg), slot_(slot) {}
  Registry* reg_ = nullptr;
  std::uint32_t slot_ = 0;
};

/// Fixed-bucket log2 histogram (latencies in µs, sizes in bytes).
/// record() is two relaxed adds: the bucket slot and the running sum.
class Histogram {
 public:
  Histogram() = default;
  inline void record(std::uint64_t v) const;

 private:
  friend class Registry;
  Histogram(Registry* reg, std::uint32_t slot) : reg_(reg), slot_(slot) {}
  Registry* reg_ = nullptr;
  std::uint32_t slot_ = 0;  // base of kHistogramBuckets bucket slots + 1 sum slot
};

struct HistogramData {
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  std::uint64_t sum = 0;

  std::uint64_t count() const {
    std::uint64_t n = 0;
    for (std::uint64_t b : buckets) n += b;
    return n;
  }
  double mean() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(n);
  }
  /// Upper-bound estimate of the p-th percentile (0 < p <= 100): the
  /// bucket ceiling of the first bucket whose cumulative count reaches
  /// p% of the total. 0 when empty.
  std::uint64_t percentile(double p) const;
};

struct MetricValue {
  std::string name;
  std::string unit;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t value = 0;  // counter total
  std::int64_t gauge = 0;   // gauge reading
  HistogramData hist;       // histogram contents
};

struct MetricsSnapshot {
  std::vector<MetricValue> metrics;

  const MetricValue* find(std::string_view name) const;
  /// Counter total (or gauge reading clamped at 0) by name; 0 if absent.
  std::uint64_t counter(std::string_view name) const;
  /// Serializes the whole snapshot as a JSON array of metric objects.
  std::string to_json() const;
};

class Registry {
 public:
  /// Slot budget per shard: every counter takes 1 slot, every histogram
  /// kHistogramBuckets+1. One shard is ~8 KiB of atomics.
  static constexpr std::size_t kMaxSlots = 1024;
  static constexpr std::size_t kMaxGauges = 64;

  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Registration is idempotent by name: re-registering returns a handle
  /// to the existing metric (the kind must match). Throws gompresso::
  /// Error when the slot budget is exhausted or a name is reused with a
  /// different kind.
  Counter counter(std::string_view name, std::string_view unit = "");
  Gauge gauge(std::string_view name, std::string_view unit = "");
  Histogram histogram(std::string_view name, std::string_view unit = "");

  /// Disabling turns every handle operation into a single relaxed load
  /// + branch (the bench's metrics-off lane). Enabled by default.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Merges all shards into plain values. Safe to call concurrently
  /// with hot-path updates (relaxed reads — each counter is internally
  /// consistent; cross-counter invariants settle once writers quiesce).
  MetricsSnapshot snapshot() const EXCLUDES(mutex_);

  /// Zeroes every shard slot and gauge. Test/bench seam; callers must
  /// quiesce writers for an exact zero.
  void reset() EXCLUDES(mutex_);

  /// Shards allocated so far, in use or on the free list.
  std::size_t num_shards() const EXCLUDES(mutex_);

  // -- hot-path plumbing (public for the inline handle methods) --------
  void counter_add(std::uint32_t slot, std::uint64_t n) {
    if (!enabled()) return;
    slots_fast()[slot].fetch_add(n, std::memory_order_relaxed);
  }
  void histogram_record(std::uint32_t slot, std::uint64_t v) {
    if (!enabled()) return;
    std::atomic<std::uint64_t>* s = slots_fast();
    s[slot + histogram_bucket(v)].fetch_add(1, std::memory_order_relaxed);
    s[slot + kHistogramBuckets].fetch_add(v, std::memory_order_relaxed);
  }
  void gauge_add(std::uint32_t slot, std::int64_t delta) {
    if (!enabled()) return;
    gauges_[slot].fetch_add(delta, std::memory_order_relaxed);
  }
  void gauge_set(std::uint32_t slot, std::int64_t v) {
    if (!enabled()) return;
    gauges_[slot].store(v, std::memory_order_relaxed);
  }

 private:
  struct Shard {
    std::array<std::atomic<std::uint64_t>, kMaxSlots> slots{};
  };
  struct Descriptor {
    std::string name;
    std::string unit;
    MetricKind kind;
    std::uint32_t slot;    // shard slot base (counters/histograms), or
                           // gauge index (gauges)
    std::uint32_t width;   // shard slots consumed
  };

  /// Thread-local shard cache, keyed by registry id. Two primitive
  /// zero-initialized thread_locals (not a struct with initializers):
  /// constant-initialized TLS needs no per-thread init wrapper, so the
  /// hit path is a plain TLS load + compare that folds into
  /// counter_add's single-add fast path under optimization (a wrapped
  /// dynamic-init TLS also trips UBSan's null-member check at -O1).
  static thread_local std::uint64_t tls_registry_id_;
  static thread_local std::atomic<std::uint64_t>* tls_slots_;
  /// Set once this thread's shards went back to their registries at
  /// thread exit; a later update takes a shard it never returns.
  static thread_local bool tls_exited_;

  /// What a thread-exit hook holds to reach its registry: the
  /// registry's destructor clears the pointer before its shards die.
  struct Anchor;
  /// The shards one thread holds, returned when the thread exits.
  struct ThreadShards;

  std::atomic<std::uint64_t>* slots_fast() {
    if (tls_registry_id_ == id_) return tls_slots_;
    return slots_slow();
  }
  // Finds or claims this thread's shard (cold; the only mutex on the path).
  std::atomic<std::uint64_t>* slots_slow() EXCLUDES(mutex_);
  // Takes a shard off the free list, or allocates one.
  Shard* claim_shard() EXCLUDES(mutex_);
  void release_shard(Shard* shard) EXCLUDES(mutex_);

  std::uint32_t register_metric(std::string_view name, std::string_view unit,
                                MetricKind kind, std::uint32_t width)
      EXCLUDES(mutex_);

  const std::uint64_t id_;
  std::atomic<bool> enabled_{true};
  mutable util::Mutex mutex_;  // registration, shard list, snapshot
  std::vector<Descriptor> descriptors_ GUARDED_BY(mutex_);
  std::uint32_t next_slot_ GUARDED_BY(mutex_) = 0;
  std::uint32_t next_gauge_ GUARDED_BY(mutex_) = 0;
  // The vector itself (growth, element pointers) is guarded; the atomic
  // slot arrays the elements own are updated lock-free through the TLS
  // cache and read with relaxed loads by snapshot().
  std::vector<std::unique_ptr<Shard>> shards_ GUARDED_BY(mutex_);
  // Shards of exited threads, still in shards_ (their counts still sum).
  std::vector<Shard*> free_shards_ GUARDED_BY(mutex_);
  std::array<std::atomic<std::int64_t>, kMaxGauges> gauges_{};
  const std::shared_ptr<Anchor> anchor_;
};

inline void Counter::add(std::uint64_t n) const {
  if (reg_ != nullptr) reg_->counter_add(slot_, n);
}
inline void Gauge::add(std::int64_t delta) const {
  if (reg_ != nullptr) reg_->gauge_add(slot_, delta);
}
inline void Gauge::set(std::int64_t v) const {
  if (reg_ != nullptr) reg_->gauge_set(slot_, v);
}
inline void Histogram::record(std::uint64_t v) const {
  if (reg_ != nullptr) reg_->histogram_record(slot_, v);
}

/// The process-wide registry every pipeline stage reports into.
Registry& registry();

/// Public API: one coherent snapshot of the process-wide registry.
MetricsSnapshot metrics_snapshot();

/// Forces construction of the process-wide registry (and tracer) so
/// they outlive the caller's static. See the header comment.
void ensure_initialized();

}  // namespace gompresso::obs
