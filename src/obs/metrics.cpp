#include "obs/metrics.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "obs/trace.hpp"
#include "util/common.hpp"

namespace gompresso::obs {
namespace {

std::atomic<std::uint64_t> g_next_registry_id{1};

const char* kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "counter";
}

}  // namespace

thread_local std::uint64_t Registry::tls_registry_id_;
thread_local std::atomic<std::uint64_t>* Registry::tls_slots_;
thread_local bool Registry::tls_exited_;

struct Registry::Anchor {
  util::Mutex mutex;
  Registry* registry GUARDED_BY(mutex) = nullptr;
};

struct Registry::ThreadShards {
  struct Held {
    std::uint64_t registry_id;
    std::weak_ptr<Anchor> anchor;
    Shard* shard;
  };
  std::vector<Held> held;

  ThreadShards() = default;
  ThreadShards(const ThreadShards&) = delete;
  ThreadShards& operator=(const ThreadShards&) = delete;
  ~ThreadShards() {
    tls_exited_ = true;
    tls_registry_id_ = 0;  // the cached shard is no longer this thread's
    for (const Held& h : held) {
      const std::shared_ptr<Anchor> anchor = h.anchor.lock();
      if (anchor == nullptr) continue;
      util::MutexLock lock(anchor->mutex);
      if (anchor->registry != nullptr) anchor->registry->release_shard(h.shard);
    }
  }
};

Registry::Registry()
    : id_(g_next_registry_id.fetch_add(1)), anchor_(std::make_shared<Anchor>()) {
  util::MutexLock lock(anchor_->mutex);
  anchor_->registry = this;
}

Registry::~Registry() {
  util::MutexLock lock(anchor_->mutex);
  anchor_->registry = nullptr;
}

Registry::Shard* Registry::claim_shard() {
  util::MutexLock lock(mutex_);
  if (!free_shards_.empty()) {
    Shard* shard = free_shards_.back();
    free_shards_.pop_back();
    return shard;
  }
  shards_.push_back(std::make_unique<Shard>());
  return shards_.back().get();
}

void Registry::release_shard(Shard* shard) {
  util::MutexLock lock(mutex_);
  free_shards_.push_back(shard);
}

std::atomic<std::uint64_t>* Registry::slots_slow() {
  Shard* shard = nullptr;
  if (tls_exited_) {
    // This thread's hook already ran: a shard claimed now stays claimed.
    shard = claim_shard();
  } else {
    thread_local ThreadShards mine;
    std::erase_if(mine.held, [](const ThreadShards::Held& h) {
      return h.anchor.expired();
    });
    for (const ThreadShards::Held& h : mine.held) {
      if (h.registry_id == id_) shard = h.shard;
    }
    if (shard == nullptr) {
      shard = claim_shard();
      mine.held.push_back(ThreadShards::Held{id_, anchor_, shard});
    }
  }
  // Cache for this thread. A stale entry for a destroyed registry can
  // never match: ids are process-unique and never reused. Publish the
  // slots pointer before the id: slots_fast() keys on the id.
  tls_slots_ = shard->slots.data();
  tls_registry_id_ = id_;
  return tls_slots_;
}

std::uint32_t Registry::register_metric(std::string_view name,
                                        std::string_view unit, MetricKind kind,
                                        std::uint32_t width) {
  util::MutexLock lock(mutex_);
  for (const Descriptor& d : descriptors_) {
    if (d.name == name) {
      check(d.kind == kind, "obs: metric re-registered with different kind");
      return d.slot;
    }
  }
  std::uint32_t slot = 0;
  if (kind == MetricKind::kGauge) {
    check(next_gauge_ < kMaxGauges, "obs: gauge budget exhausted");
    slot = next_gauge_++;
  } else {
    check(next_slot_ + width <= kMaxSlots, "obs: metric slot budget exhausted");
    slot = next_slot_;
    next_slot_ += width;
  }
  descriptors_.push_back(Descriptor{std::string(name), std::string(unit), kind,
                                    slot, width});
  return slot;
}

Counter Registry::counter(std::string_view name, std::string_view unit) {
  return Counter(this, register_metric(name, unit, MetricKind::kCounter, 1));
}

Gauge Registry::gauge(std::string_view name, std::string_view unit) {
  return Gauge(this, register_metric(name, unit, MetricKind::kGauge, 0));
}

Histogram Registry::histogram(std::string_view name, std::string_view unit) {
  return Histogram(
      this, register_metric(name, unit, MetricKind::kHistogram,
                            static_cast<std::uint32_t>(kHistogramBuckets) + 1));
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  util::MutexLock lock(mutex_);
  snap.metrics.reserve(descriptors_.size());
  for (const Descriptor& d : descriptors_) {
    MetricValue mv;
    mv.name = d.name;
    mv.unit = d.unit;
    mv.kind = d.kind;
    switch (d.kind) {
      case MetricKind::kCounter: {
        std::uint64_t total = 0;
        for (const auto& sh : shards_)
          total += sh->slots[d.slot].load(std::memory_order_relaxed);
        mv.value = total;
        break;
      }
      case MetricKind::kGauge:
        mv.gauge = gauges_[d.slot].load(std::memory_order_relaxed);
        break;
      case MetricKind::kHistogram: {
        for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
          std::uint64_t total = 0;
          for (const auto& sh : shards_)
            total += sh->slots[d.slot + b].load(std::memory_order_relaxed);
          mv.hist.buckets[b] = total;
        }
        std::uint64_t sum = 0;
        for (const auto& sh : shards_)
          sum += sh->slots[d.slot + kHistogramBuckets].load(
              std::memory_order_relaxed);
        mv.hist.sum = sum;
        break;
      }
    }
    snap.metrics.push_back(std::move(mv));
  }
  return snap;
}

void Registry::reset() {
  util::MutexLock lock(mutex_);
  // shards_ holds the free-listed shards too, so they are zeroed as well.
  for (const auto& sh : shards_)
    for (auto& slot : sh->slots) slot.store(0, std::memory_order_relaxed);
  for (auto& g : gauges_) g.store(0, std::memory_order_relaxed);
}

std::size_t Registry::num_shards() const {
  util::MutexLock lock(mutex_);
  return shards_.size();
}

std::uint64_t HistogramData::percentile(double p) const {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  const double target = static_cast<double>(n) * p / 100.0;
  std::uint64_t cumulative = 0;
  std::size_t last = 0;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    if (buckets[i] == 0) continue;
    cumulative += buckets[i];
    last = i;
    if (static_cast<double>(cumulative) >= target)
      return histogram_bucket_upper(i);
  }
  return histogram_bucket_upper(last);
}

const MetricValue* MetricsSnapshot::find(std::string_view name) const {
  for (const MetricValue& m : metrics)
    if (m.name == name) return &m;
  return nullptr;
}

std::uint64_t MetricsSnapshot::counter(std::string_view name) const {
  const MetricValue* m = find(name);
  if (m == nullptr) return 0;
  if (m->kind == MetricKind::kGauge)
    return m->gauge > 0 ? static_cast<std::uint64_t>(m->gauge) : 0;
  return m->value;
}

namespace {

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out += buf;
}

void append_i64(std::string& out, std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRId64, v);
  out += buf;
}

}  // namespace

std::string MetricsSnapshot::to_json() const {
  std::string out = "[";
  bool first = true;
  for (const MetricValue& m : metrics) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    append_json_string(out, m.name);
    out += ",\"kind\":\"";
    out += kind_name(m.kind);
    out += "\",\"unit\":";
    append_json_string(out, m.unit);
    switch (m.kind) {
      case MetricKind::kCounter:
        out += ",\"value\":";
        append_u64(out, m.value);
        break;
      case MetricKind::kGauge:
        out += ",\"value\":";
        append_i64(out, m.gauge);
        break;
      case MetricKind::kHistogram: {
        out += ",\"count\":";
        append_u64(out, m.hist.count());
        out += ",\"sum\":";
        append_u64(out, m.hist.sum);
        out += ",\"p50\":";
        append_u64(out, m.hist.percentile(50.0));
        out += ",\"p99\":";
        append_u64(out, m.hist.percentile(99.0));
        out += ",\"buckets\":[";
        for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
          if (b != 0) out += ',';
          append_u64(out, m.hist.buckets[b]);
        }
        out += ']';
        break;
      }
    }
    out += '}';
  }
  out += ']';
  return out;
}

Registry& registry() {
  static Registry instance;
  return instance;
}

MetricsSnapshot metrics_snapshot() { return registry().snapshot(); }

void ensure_initialized() {
  registry();
  Tracer::instance();
}

}  // namespace gompresso::obs
