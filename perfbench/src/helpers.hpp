// perfbench helpers: the statistics, span recorder and load-generator
// accounting the workloads share. Header-only and free of library
// dependencies so tests/test_helpers.cpp can check them in isolation.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------ percentiles

/// Nearest-rank percentile of `v` (p in (0, 100]); v must be non-empty.
/// The rank is rounded up after a tiny slack, so 99.9% of 10000 is rank
/// 9990 despite floating-point error.
inline double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()) - 1e-9);
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

inline double median(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const std::size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
inline std::size_t samples_beyond(std::size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return n - std::min(n, static_cast<std::size_t>(rank));
}

/// The tail a timing is reported with: the highest of a fixed ladder of
/// percentiles that still has at least ten samples beyond it, so a tail
/// figure is never a single outlier. `pct` is 0 when n < 11 (no
/// percentile above the minimum qualifies; no tail is reported).
struct Tail {
  double pct = 0.0;
  double value = 0.0;
  std::size_t n = 0;
};

inline Tail highest_tail(const std::vector<double>& v) {
  static constexpr std::array<double, 7> kLadder = {99.9, 99.0, 95.0, 90.0,
                                                    75.0, 50.0, 25.0};
  Tail t;
  t.n = v.size();
  for (double p : kLadder) {
    if (!v.empty() && samples_beyond(v.size(), p) >= 10) {
      t.pct = p;
      t.value = percentile(v, p);
      return t;
    }
  }
  return t;
}

/// A ratio printed together with its base (numerator and denominator),
/// so a reader can tell 0.5 of 2 from 0.5 of two million.
struct Ratio {
  double num = 0.0;
  double den = 0.0;
  double value() const { return den == 0.0 ? 0.0 : num / den; }
};

/// Linear interpolation of the p-th percentile inside a log2-bucketed
/// histogram (bucket 0 holds the value 0; bucket i >= 1 holds
/// [2^(i-1), 2^i)). Counts come from the library's metrics registry.
template <std::size_t N>
double log2_histogram_percentile(const std::array<std::uint64_t, N>& buckets,
                                 double p) {
  std::uint64_t total = 0;
  for (std::uint64_t b : buckets) total += b;
  if (total == 0) return 0.0;
  const double target = static_cast<double>(total) * p / 100.0;
  double cumulative = 0.0;
  for (std::size_t i = 0; i < N; ++i) {
    if (buckets[i] == 0) continue;
    const double next = cumulative + static_cast<double>(buckets[i]);
    if (next >= target) {
      if (i == 0) return 0.0;
      const double lo = std::ldexp(1.0, static_cast<int>(i) - 1);
      const double hi = std::ldexp(1.0, static_cast<int>(i));
      const double frac = (target - cumulative) / static_cast<double>(buckets[i]);
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
    cumulative = next;
  }
  return 0.0;
}

// ------------------------------------------------------------------ spans

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One recorded interval. `parent` is the span that caused it (-1 for a
/// top-level span); `request` groups the spans of one operation (a cat
/// pass, a compress call, an HTTP request).
struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t id = 0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// Keeps spans in memory; `spans()` hands them out when the run ends.
///
/// Parent rule: a span's parent is the innermost open span on its own
/// thread. A span opened on a thread with no open span (a pool worker
/// decoding a block for a read) hangs from the recorder's current root
/// — the innermost open `root` span of the driving thread, i.e. the
/// blocking call that waits for the work — or is top-level (-1) when no
/// root is open. Request ids: a thread-local id when the thread set one
/// (each load-generator connection), else the recorder-wide id (the
/// single driving thread of a cat pass or compress call); 0 means
/// "not tied to one operation" (server-side work under concurrent load).
class SpanRecorder {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  void set_request(std::uint64_t request) {
    request_.store(request, std::memory_order_relaxed);
  }
  static void set_thread_request(std::uint64_t request) { thread_request() = request; }

  std::int64_t root() const { return root_.load(std::memory_order_relaxed); }
  void set_root(std::int64_t id) { root_.store(id, std::memory_order_relaxed); }

  std::int64_t new_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  std::uint64_t current_request() const {
    const std::uint64_t t = thread_request();
    return t != 0 ? t : request_.load(std::memory_order_relaxed);
  }

  void add(const Span& span) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.clear();
  }

  static std::vector<std::int64_t>& thread_stack() {
    thread_local std::vector<std::int64_t> stack;
    return stack;
  }

 private:
  static std::uint64_t& thread_request() {
    thread_local std::uint64_t request = 0;
    return request;
  }

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> request_{0};
  std::atomic<std::int64_t> root_{-1};
  std::atomic<std::int64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span; records nothing when the recorder is off. A `root` span
/// additionally becomes the recorder's root while it is open (only the
/// single driving thread of an operation opens root spans).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name, bool root = false)
      : rec_(rec.enabled() ? &rec : nullptr), root_(root) {
    if (rec_ == nullptr) return;
    std::vector<std::int64_t>& stack = SpanRecorder::thread_stack();
    span_.name = name;
    span_.id = rec_->new_id();
    span_.parent = stack.empty() ? rec_->root() : stack.back();
    span_.request = rec_->current_request();
    stack.push_back(span_.id);
    if (root_) {
      saved_root_ = rec_->root();
      rec_->set_root(span_.id);
    }
    span_.start_ns = now_ns();
  }
  ~ScopedSpan() {
    if (rec_ == nullptr) return;
    span_.end_ns = now_ns();
    if (root_) rec_->set_root(saved_root_);
    SpanRecorder::thread_stack().pop_back();
    rec_->add(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t id() const { return span_.id; }

 private:
  SpanRecorder* rec_;
  bool root_;
  std::int64_t saved_root_ = -1;
  Span span_;
};

/// Length of the union of `intervals` after clipping each to [lo, hi].
inline std::uint64_t covered_ns(std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals,
                                std::uint64_t lo, std::uint64_t hi) {
  for (auto& iv : intervals) {
    iv.first = std::clamp(iv.first, lo, hi);
    iv.second = std::clamp(iv.second, lo, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t total = 0, cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (const auto& [a, b] : intervals) {
    if (b <= a) continue;
    if (!open || a > cur_hi) {
      if (open) total += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    } else {
      cur_hi = std::max(cur_hi, b);
    }
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

/// Self time of every span: its duration minus the part of it that its
/// child spans cover (children on other threads overlap each other, so
/// coverage is the union of their intervals, not their sum). Returned in
/// the order of `spans`, in seconds.
inline std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::int64_t> ids;
  ids.reserve(spans.size());
  for (const Span& s : spans) ids.push_back(s.id);
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return ids[a] < ids[b]; });
  const auto find = [&](std::int64_t id) -> std::size_t {
    const auto it = std::lower_bound(
        order.begin(), order.end(), id,
        [&](std::size_t i, std::int64_t v) { return ids[i] < v; });
    return it != order.end() && ids[*it] == id ? *it : spans.size();
  };
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const std::size_t p = find(s.parent);
    if (p < spans.size()) children[p].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint64_t dur = spans[i].end_ns - spans[i].start_ns;
    const std::uint64_t cov =
        covered_ns(std::move(children[i]), spans[i].start_ns, spans[i].end_ns);
    out[i] = static_cast<double>(dur - std::min(dur, cov)) * 1e-9;
  }
  return out;
}

/// Share of one operation's measured wall [lo, hi] that the direct
/// children of its span `op` cover: the calls into the library (open,
/// read, compress, ...) plus the harness's own steps. Anything the
/// benchmark forgot to trace shows up as missing coverage.
inline double child_coverage(const std::vector<Span>& spans, std::int64_t op,
                             std::uint64_t lo, std::uint64_t hi) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> calls;
  for (const Span& s : spans) {
    if (s.parent == op) calls.emplace_back(s.start_ns, s.end_ns);
  }
  if (hi <= lo) return 1.0;
  return static_cast<double>(covered_ns(std::move(calls), lo, hi)) /
         static_cast<double>(hi - lo);
}

// ------------------------------------------------------- open-loop load

/// Accounting for one rate of an open-loop schedule: request i was due
/// at due[i], went out at sent[i] and completed at done[i] (seconds on
/// one clock). Latency counts from the due time, so a stall charges the
/// wait it imposes on every request queued behind it.
struct ScheduleStats {
  std::vector<double> latency_s;  // done - due
  std::vector<double> lag_s;      // sent - due (how late the generator ran)
  /// Requests that went out after the last one fell due: the backlog
  /// left when the schedule ended. An open loop that keeps up leaves at
  /// most one in flight per connection.
  std::size_t backlog_end = 0;
  /// backlog_end spread over the schedule's length, in requests per
  /// second: how fast the queue grew.
  double backlog_growth_per_s = 0.0;
};

inline ScheduleStats schedule_stats(const std::vector<double>& due,
                                    const std::vector<double>& sent,
                                    const std::vector<double>& done) {
  ScheduleStats st;
  if (due.empty()) return st;
  const double last_due = *std::max_element(due.begin(), due.end());
  for (std::size_t i = 0; i < due.size(); ++i) {
    st.latency_s.push_back(done[i] - due[i]);
    st.lag_s.push_back(std::max(0.0, sent[i] - due[i]));
    if (sent[i] > last_due) ++st.backlog_end;
  }
  const double span = last_due - *std::min_element(due.begin(), due.end());
  st.backlog_growth_per_s = span > 0.0 ? static_cast<double>(st.backlog_end) / span : 0.0;
  return st;
}

}  // namespace perfbench
