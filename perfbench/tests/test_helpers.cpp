// Tests for the perfbench helpers: the percentile rule, self time,
// coverage, open-loop schedule accounting and ratios with their base.
// Checks stay active in every build type (no assert).
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>

#include "helpers.hpp"

namespace {

int failures = 0;

void expect(bool cond, const char* what, int line) {
  if (!cond) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b, double tol = 1e-9) { return std::fabs(a - b) <= tol; }

std::vector<double> iota(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

void test_percentile_rule() {
  using perfbench::highest_tail;
  // 1..1000: p99 is the 990th value and exactly 10 samples lie beyond it.
  perfbench::Tail t = highest_tail(iota(1000));
  EXPECT(t.pct == 99.0);
  EXPECT(near(t.value, 990.0));
  EXPECT(t.n == 1000);
  EXPECT(perfbench::samples_beyond(1000, 99.0) == 10);
  // 999 samples leave only 9 beyond p99, so the tail falls back to p95.
  t = highest_tail(iota(999));
  EXPECT(t.pct == 95.0);
  // 10000 samples qualify p99.9 (10 beyond).
  EXPECT(highest_tail(iota(10000)).pct == 99.9);
  // 11 samples: p25 (rank 3) leaves 8 beyond, so no percentile
  // qualifies; 14 samples: p25 (rank 4) leaves exactly 10.
  EXPECT(highest_tail(iota(11)).pct == 0.0);
  EXPECT(highest_tail(iota(14)).pct == 25.0);
  EXPECT(highest_tail({}).pct == 0.0);
  // Unsorted input is fine.
  EXPECT(near(perfbench::percentile({5, 1, 4, 2, 3}, 50.0), 3.0));
  EXPECT(near(perfbench::median({4, 1, 3, 2}), 2.5));
  EXPECT(near(perfbench::median({7}), 7.0));
}

void test_ratio_with_base() {
  const perfbench::Ratio r{3.0, 4.0};
  EXPECT(near(r.value(), 0.75));
  EXPECT(r.num == 3.0 && r.den == 4.0);
  EXPECT((perfbench::Ratio{5.0, 0.0}.value() == 0.0));  // no base, no ratio
}

void test_log2_histogram_percentile() {
  std::array<std::uint64_t, 32> b{};
  b[3] = 100;  // 100 samples in [4, 8)
  EXPECT(near(perfbench::log2_histogram_percentile(b, 50.0), 6.0));
  EXPECT(near(perfbench::log2_histogram_percentile(b, 100.0), 8.0));
  b[0] = 100;  // 100 zeros below them
  EXPECT(near(perfbench::log2_histogram_percentile(b, 25.0), 0.0));
  EXPECT(near(perfbench::log2_histogram_percentile(b, 75.0), 6.0));
  std::array<std::uint64_t, 32> empty{};
  EXPECT(perfbench::log2_histogram_percentile(empty, 99.0) == 0.0);
}

perfbench::Span span(std::int64_t id, std::int64_t parent, std::uint64_t a, std::uint64_t b,
                     std::uint64_t request = 1) {
  return perfbench::Span{"s", a, b, id, parent, request};
}

void test_self_time() {
  // Parent [0, 100); children [10, 30) and [20, 50) overlap (two
  // threads), and [90, 120) sticks out past the parent's end.
  const std::vector<perfbench::Span> spans = {
      span(1, -1, 0, 100), span(2, 1, 10, 30), span(3, 1, 20, 50), span(4, 1, 90, 120),
      span(5, 2, 10, 15),  // grandchild: counts against 2, not against 1
  };
  const std::vector<double> self = perfbench::self_times(spans);
  // Coverage of 1: union [10, 50) + [90, 100) = 50 ns -> self 50 ns.
  EXPECT(near(self[0], 50e-9, 1e-15));
  EXPECT(near(self[1], 15e-9, 1e-15));  // 20 - 5
  EXPECT(near(self[2], 30e-9, 1e-15));
  EXPECT(near(self[3], 30e-9, 1e-15));
  EXPECT(near(self[4], 5e-9, 1e-15));
  // Children covering more than the parent never make self time negative.
  const std::vector<double> full =
      perfbench::self_times({span(1, -1, 10, 20), span(2, 1, 0, 30)});
  EXPECT(full[0] == 0.0);
}

void test_coverage() {
  // Operation 1 measured over [0, 100); its calls cover [0, 40) and
  // [50, 95); a span of another parent does not count.
  const std::vector<perfbench::Span> spans = {
      span(1, -1, 0, 100), span(2, 1, 0, 40), span(3, 1, 50, 95), span(4, 2, 40, 50)};
  EXPECT(near(perfbench::child_coverage(spans, 1, 0, 100), 0.85));
  EXPECT(perfbench::covered_ns({{5, 10}, {0, 3}, {8, 12}}, 0, 100) == 10);
}

void test_recorder_parents() {
  perfbench::SpanRecorder rec;
  rec.set_enabled(true);
  rec.set_request(7);
  std::int64_t op_id = 0, call_id = 0;
  {
    perfbench::ScopedSpan op(rec, "op");
    op_id = op.id();
    perfbench::ScopedSpan call(rec, "call", /*root=*/true);
    call_id = call.id();
    // Work on another thread hangs from the open root call.
    std::thread([&] { perfbench::ScopedSpan w(rec, "worker"); }).join();
  }
  std::thread([&] { perfbench::ScopedSpan w(rec, "idle"); }).join();  // no root open
  rec.set_enabled(false);
  const std::vector<perfbench::Span> spans = rec.spans();
  EXPECT(spans.size() == 4);
  for (const perfbench::Span& s : spans) {
    const std::string name = s.name;
    EXPECT(s.request == 7);
    if (name == "op") EXPECT(s.parent == -1);
    if (name == "call") EXPECT(s.parent == op_id);
    if (name == "worker") EXPECT(s.parent == call_id);
    if (name == "idle") EXPECT(s.parent == -1);
    EXPECT(s.end_ns >= s.start_ns);
  }
  perfbench::ScopedSpan disabled(rec, "disabled");
  EXPECT(rec.spans().size() == 4);
}

void test_schedule_lag() {
  // Four requests due every 10 ms. The third waited 25 ms for a free
  // connection, and so went out after the last one fell due (30 ms).
  const std::vector<double> due = {0.00, 0.01, 0.02, 0.03};
  const std::vector<double> sent = {0.00, 0.01, 0.045, 0.031};
  const std::vector<double> done = {0.005, 0.02, 0.05, 0.04};
  const perfbench::ScheduleStats st = perfbench::schedule_stats(due, sent, done);
  EXPECT(near(st.latency_s[2], 0.03));  // from due, not from sent
  EXPECT(near(st.lag_s[2], 0.025));
  EXPECT(near(st.lag_s[0], 0.0));
  EXPECT(st.backlog_end == 2);  // requests 2 and 3 left after 30 ms
  EXPECT(near(st.backlog_growth_per_s, 2 / 0.03));
  // Early sends (clock jitter) never count as negative lag.
  EXPECT(perfbench::schedule_stats({0.1}, {0.09}, {0.2}).lag_s[0] == 0.0);
}

}  // namespace

int main() {
  test_percentile_rule();
  test_ratio_with_base();
  test_log2_histogram_percentile();
  test_self_time();
  test_coverage();
  test_recorder_parents();
  test_schedule_lag();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench helpers: all checks passed\n");
  return 0;
}
