#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <unordered_map>

#include "bench.hpp"

namespace perfbench {

namespace obs = gompresso::obs;

void Result::add_timing(const std::string& name, const std::vector<double>& v,
                        const std::string& unit) {
  const Tail t = highest_tail(v);
  std::string note = "median of n=" + std::to_string(v.size());
  if (t.pct > 0.0) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "; p%g=%.6g", t.pct, t.value);
    note += buf;
  }
  add(name, median(v), unit, note);
}

void Result::add_ratio(const std::string& name, const Ratio& r,
                       const std::string& num_name, const std::string& den_name) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s=%.6g / %s=%.6g", num_name.c_str(), r.num,
                den_name.c_str(), r.den);
  add(name, r.value(), "ratio", buf);
}

namespace {
double rusage_cpu_s(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double status_kb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) return std::stod(line.substr(prefix.size()));
  }
  return 0.0;
}
}  // namespace

double host_steal_s() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0, softirq = 0,
         steal = 0;
  in >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >> steal;
  return in ? steal / static_cast<double>(sysconf(_SC_CLK_TCK)) : 0.0;
}

double process_cpu_s() { return rusage_cpu_s(RUSAGE_SELF); }
double thread_cpu_s() { return rusage_cpu_s(RUSAGE_THREAD); }

PeakMemory::PeakMemory() {
  reset_peak();
  base_heap_ = heap_live_bytes();
  base_rss_kb_ = status_kb("VmRSS");
}

void PeakMemory::reset_peak() {
  reset_heap_peak();
  // "5" resets the VmHWM high-water mark to the current RSS (Linux).
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakMemory::heap_peak_mb() const {
  return static_cast<double>(std::max<std::int64_t>(0, heap_peak_bytes() - base_heap_)) /
         (1024.0 * 1024.0);
}

double PeakMemory::rss_peak_mb() const {
  return std::max(0.0, status_kb("VmHWM") - base_rss_kb_) / 1024.0;
}

std::uint64_t counter_delta(const obs::MetricsSnapshot& a, const obs::MetricsSnapshot& b,
                            const std::string& name) {
  const std::uint64_t before = a.counter(name);
  const std::uint64_t after = b.counter(name);
  return after >= before ? after - before : 0;
}

obs::HistogramData histogram_delta(const obs::MetricsSnapshot& a,
                                   const obs::MetricsSnapshot& b,
                                   const std::string& name) {
  obs::HistogramData d;
  const obs::MetricValue* va = a.find(name);
  const obs::MetricValue* vb = b.find(name);
  if (vb == nullptr) return d;
  for (std::size_t i = 0; i < d.buckets.size(); ++i) {
    const std::uint64_t before = va != nullptr ? va->hist.buckets[i] : 0;
    d.buckets[i] = vb->hist.buckets[i] - std::min(before, vb->hist.buckets[i]);
  }
  const std::uint64_t before_sum = va != nullptr ? va->hist.sum : 0;
  d.sum = vb->hist.sum - std::min(before_sum, vb->hist.sum);
  return d;
}

SpanRecorder& recorder() {
  static SpanRecorder rec;
  return rec;
}

OpBreakdown breakdown(const std::vector<Span>& spans, std::int64_t op,
                      std::uint64_t request, std::uint64_t lo_ns, std::uint64_t hi_ns) {
  OpBreakdown out;
  std::unordered_map<std::int64_t, std::int64_t> parent;
  for (const Span& s : spans) parent[s.id] = s.parent;
  const auto under_op = [&](std::int64_t id) {
    for (int depth = 0; id >= 0 && depth < 64; ++depth) {
      if (id == op) return true;
      const auto it = parent.find(id);
      if (it == parent.end()) return false;
      id = it->second;
    }
    return false;
  };
  const std::vector<double> self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.id == op) continue;
    if (under_op(s.id)) {
      out.self_s[s.name] += self[i];
      out.total_s[s.name] += s.seconds();
    } else if (s.request == request) {
      out.background_s += s.seconds();
      out.total_s[s.name] += s.seconds();
    }
  }
  out.coverage = child_coverage(spans, op, lo_ns, hi_ns);
  return out;
}

std::map<std::string, double> median_of(
    const std::vector<std::map<std::string, double>>& ops) {
  std::map<std::string, std::vector<double>> cols;
  for (const auto& m : ops) {
    for (const auto& [k, v] : m) cols[k].push_back(v);
  }
  std::map<std::string, double> out;
  for (auto& [k, v] : cols) {
    // An operation that never touched a layer contributes a 0.
    v.resize(ops.size(), 0.0);
    out[k] = median(v);
  }
  return out;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  for (const Span& s : spans) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}\n";
  }
}

}  // namespace perfbench
