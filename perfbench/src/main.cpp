// perfbench: one workload per run, printed as a human-readable report
// followed by one JSON line with the benchmark's contract metrics.
//
//   perfbench --workload gmpz_cat|gzip_cat|serve_zipf_64k|compress
//             --seed N --seconds S --trace 0|1 --work-dir DIR
//             [--gz FILE.gz] [--git-sha SHA] [--gzip-version V]
//   perfbench --gen-corpus OUT --seed N
//
// perfbench/run.py builds this binary, prepares the gzip file and calls
// it; see perfbench/README.md.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct ContractMetric {
  const char* name;
  const char* unit;
};

// The names and units BENCHMARK.json lists; run.py checks the two agree.
// Every workload prints every contract metric, so the contract holds
// only metrics that are defined on all of them: a layer idle on a
// workload does 0 s/op of work there. Percentiles of server-side and
// load-generator latency exist only on serve_zipf_64k (a percentile of
// no samples is undefined, not 0), so they are in the report only.
constexpr ContractMetric kEndToEnd[] = {
    {"setup_s", "s"},           {"throughput_mbps", "MB/s"}, {"cpu_s_per_gb", "s/GB"},
    {"mem_peak_mb", "MB"},      {"compression_ratio", "x"},  {"op_p50_ms", "ms"},
};

constexpr ContractMetric kPerLayer[] = {
    {"core.decode_s", "s/op"},
    {"core.entropy_s", "s/op"},
    {"core.resolve_s", "s/op"},
    {"core.blocks", "count/op"},
    {"core.resolve_deferrals_per_block", "count/block"},
    {"ingest.index_build_s", "s/op"},
    {"ingest.index_build_1t_s", "s/op"},
    {"ingest.bits_scanned_per_byte", "bit/B"},
    {"ingest.fallback_ratio", "ratio"},
    {"ingest.decode_s", "s/op"},
    {"ingest.inflate_amplification", "B/B"},
    {"serve.read_s", "s/op"},
    {"serve.read_amplification", "B/B"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.prefetch_decodes", "count/op"},
    {"serve.decode_waits", "count/op"},
    {"serve.evictions", "count/op"},
    {"serve.pool_peak_bytes", "B"},
    {"serve.retries", "count/op"},
    {"serve.decode_failures", "count/op"},
    {"net.shed_503", "count"},
    {"net.errors", "count"},
    {"source.bytes_read_per_byte", "B/B"},
    {"source.read_s", "s/op"},
    {"lz77.parse_s", "s/op"},
    {"core.emit_s", "s/op"},
    {"lz77.match_byte_frac", "ratio"},
    {"pool.tasks_per_block", "count/block"},
    {"trace.overhead_frac", "ratio"},
    {"trace.coverage", "ratio"},
};

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

struct Args {
  Config cfg;
  std::string gen_corpus;
  std::string git_sha = "unknown";
  std::string gzip_version = "unknown";
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  a.cfg.threads = std::max(1u, std::thread::hardware_concurrency());
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    if (k == "--workload") a.cfg.workload = v;
    else if (k == "--seed") a.cfg.seed = std::stoull(v);
    else if (k == "--seconds") a.cfg.seconds = std::stod(v);
    else if (k == "--trace") a.cfg.trace = v == "1";
    else if (k == "--work-dir") a.cfg.work_dir = v;
    else if (k == "--gz") a.cfg.gz_path = v;
    else if (k == "--git-sha") a.git_sha = v;
    else if (k == "--gzip-version") a.gzip_version = v;
    else if (k == "--gen-corpus") a.gen_corpus = v;
    else usage(("unknown argument " + k).c_str());
  }
  return a;
}

int run(const Args& a) {
  const Config& cfg = a.cfg;
  Result r;
  const double steal0 = host_steal_s();
  const auto wall0 = std::chrono::steady_clock::now();
  if (cfg.workload == "gmpz_cat") r = run_gmpz_cat(cfg);
  else if (cfg.workload == "gzip_cat") r = run_gzip_cat(cfg);
  else if (cfg.workload == "serve_zipf_64k") r = run_serve(cfg);
  else if (cfg.workload == "compress") r = run_compress(cfg);
  else usage(("unknown workload " + cfg.workload).c_str());
  const double steal_s = host_steal_s() - steal0;
  const double run_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count();

  std::printf("perfbench %s seed=%llu trace=%d seconds=%g\n", cfg.workload.c_str(),
              static_cast<unsigned long long>(cfg.seed), cfg.trace ? 1 : 0, cfg.seconds);
  std::printf("env: nproc=%u threads=%zu build_type=%s git_sha=%s gzip_version=%s "
              "corpus=%s seed=%llu bytes=%zu\n",
              std::thread::hardware_concurrency(), cfg.threads, PERFBENCH_BUILD_TYPE,
              a.git_sha.c_str(), a.gzip_version.c_str(), kCorpusGenerator,
              static_cast<unsigned long long>(cfg.seed), kCorpusBytes);
  std::printf("env: host_steal_s=%.3f over a %.1f s run (%.2f%% of %u CPUs)\n", steal_s,
              run_s, 100.0 * steal_s / (run_s * std::thread::hardware_concurrency()),
              std::thread::hardware_concurrency());
  for (const Result::Line& l : r.report) {
    std::printf("  %-34s %14.6g %-8s %s\n", l.name.c_str(), l.value, l.unit.c_str(),
                l.note.c_str());
  }
  const double failed_frac =
      r.attempted == 0 ? 1.0 : static_cast<double>(r.failed) / static_cast<double>(r.attempted);
  std::printf("  %-34s %14.6g %-8s failed=%llu / attempted=%llu (mismatches=%llu)\n",
              "failed_frac", failed_frac, "ratio", static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.mismatches));
  // A traced run whose spans miss part of the operations' wall has
  // per-layer figures that leave work out; it prints them and then fails.
  const auto cov = r.layer.find("trace.coverage");
  const double coverage = cov == r.layer.end() ? 0.0 : cov->second;
  const bool covered = !cfg.trace || r.layer.empty() || coverage >= kCoverageTolerance;
  if (cfg.trace) {
    std::printf("per-layer (traced operations; values per operation, see README.md):\n");
    for (const ContractMetric& m : kPerLayer) {
      const auto it = r.layer.find(m.name);
      std::printf("  %-34s %14.6g %-12s%s\n", m.name, it == r.layer.end() ? 0.0 : it->second,
                  m.unit, it == r.layer.end() ? " (layer idle on this workload)" : "");
    }
    for (const auto& [k, v] : r.layer) {
      bool contract = false;
      for (const ContractMetric& m : kPerLayer) contract = contract || k == m.name;
      if (!contract) std::printf("  %-34s %14.6g\n", k.c_str(), v);
    }
    std::printf("  trace coverage %s: the calls of each operation cover %.4f of its wall "
                "(tolerance >= %.2f)\n",
                covered ? "ok" : "BELOW TOLERANCE", coverage, kCoverageTolerance);
  }
  for (const std::string& n : r.notes) std::printf("  note: %s\n", n.c_str());

  // The contract line.
  std::string metrics;
  bool complete = true;
  if (!cfg.trace) {
    for (const ContractMetric& m : kEndToEnd) {
      const auto it = r.e2e.find(m.name);
      if (it == r.e2e.end()) {
        complete = false;
        continue;
      }
      if (!metrics.empty()) metrics += ", ";
      metrics += json_str(m.name) + ": {\"value\": " + num(it->second) +
                 ", \"unit\": " + json_str(m.unit) + "}";
    }
  } else {
    complete = !r.layer.empty();
    for (const ContractMetric& m : kPerLayer) {
      const auto it = r.layer.find(m.name);
      if (!metrics.empty()) metrics += ", ";
      metrics += json_str(m.name) + ": {\"value\": " +
                 num(it == r.layer.end() ? 0.0 : it->second) + ", \"unit\": " +
                 json_str(m.unit) + "}";
    }
  }
  const bool correct = r.mismatches == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
  if (!correct) {
    std::fprintf(stderr, "perfbench: %llu outputs differ from the plaintext\n",
                 static_cast<unsigned long long>(r.mismatches));
    return 1;
  }
  if (!covered) {
    std::fprintf(stderr, "perfbench: trace coverage %.4f is below the tolerance %.2f\n",
                 coverage, kCoverageTolerance);
    return 1;
  }
  if (!complete || r.attempted == 0) {
    std::fprintf(stderr, "perfbench: no operation completed; metrics incomplete\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args a = perfbench::parse(argc, argv);
  try {
    if (!a.gen_corpus.empty()) {
      const gompresso::Bytes corpus = perfbench::make_corpus(a.cfg.seed);
      std::ofstream out(a.gen_corpus, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(corpus.data()),
                static_cast<std::streamsize>(corpus.size()));
      return out.good() ? 0 : 1;
    }
    if (a.cfg.work_dir.empty()) perfbench::usage("--work-dir is required");
    return perfbench::run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
