// compress: compress() of the corpus with default options at nproc
// threads; the round trip is checked outside the timed window.
#include <cstring>

#include "bench.hpp"

namespace perfbench {
namespace {

namespace obs = gompresso::obs;
using Clock = std::chrono::steady_clock;

// setup_s of this workload: one compress() call on a small input, i.e.
// the fixed cost of a call (pool, scratch, tables, container header) plus
// the parse and emit of 64 KiB. A smaller probe times little but thread
// start-up, whose cost moves with host load by more than the bound.
constexpr std::size_t kSetupProbeBytes = 64 * 1024;
constexpr int kSetupProbesPerPass = 3;

}  // namespace

Result run_compress(const Config& cfg) {
  Result r;
  const Bytes corpus = make_corpus(cfg.seed);
  const ByteSpan input(corpus.data(), corpus.size());
  gompresso::CompressOptions copt;  // defaults: Bit codec, DE, 256 KiB blocks
  copt.num_threads = cfg.threads;
  gompresso::DecompressOptions dopt;
  dopt.num_threads = cfg.threads;
  SpanRecorder& rec = recorder();

  std::vector<double> setup, wall, cpu, mem, rss, traced_wall;
  std::vector<std::map<std::string, double>> layers;
  std::uint64_t archive_bytes = 0;

  // One pass: a timed compress(), then an untimed round trip.
  const auto pass = [&](bool traced, std::uint64_t request) {
    ++r.attempted;
    try {
      for (int i = 0; i < kSetupProbesPerPass && !traced; ++i) {
        const auto t0 = Clock::now();
        const Bytes probe = gompresso::compress(input.first(kSetupProbeBytes), copt);
        setup.push_back(seconds_between(t0, Clock::now()));
        if (gompresso::decompress_bytes(ByteSpan(probe.data(), probe.size())) !=
            Bytes(corpus.begin(), corpus.begin() + kSetupProbeBytes)) {
          throw gompresso::CorruptionError("perfbench: setup probe round trip differs");
        }
      }
      const obs::MetricsSnapshot before = obs::metrics_snapshot();
      gompresso::CompressStats stats;
      Bytes archive;
      rec.set_request(request);
      rec.set_enabled(traced);
      std::int64_t op_id = -1;
      PeakMemory peak;
      const double c0 = process_cpu_s();
      const std::uint64_t t0_ns = now_ns();
      const auto t0 = Clock::now();
      {
        ScopedSpan op(rec, "pass");
        op_id = op.id();
        ScopedSpan call(rec, "compress", /*root=*/true);
        archive = gompresso::compress(input, copt, &stats);
      }
      const auto t1 = Clock::now();
      const std::uint64_t t1_ns = now_ns();
      const double cpu_s = process_cpu_s() - c0;
      const double mem_mb = peak.heap_peak_mb();
      const double rss_mb = peak.rss_peak_mb();
      rec.set_enabled(false);
      const obs::MetricsSnapshot after = obs::metrics_snapshot();
      archive_bytes = archive.size();

      const gompresso::DecompressResult back =
          gompresso::decompress(ByteSpan(archive.data(), archive.size()), dopt);
      if (back.data.size() != corpus.size() ||
          std::memcmp(back.data.data(), corpus.data(), corpus.size()) != 0) {
        ++r.failed;
        ++r.mismatches;
        return;
      }
      if (!traced) {
        wall.push_back(seconds_between(t0, t1));
        cpu.push_back(cpu_s);
        mem.push_back(mem_mb);
        rss.push_back(rss_mb);
        return;
      }
      traced_wall.push_back(seconds_between(t0, t1));
      const std::vector<Span> spans = rec.spans();
      rec.clear();
      const OpBreakdown bd = breakdown(spans, op_id, request, t0_ns, t1_ns);
      const auto cnt = [&](const char* name) {
        return static_cast<double>(counter_delta(before, after, name));
      };
      const double blocks = cnt("compress.blocks");
      const double parsed =
          static_cast<double>(stats.parse.match_bytes + stats.parse.literal_bytes);
      std::map<std::string, double> layer;
      layer["lz77.parse_s"] =
          static_cast<double>(histogram_delta(before, after, "compress.parse_us").sum) * 1e-6;
      layer["core.emit_s"] =
          static_cast<double>(histogram_delta(before, after, "compress.emit_us").sum) * 1e-6;
      layer["lz77.match_byte_frac"] =
          parsed == 0.0 ? 0.0 : static_cast<double>(stats.parse.match_bytes) / parsed;
      layer["pool.tasks_per_block"] =
          blocks == 0.0 ? 0.0
                        : (cnt("pool.tasks_submitted") + cnt("pool.jobs_dispatched")) / blocks;
      layer["trace.coverage"] = bd.coverage;
      layer["base.compress_blocks"] = blocks;
      layer["base.match_bytes"] = static_cast<double>(stats.parse.match_bytes);
      layer["base.parsed_bytes"] = parsed;
      for (const auto& [name, v] : bd.self_s) layer["self." + name + "_s"] = v;
      layers.push_back(std::move(layer));
    } catch (const gompresso::Error& e) {
      rec.set_enabled(false);
      rec.clear();
      ++r.failed;
      r.notes.push_back(std::string("typed error: ") + e.what());
    }
  };

  pass(false, 0);  // warm-up: allocator arenas, lazy tables; verified, not kept
  wall.clear();
  cpu.clear();
  mem.clear();
  rss.clear();
  setup.clear();
  const auto start = Clock::now();
  std::uint64_t request = 1;
  while (seconds_between(start, Clock::now()) < cfg.seconds) {
    pass(false, 0);
    if (cfg.trace) pass(true, request++);
  }
  if (wall.empty()) return r;

  const double mb = static_cast<double>(corpus.size()) / 1e6;
  const double gb = static_cast<double>(corpus.size()) / 1e9;
  r.e2e["setup_s"] = median(setup);
  r.e2e["throughput_mbps"] = mb / median(wall);
  r.e2e["cpu_s_per_gb"] = median(cpu) / gb;
  r.e2e["mem_peak_mb"] = median(mem);
  r.e2e["compression_ratio"] =
      static_cast<double>(corpus.size()) / static_cast<double>(archive_bytes);
  r.e2e["op_p50_ms"] = median(wall) * 1e3;

  r.add_timing("setup_s", setup, "s");
  r.add_timing("compress_wall_s", wall, "s");
  r.add("throughput_mbps", r.e2e["throughput_mbps"], "MB/s",
        "plaintext MB (1e6 B) / median compress() wall");
  r.add("cpu_s_per_gb", r.e2e["cpu_s_per_gb"], "s/GB", "process user+sys per plaintext GB");
  r.add_timing("mem_peak_mb", mem, "MB");
  r.add_timing("rss_peak_mb", rss, "MB");
  r.add_ratio("compression_ratio",
              {static_cast<double>(corpus.size()), static_cast<double>(archive_bytes)},
              "plaintext_bytes", "archive_bytes");
  if (cfg.trace && !layers.empty()) {
    r.layer = median_of(layers);
    r.layer["trace.overhead_frac"] = median(traced_wall) / median(wall) - 1.0;
    r.add_timing("traced_compress_wall_s", traced_wall, "s");
  }
  return r;
}

}  // namespace perfbench
