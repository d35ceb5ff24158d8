// gmpz_cat and gzip_cat: open(path) plus one sequential full read at
// nproc session threads, the wall a `gomp cat` user waits for.
#include <cstring>
#include <fstream>

#include "bench.hpp"

namespace perfbench {
namespace {

namespace obs = gompresso::obs;
namespace serve = gompresso::serve;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kReadChunk = 1u << 20;

enum class Kind { kGmpz, kGzip };

struct Pass {
  bool ok = false;
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

class CatRunner {
 public:
  CatRunner(const Config& cfg, Kind kind, std::string path, const Bytes& corpus,
            std::uint64_t comp_bytes)
      : cfg_(cfg), kind_(kind), path_(std::move(path)), corpus_(corpus),
        comp_bytes_(comp_bytes), dst_(corpus.size()) {
    opts_.session.num_threads = cfg.threads;
  }

  Result run();

 private:
  Pass untraced_pass();
  Pass traced_pass(std::uint64_t request, std::map<std::string, double>& layer);
  double single_thread_build_s();
  bool verify(std::uint64_t delivered) const {
    return delivered == corpus_.size() &&
           std::memcmp(dst_.data(), corpus_.data(), corpus_.size()) == 0;
  }
  std::uint64_t read_all(serve::DecodeSession& s, bool traced);

  const Config& cfg_;
  Kind kind_;
  std::string path_;
  const Bytes& corpus_;
  std::uint64_t comp_bytes_;
  Bytes dst_;
  gompresso::OpenOptions opts_;
  std::vector<Span> all_spans_;
};

std::uint64_t CatRunner::read_all(serve::DecodeSession& s, bool traced) {
  std::uint64_t off = 0;
  while (off < dst_.size()) {
    const std::size_t want = std::min<std::size_t>(kReadChunk, dst_.size() - off);
    std::size_t n = 0;
    {
      ScopedSpan span(recorder(), "serve.read_at", /*root=*/traced);
      n = s.read_at(off, MutableByteSpan(dst_.data() + off, want));
    }
    if (n == 0) break;
    off += n;
  }
  return off;
}

Pass CatRunner::untraced_pass() {
  Pass p;
  std::memset(dst_.data(), 0, dst_.size());
  std::uint64_t delivered = 0;
  const double c0 = process_cpu_s();
  const auto t0 = Clock::now();
  std::unique_ptr<serve::DecodeSession> s = gompresso::open(path_, opts_);
  const auto t1 = Clock::now();
  delivered = read_all(*s, false);
  s.reset();
  const auto t2 = Clock::now();
  p.cpu_s = process_cpu_s() - c0;
  p.setup_s = seconds_between(t0, t1);
  p.wall_s = seconds_between(t0, t2);
  p.ok = verify(delivered);
  return p;
}

Pass CatRunner::traced_pass(std::uint64_t request, std::map<std::string, double>& layer) {
  Pass p;
  std::memset(dst_.data(), 0, dst_.size());
  SpanRecorder& rec = recorder();
  SourceCounters counters;
  std::shared_ptr<TimedBackend> timed;
  serve::SessionStats stats;
  std::uint64_t delivered = 0;
  std::int64_t op_id = -1;

  const obs::MetricsSnapshot before = obs::metrics_snapshot();
  rec.set_request(request);
  rec.set_enabled(true);
  const double c0 = process_cpu_s();
  const auto t0 = Clock::now();
  const std::uint64_t t0_ns = now_ns();
  std::uint64_t t1_ns = 0;
  {
    ScopedSpan op(rec, "pass");
    op_id = op.id();
    std::unique_ptr<serve::DecodeSession> s;
    {
      // The same composition gompresso::open(path) performs, spelled out
      // so each stage gets its own span and the seams their wrappers. On
      // gzip, open_backend() is the index build.
      ScopedSpan span(rec, "open", /*root=*/true);
      auto source = std::make_unique<CountingSource>(serve::open_file_source(path_),
                                                     counters);
      std::shared_ptr<serve::ContainerBackend> backend;
      {
        ScopedSpan b(rec, kind_ == Kind::kGzip ? "ingest.index_build" : "open_backend");
        backend = gompresso::open_backend(*source, opts_);
      }
      timed = std::make_shared<TimedBackend>(
          backend, kind_ == Kind::kGmpz ? "core.decode_block" : "ingest.decode_block");
      ScopedSpan init(rec, "session_init");
      s = std::make_unique<serve::DecodeSession>(std::move(source), timed, opts_.session);
    }
    t1_ns = now_ns();
    delivered = read_all(*s, true);
    stats = s->stats();
    {
      ScopedSpan span(rec, "close", /*root=*/true);
      s.reset();
    }
  }
  const std::uint64_t t2_ns = now_ns();
  const auto t2 = Clock::now();
  p.cpu_s = process_cpu_s() - c0;
  rec.set_enabled(false);
  const obs::MetricsSnapshot after = obs::metrics_snapshot();
  p.setup_s = static_cast<double>(t1_ns - t0_ns) * 1e-9;
  p.wall_s = seconds_between(t0, t2);
  p.ok = verify(delivered);

  const std::vector<Span> spans = rec.spans();
  rec.clear();
  const OpBreakdown bd = breakdown(spans, op_id, request, t0_ns, t2_ns);
  all_spans_.insert(all_spans_.end(), spans.begin(), spans.end());

  const auto total = [&](const char* name) {
    const auto it = bd.total_s.find(name);
    return it == bd.total_s.end() ? 0.0 : it->second;
  };
  const auto cnt = [&](const char* name) {
    return static_cast<double>(counter_delta(before, after, name));
  };
  const auto ratio = [](double a, double b) { return Ratio{a, b}.value(); };
  const double out_bytes = static_cast<double>(stats.bytes_delivered);
  const double decoded = static_cast<double>(timed->decoded_bytes());
  const double core_blocks = cnt("decode.blocks");

  layer["core.decode_s"] = total("core.decode_block");
  layer["core.entropy_s"] =
      static_cast<double>(histogram_delta(before, after, "decode.entropy_us").sum) * 1e-6;
  layer["core.resolve_s"] =
      static_cast<double>(histogram_delta(before, after, "decode.resolve_us").sum) * 1e-6;
  layer["core.blocks"] = core_blocks;
  layer["core.resolve_deferrals_per_block"] = ratio(cnt("resolve.deferrals"), core_blocks);
  if (kind_ == Kind::kGzip) {
    layer["ingest.index_build_s"] = total("ingest.index_build");
    layer["ingest.decode_s"] = total("ingest.decode_block");
    layer["ingest.bits_scanned_per_byte"] =
        ratio(cnt("ingest.boundary_bits_scanned"), static_cast<double>(comp_bytes_));
    layer["ingest.fallback_ratio"] =
        ratio(cnt("ingest.chunk_fallbacks"), cnt("ingest.chunks_indexed"));
    layer["ingest.inflate_amplification"] =
        ratio(cnt("ingest.bytes_indexed") + decoded, out_bytes);
  }
  layer["serve.read_s"] = total("serve.read_at");
  layer["serve.read_amplification"] = ratio(decoded, out_bytes);
  layer["serve.cache_hit_ratio"] =
      ratio(static_cast<double>(stats.cache_hits), cnt("serve.reads"));
  layer["serve.prefetch_decodes"] = static_cast<double>(stats.prefetch_decodes);
  layer["serve.decode_waits"] = static_cast<double>(stats.decode_waits);
  layer["serve.evictions"] = static_cast<double>(stats.evictions);
  layer["serve.pool_peak_bytes"] = static_cast<double>(stats.pool.peak_outstanding_bytes);
  layer["serve.retries"] = static_cast<double>(stats.retries);
  layer["serve.decode_failures"] = static_cast<double>(stats.decode_failures);
  layer["source.bytes_read_per_byte"] =
      ratio(static_cast<double>(counters.bytes.load()), out_bytes);
  layer["source.read_s"] = total("source.read_at");
  layer["pool.tasks_per_block"] =
      ratio(cnt("pool.tasks_submitted") + cnt("pool.jobs_dispatched"),
            static_cast<double>(timed->calls()) + cnt("ingest.chunks_indexed"));
  layer["trace.coverage"] = bd.coverage;
  // Bases of the ratios above, for the report.
  layer["base.bytes_delivered"] = out_bytes;
  layer["base.bytes_decoded"] = decoded;
  layer["base.bytes_indexed"] = cnt("ingest.bytes_indexed");
  layer["base.source_bytes"] = static_cast<double>(counters.bytes.load());
  layer["base.reads"] = cnt("serve.reads");
  layer["base.chunks_indexed"] = cnt("ingest.chunks_indexed");
  layer["base.background_s"] = bd.background_s;
  for (const auto& [name, v] : bd.self_s) layer["self." + name + "_s"] = v;
  return p;
}

double CatRunner::single_thread_build_s() {
  SourceCounters counters;
  CountingSource source(serve::open_file_source(path_), counters);
  // The same open_backend() call as the traced pass, with a sequential
  // index build, so the two figures differ only in the thread count.
  gompresso::OpenOptions one = opts_;
  one.session.num_threads = 1;
  const auto t0 = Clock::now();
  gompresso::open_backend(source, one);
  return seconds_between(t0, Clock::now());
}

Result CatRunner::run() {
  Result r;
  std::vector<double> setup, wall, cpu, traced_wall, build_1t;
  std::vector<std::map<std::string, double>> layers;
  const auto account = [&](const Pass& p) {
    ++r.attempted;
    if (!p.ok) {
      ++r.failed;
      ++r.mismatches;
    }
  };
  const auto guarded = [&](auto&& fn) {
    try {
      fn();
    } catch (const gompresso::Error& e) {
      recorder().set_enabled(false);
      recorder().clear();
      ++r.attempted;
      ++r.failed;
      r.notes.push_back(std::string("typed error: ") + e.what());
    }
  };

  // Warm-up: page cache, lazy tables, allocator arenas. Verified, not timed.
  guarded([&] { account(untraced_pass()); });

  // mem_peak_mb: the live-heap high-water mark of the whole timed phase
  // above what the harness held before it.
  PeakMemory mem;
  const auto start = Clock::now();
  std::uint64_t request = 1;
  while (seconds_between(start, Clock::now()) < cfg_.seconds) {
    guarded([&] {
      const Pass p = untraced_pass();
      account(p);
      setup.push_back(p.setup_s);
      wall.push_back(p.wall_s);
      cpu.push_back(p.cpu_s);
    });
    if (!cfg_.trace) continue;
    guarded([&] {
      std::map<std::string, double> layer;
      const Pass p = traced_pass(request++, layer);
      account(p);
      traced_wall.push_back(p.wall_s);
      layers.push_back(std::move(layer));
    });
    if (kind_ == Kind::kGzip) guarded([&] { build_1t.push_back(single_thread_build_s()); });
  }
  const double mem_mb = mem.heap_peak_mb();
  const double rss_mb = mem.rss_peak_mb();
  if (wall.empty()) return r;

  const double mb = static_cast<double>(corpus_.size()) / 1e6;
  const double gb = static_cast<double>(corpus_.size()) / 1e9;
  r.e2e["setup_s"] = median(setup);
  r.e2e["throughput_mbps"] = mb / median(wall);
  r.e2e["cpu_s_per_gb"] = median(cpu) / gb;
  r.e2e["mem_peak_mb"] = mem_mb;
  r.e2e["compression_ratio"] = static_cast<double>(corpus_.size()) /
                               static_cast<double>(comp_bytes_);
  r.e2e["op_p50_ms"] = median(wall) * 1e3;

  r.add_timing("setup_s", setup, "s");
  r.add_timing("pass_wall_s", wall, "s");
  r.add("throughput_mbps", r.e2e["throughput_mbps"], "MB/s",
        "plaintext MB (1e6 B) / median wall of open()+read+close");
  r.add_timing("cpu_s_per_pass", cpu, "s");
  r.add("cpu_s_per_gb", r.e2e["cpu_s_per_gb"], "s/GB", "process user+sys per plaintext GB");
  const char* phase = cfg_.trace ? "over the timed phase, traced passes included"
                                 : "over the timed phase above its start";
  r.add("mem_peak_mb", mem_mb, "MB", std::string("live-heap peak ") + phase);
  r.add("rss_peak_mb", rss_mb, "MB", std::string("resident high-water mark ") + phase);
  r.add_ratio("compression_ratio", {static_cast<double>(corpus_.size()),
                                    static_cast<double>(comp_bytes_)},
              "plaintext_bytes", "archive_bytes");

  if (cfg_.trace && !layers.empty()) {
    std::map<std::string, double> m = median_of(layers);
    if (!build_1t.empty()) m["ingest.index_build_1t_s"] = median(build_1t);
    m["trace.overhead_frac"] = median(traced_wall) / median(wall) - 1.0;
    r.add_timing("traced_pass_wall_s", traced_wall, "s");
    if (!build_1t.empty()) r.add_timing("ingest.index_build_1t_s", build_1t, "s");
    r.layer = std::move(m);
    write_spans(cfg_.work_dir + "/spans-" + cfg_.workload + ".jsonl", all_spans_);
  }
  return r;
}

}  // namespace

std::string write_archive(const Config& cfg, const Bytes& corpus, std::uint64_t* comp_bytes) {
  gompresso::CompressOptions copt;  // defaults: Bit codec, DE, 256 KiB blocks
  copt.num_threads = cfg.threads;
  const Bytes archive = gompresso::compress(ByteSpan(corpus.data(), corpus.size()), copt);
  const std::string path = cfg.work_dir + "/" + cfg.workload + ".gmp";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(archive.data()),
            static_cast<std::streamsize>(archive.size()));
  gompresso::check_io(out.good(), "perfbench: cannot write the archive");
  *comp_bytes = archive.size();
  return path;
}

Result run_gmpz_cat(const Config& cfg) {
  const Bytes corpus = make_corpus(cfg.seed);
  std::uint64_t comp_bytes = 0;
  const std::string path = write_archive(cfg, corpus, &comp_bytes);
  return CatRunner(cfg, Kind::kGmpz, path, corpus, comp_bytes).run();
}

Result run_gzip_cat(const Config& cfg) {
  const Bytes corpus = make_corpus(cfg.seed);
  const std::uint64_t comp_bytes = serve::open_file_source(cfg.gz_path)->size();
  return CatRunner(cfg, Kind::kGzip, cfg.gz_path, corpus, comp_bytes).run();
}

}  // namespace perfbench
