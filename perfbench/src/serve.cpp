// serve_zipf_64k: an in-process net::Server over the gmpz_cat archive,
// driven across loopback TCP by an open-loop generator: a seeded fixed
// schedule of 64 KiB Range GETs at three fixed rates, sent on at most
// nproc keep-alive connections, latency timed from each request's due
// time.
#include <cstring>
#include <thread>

#include "bench.hpp"
#include "net/http.hpp"
#include "net/server.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace obs = gompresso::obs;
namespace serve = gompresso::serve;
namespace net = gompresso::net;
using Clock = std::chrono::steady_clock;

// Offered rates in requests per second, fixed constants at roughly 1/4,
// 1/2 and 3/4 of the closed-loop capacity measured at the commit that
// introduced this benchmark (4 hardware threads, 4 connections).
struct Rate {
  const char* name;
  double rps;
};
constexpr Rate kRates[] = {{"lo", 100.0}, {"mid", 200.0}, {"hi", 300.0}};
// A rate meets the service level when its tail latency stays under this
// limit, no request failed and the backlog did not grow.
constexpr double kLatencyLimitMs = 50.0;
constexpr std::uint64_t kRangeBytes = 64 * 1024;
constexpr double kZipfS = 1.05;
constexpr std::size_t kWarmupRequests = 200;
constexpr int kSetupRepeats = 50;

struct Request {
  std::uint64_t offset = 0;
  double due = 0.0;   // seconds after the schedule's origin
  double sent = 0.0;
  double done = 0.0;
  bool ok = false;
  int status = 0;
  // Traced phases: the request's span and its measured client wall.
  std::int64_t op = -1;
  std::uint64_t lo_ns = 0;
  std::uint64_t hi_ns = 0;
};

struct PhaseResult {
  std::vector<Request> reqs;
  double loadgen_cpu_s = 0.0;  // CPU of the generator's own threads
  std::uint64_t good_bytes = 0;
  double wall_s = 0.0;         // first due to last completion
};

/// Zipf-skewed block choice (rank -> a seeded permutation of blocks),
/// uniform offset inside the block, evenly spaced due times.
std::vector<Request> make_schedule(gompresso::Rng& rng, const serve::ContainerBackend& backend,
                                   const std::vector<std::size_t>& perm,
                                   const gompresso::ZipfSampler& zipf, double rps,
                                   std::size_t n) {
  const std::uint64_t size = backend.total_uncompressed();
  std::vector<Request> reqs(n);
  for (std::size_t i = 0; i < n; ++i) {
    const serve::BackendBlock blk = backend.block(perm[zipf.sample(rng)]);
    const std::uint64_t off = blk.uncomp_offset + rng.next_below(blk.uncomp_size);
    reqs[i].offset = std::min(off, size - kRangeBytes);
    reqs[i].due = static_cast<double>(i) / rps;
  }
  return reqs;
}

PhaseResult run_phase(std::uint16_t port, const Bytes& plaintext, std::vector<Request> reqs,
                      std::size_t conns, std::uint64_t request_base) {
  PhaseResult out;
  SpanRecorder& rec = recorder();
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> good_bytes{0};
  std::vector<double> thread_cpu(conns, 0.0);
  const auto origin = Clock::now() + std::chrono::milliseconds(20);
  const auto at = [&](double sec) {
    return origin + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(sec));
  };
  const auto since = [&](Clock::time_point t) {
    return std::chrono::duration<double>(t - origin).count();
  };

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      const double cpu0 = thread_cpu_s();
      auto client = std::make_unique<net::HttpClient>(port);
      net::HttpResponse resp;
      for (std::size_t i = next.fetch_add(1); i < reqs.size(); i = next.fetch_add(1)) {
        Request& r = reqs[i];
        SpanRecorder::set_thread_request(request_base + i);
        const std::string range = "Range: bytes=" + std::to_string(r.offset) + "-" +
                                  std::to_string(r.offset + kRangeBytes - 1);
        {
          ScopedSpan wait(rec, "loadgen.wait");
          std::this_thread::sleep_until(at(r.due));
        }
        // The client's handling of one request: its measured wall runs
        // from sending it to the end of the verify, and the spans inside
        // it read the clock on their own, so trace.coverage shows any
        // step left out of them.
        r.lo_ns = now_ns();
        ScopedSpan op(rec, "request");
        r.op = op.id();
        r.sent = since(Clock::now());
        bool got = false;
        {
          ScopedSpan get(rec, "http.get");
          try {
            if (!client->alive()) client = std::make_unique<net::HttpClient>(port);
            got = client->get("/archive", {range}, resp);
          } catch (const gompresso::Error&) {
            got = false;
          }
        }
        r.done = since(Clock::now());
        if (got) {
          r.status = resp.status;
          ScopedSpan verify(rec, "verify");
          r.ok = resp.status == 206 && resp.body.size() == kRangeBytes &&
                 std::memcmp(resp.body.data(), plaintext.data() + r.offset, kRangeBytes) == 0;
        } else {  // timeout or closed connection: a failed request
          ScopedSpan reconnect(rec, "http.reconnect");
          client = std::make_unique<net::HttpClient>(port);
        }
        if (r.ok) good_bytes.fetch_add(kRangeBytes);
        r.hi_ns = now_ns();
      }
      thread_cpu[c] = thread_cpu_s() - cpu0;
    });
  }
  for (std::thread& t : threads) t.join();
  for (double v : thread_cpu) out.loadgen_cpu_s += v;
  out.good_bytes = good_bytes.load();
  double last = 0.0;
  for (const Request& r : reqs) last = std::max(last, r.done);
  out.wall_s = last;
  out.reqs = std::move(reqs);
  return out;
}

double ms(double s) { return s * 1e3; }

}  // namespace

Result run_serve(const Config& cfg) {
  Result r;
  const Bytes corpus = make_corpus(cfg.seed);
  std::uint64_t comp_bytes = 0;
  const std::string path = write_archive(cfg, corpus, &comp_bytes);
  SpanRecorder& rec = recorder();

  SourceCounters counters;
  const net::SourceFactory factory = [&]() -> std::unique_ptr<serve::ByteSource> {
    if (!cfg.trace) return serve::open_file_source(path);
    return std::make_unique<CountingSource>(serve::open_file_source(path), counters);
  };
  std::shared_ptr<serve::ContainerBackend> plain =
      gompresso::open_backend(*serve::open_file_source(path));
  std::shared_ptr<TimedBackend> timed;
  std::shared_ptr<serve::ContainerBackend> backend = plain;
  if (cfg.trace) {
    timed = std::make_shared<TimedBackend>(plain, "core.decode_block");
    backend = timed;
  }

  net::ServeOptions sopt;
  sopt.port = 0;
  sopt.worker_threads = cfg.threads;
  sopt.decode_threads = cfg.threads;

  // The harness holds the corpus, the archive's backend and nothing else
  // yet: the server's whole footprint counts as its memory.
  PeakMemory mem;

  // setup_s: from opening the archive until a fresh server has answered
  // its first request. That is open_backend(), Server construction,
  // start(), and one 64 KiB GET on a new connection, which creates the
  // connection's session and decodes its first block. It runs several
  // times; setup_s is the median. start() alone is reported as
  // server_start_s. That alone is ~0.2 ms of thread creation, and its
  // median moved by 35% between sets of ten runs, more than any bound
  // allows.
  std::vector<double> setup, start_only;
  std::uint64_t probe_failures = 0;
  const std::string first_range = "Range: bytes=0-" + std::to_string(kRangeBytes - 1);
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    net::Server s(factory, gompresso::open_backend(*serve::open_file_source(path)), sopt);
    s.start();
    const auto t1 = Clock::now();
    net::HttpResponse resp;
    bool ok = false;
    try {
      net::HttpClient client(s.port());
      ok = client.get("/archive", {first_range}, resp) && resp.status == 206 &&
           resp.body.size() == kRangeBytes &&
           std::memcmp(resp.body.data(), corpus.data(), kRangeBytes) == 0;
    } catch (const gompresso::Error&) {
      ok = false;
    }
    const auto t2 = Clock::now();
    setup.push_back(seconds_between(t0, t2));
    start_only.push_back(seconds_between(t0, t1));
    if (!ok) ++probe_failures;
    s.stop();
  }
  net::Server server(factory, backend, sopt);
  server.start();

  gompresso::Rng rng(0x5E55E7ull ^ (cfg.seed * 0x9E3779B97F4A7C15ULL));
  std::vector<std::size_t> perm(backend->num_blocks());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  for (std::size_t i = perm.size(); i > 1; --i) std::swap(perm[i - 1], perm[rng.next_below(i)]);
  const gompresso::ZipfSampler zipf(perm.size(), kZipfS);
  const std::size_t conns = cfg.threads;

  // Phases: every rate untraced; a traced run adds each rate traced and
  // keeps `mid` untraced as the overhead reference.
  struct Phase {
    const Rate* rate;
    bool traced;
  };
  std::vector<Phase> phases;
  if (!cfg.trace) {
    for (const Rate& rt : kRates) phases.push_back({&rt, false});
  } else {
    phases.push_back({&kRates[1], false});
    for (const Rate& rt : kRates) phases.push_back({&rt, true});
  }
  double inv_sum = 0.0;
  for (const Phase& p : phases) inv_sum += 1.0 / p.rate->rps;
  const std::size_t n = std::max<std::size_t>(
      20, static_cast<std::size_t>(cfg.seconds / inv_sum));

  std::uint64_t attempted = 0, failed = 0;
  const auto tally = [&](const PhaseResult& pr) {
    for (const Request& q : pr.reqs) {
      ++attempted;
      if (!q.ok) {
        ++failed;
        if (q.status == 206) ++r.mismatches;
      }
    }
  };

  // Warm-up: fills the sessions' caches and the page cache. Verified.
  tally(run_phase(server.port(), corpus,
                  make_schedule(rng, *backend, perm, zipf, kRates[1].rps, kWarmupRequests),
                  conns, 1));

  struct Measured {
    const Rate* rate;
    bool traced;
    PhaseResult res;
    ScheduleStats st;
  };
  std::vector<Measured> done;
  const net::ServerStats srv0 = server.stats();
  obs::MetricsSnapshot traced_before, traced_after;
  net::ServerStats srv_traced0{}, srv_traced1{};
  std::uint64_t decoded0 = 0, decode_calls0 = 0, source_bytes0 = 0;
  mem.reset_peak();
  const double cpu0 = process_cpu_s();
  double loadgen_cpu = 0.0, load_wall = 0.0;
  std::uint64_t good_bytes = 0, request_base = 1'000'000;
  std::vector<Span> spans;
  for (const Phase& ph : phases) {
    auto sched = make_schedule(rng, *backend, perm, zipf, ph.rate->rps, n);
    const bool first_traced = ph.traced && traced_before.metrics.empty();
    if (first_traced) {
      traced_before = obs::metrics_snapshot();
      srv_traced0 = server.stats();
      decoded0 = timed->decoded_bytes();
      decode_calls0 = timed->calls();
      source_bytes0 = counters.bytes.load();
    }
    rec.set_enabled(ph.traced);
    PhaseResult pr = run_phase(server.port(), corpus, std::move(sched), conns, request_base);
    rec.set_enabled(false);
    request_base += 1'000'000;
    tally(pr);
    loadgen_cpu += pr.loadgen_cpu_s;
    load_wall += pr.wall_s;
    good_bytes += pr.good_bytes;
    std::vector<double> due, sent, fin;
    for (const Request& q : pr.reqs) {
      due.push_back(q.due);
      sent.push_back(q.sent);
      fin.push_back(q.done);
    }
    ScheduleStats st = schedule_stats(due, sent, fin);
    done.push_back({ph.rate, ph.traced, std::move(pr), std::move(st)});
  }
  const double cpu_total = process_cpu_s() - cpu0;
  const double mem_mb = mem.heap_peak_mb();
  const double rss_mb = mem.rss_peak_mb();
  if (cfg.trace) {
    traced_after = obs::metrics_snapshot();
    srv_traced1 = server.stats();
    spans = rec.spans();
    rec.clear();
  }
  const net::ServerStats srv1 = server.stats();
  server.stop();

  r.attempted = attempted + kSetupRepeats;
  r.failed = failed + probe_failures;

  // ---- end-to-end (untraced phases)
  std::vector<double> all_lat;
  double max_rps = 0.0;
  for (const Measured& m : done) {
    if (m.traced) continue;
    std::vector<double> lat_ms, lag_ms;
    std::uint64_t fails = 0;
    for (std::size_t i = 0; i < m.res.reqs.size(); ++i) {
      lat_ms.push_back(ms(m.st.latency_s[i]));
      lag_ms.push_back(ms(m.st.lag_s[i]));
      if (!m.res.reqs[i].ok) ++fails;
    }
    all_lat.insert(all_lat.end(), lat_ms.begin(), lat_ms.end());
    const std::string sfx = std::string(".") + m.rate->name;
    const Tail tail = highest_tail(lat_ms);
    char note[160];
    std::snprintf(note, sizeof note, "offered %.0f req/s, n=%zu; p%g (>=10 samples beyond)",
                  m.rate->rps, lat_ms.size(), tail.pct);
    r.add("req_p50_ms" + sfx, median(lat_ms), "ms", note);
    r.add("req_p99_ms" + sfx, tail.value, "ms", note);
    r.add("loadgen.lag_ms_p99" + sfx, highest_tail(lag_ms).value, "ms");
    r.add("backlog_end" + sfx, static_cast<double>(m.st.backlog_end), "requests",
          "sent after the last request fell due; keeping up leaves <= connections");
    r.add("backlog_growth_per_s" + sfx, m.st.backlog_growth_per_s, "req/s");
    const bool meets = tail.value <= kLatencyLimitMs && fails == 0 && m.st.backlog_end <= conns;
    if (meets) max_rps = std::max(max_rps, m.rate->rps);
  }
  const double gb = static_cast<double>(good_bytes) / 1e9;
  const double server_cpu = cpu_total - loadgen_cpu;
  r.e2e["setup_s"] = median(setup);
  r.e2e["throughput_mbps"] = load_wall > 0.0 ? static_cast<double>(good_bytes) / 1e6 / load_wall : 0.0;
  r.e2e["cpu_s_per_gb"] = gb > 0.0 ? server_cpu / gb : 0.0;
  r.e2e["mem_peak_mb"] = mem_mb;
  r.e2e["compression_ratio"] =
      static_cast<double>(corpus.size()) / static_cast<double>(comp_bytes);
  r.e2e["op_p50_ms"] = median(all_lat);

  r.add_timing("setup_s", setup, "s");
  r.add_timing("server_start_s", start_only, "s");
  r.add("max_rps", max_rps, "req/s",
        "highest offered rate with tail <= 50 ms, no failure, no backlog growth");
  r.add("goodput_mbps", r.e2e["throughput_mbps"], "MB/s", "verified 206 body bytes / load wall");
  r.add("cpu_s_per_gb", r.e2e["cpu_s_per_gb"], "s/GB",
        "process CPU minus the load generator's threads, per delivered GB");
  r.add("loadgen_cpu_s", loadgen_cpu, "s");
  r.add("mem_peak_mb", mem_mb, "MB", "live-heap peak during the load above the harness's");
  r.add("rss_peak_mb", rss_mb, "MB", "resident high-water mark during the load, same base");
  r.add_ratio("compression_ratio", {static_cast<double>(corpus.size()),
                                    static_cast<double>(comp_bytes)},
              "plaintext_bytes", "archive_bytes");
  r.add("server_shed_503", static_cast<double>(srv1.shed_503 - srv0.shed_503), "responses");
  r.add("server_bytes_sent", static_cast<double>(srv1.bytes_sent - srv0.bytes_sent), "bytes");
  r.notes.push_back("traffic crossed loopback TCP (127.0.0.1) between threads of one process");

  if (!cfg.trace) return r;

  // ---- per-layer (traced phases)
  std::vector<double> service_traced, service_untraced, lag_ms, client_ms;
  double requests = 0.0;
  for (const Measured& m : done) {
    for (std::size_t i = 0; i < m.res.reqs.size(); ++i) {
      const Request& q = m.res.reqs[i];
      if (m.traced) {
        lag_ms.push_back(ms(m.st.lag_s[i]));
        client_ms.push_back(ms(q.done - q.sent));
        requests += 1.0;
        if (m.rate == &kRates[1]) service_traced.push_back(q.done - q.sent);
      } else if (m.rate == &kRates[1]) {
        service_untraced.push_back(q.done - q.sent);
      }
    }
  }
  const auto cnt = [&](const char* name) {
    return static_cast<double>(counter_delta(traced_before, traced_after, name));
  };
  const auto hist = [&](const char* name) {
    return histogram_delta(traced_before, traced_after, name);
  };
  const auto ratio = [](double a, double b) { return Ratio{a, b}.value(); };
  std::map<std::string, double> span_total;
  std::vector<double> coverage;
  {
    std::map<std::int64_t, std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids;
    for (const Span& s : spans) {
      span_total[s.name] += s.seconds();
      if (s.parent >= 0) kids[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
    for (const Measured& m : done) {
      if (!m.traced) continue;
      for (const Request& q : m.res.reqs) {
        if (q.hi_ns <= q.lo_ns) continue;
        coverage.push_back(static_cast<double>(covered_ns(kids[q.op], q.lo_ns, q.hi_ns)) /
                           static_cast<double>(q.hi_ns - q.lo_ns));
      }
    }
  }
  const double decoded = static_cast<double>(timed->decoded_bytes() - decoded0);
  const double decode_calls = static_cast<double>(timed->calls() - decode_calls0);
  const double delivered = cnt("serve.bytes_delivered");
  const double core_blocks = cnt("decode.blocks");
  const auto per_req = [&](double v) { return ratio(v, requests); };
  std::map<std::string, double>& L = r.layer;
  L["core.decode_s"] = per_req(span_total["core.decode_block"]);
  L["core.entropy_s"] = per_req(static_cast<double>(hist("decode.entropy_us").sum) * 1e-6);
  L["core.resolve_s"] = per_req(static_cast<double>(hist("decode.resolve_us").sum) * 1e-6);
  L["core.blocks"] = per_req(core_blocks);
  L["core.resolve_deferrals_per_block"] = ratio(cnt("resolve.deferrals"), core_blocks);
  L["serve.read_s"] = per_req(static_cast<double>(hist("serve.read_latency_us").sum) * 1e-6);
  L["serve.read_amplification"] = ratio(decoded, delivered);
  L["serve.cache_hit_ratio"] = ratio(cnt("serve.cache_hits"), cnt("serve.reads"));
  L["serve.prefetch_decodes"] = per_req(cnt("serve.prefetch_decodes"));
  L["serve.decode_waits"] = per_req(cnt("serve.decode_waits"));
  L["serve.evictions"] = per_req(cnt("serve.evictions"));
  L["serve.retries"] = per_req(cnt("serve.retries"));
  L["serve.decode_failures"] = per_req(cnt("serve.decode_failures"));
  // Defined only here, so reported outside the contract (see main.cpp).
  r.add("net.queue_wait_us_p99",
        log2_histogram_percentile(hist("net.queue_wait_us").buckets, 99.0), "us",
        "registry histogram, traced phases");
  r.add("net.request_us_p99", log2_histogram_percentile(hist("net.request_us").buckets, 99.0),
        "us", "registry histogram, traced phases");
  r.add("net.client_minus_server_ms_p50",
        median(client_ms) - log2_histogram_percentile(hist("net.request_us").buckets, 50.0) / 1e3,
        "ms", "client send-to-done p50 minus server request_us p50");
  r.add("loadgen.lag_ms_p99", highest_tail(lag_ms).value, "ms", "traced phases");
  L["net.shed_503"] = static_cast<double>(srv_traced1.shed_503 - srv_traced0.shed_503);
  L["net.errors"] = static_cast<double>(
      (srv_traced1.failed_502 - srv_traced0.failed_502) +
      (srv_traced1.error_500 - srv_traced0.error_500) +
      (srv_traced1.client_4xx - srv_traced0.client_4xx) +
      (srv_traced1.reaped_slow - srv_traced0.reaped_slow));
  L["source.bytes_read_per_byte"] =
      ratio(static_cast<double>(counters.bytes.load() - source_bytes0), delivered);
  L["source.read_s"] = per_req(span_total["source.read_at"]);
  L["pool.tasks_per_block"] =
      ratio(cnt("pool.tasks_submitted") + cnt("pool.jobs_dispatched"), decode_calls);
  L["trace.coverage"] = median(coverage);
  L["trace.overhead_frac"] = median(service_traced) / median(service_untraced) - 1.0;
  for (const char* name : {"loadgen.wait", "http.get", "verify"}) {
    L[std::string("self.") + name + "_s"] = per_req(span_total[name]);
  }
  L["base.requests"] = requests;
  L["base.bytes_delivered"] = delivered;
  L["base.bytes_decoded"] = decoded;
  L["base.reads"] = cnt("serve.reads");
  r.notes.push_back(
      "serve.pool_peak_bytes: net::Server does not expose its BufferPool; reported as 0");
  r.notes.push_back("per-layer times and counts are per request (traced lo, mid, hi phases)");
  write_spans(cfg.work_dir + "/spans-" + cfg.workload + ".jsonl", spans);
  return r;
}

}  // namespace perfbench
