// Foreign-format ingest benchmark + trajectory emitter (BENCH_ingest.json).
//
// Measures the rapidgzip-style parallel gzip path end to end through
// gompresso::open():
//
//   ingest/gzip_1thread   — open + full sequential-build decode, 1 thread
//                           (the ratchet's in-run reference entry)
//   ingest/gzip_parallel  — same work on the full thread count
//                           (speculative boundary finding + marker decode)
//   ingest/reopen_sidecar — open with a GZIX sidecar + one 256 KiB read
//                           (the O(header) reopen the sidecar promises)
//
// The parallel entry runs GzipIndex::build's window chain: every cell
// scans for a block boundary through find_block_boundary's branch-free
// pre-filter and marker-decodes on its own, waits only for its
// predecessor's end bit and 32 KiB window, publishes its successor's
// window from its own last 32 KiB of tokens, and then patches and
// CRC32s its tokens off the chain (member CRCs folded with
// crc32_combine). The bench also prints the boundary scan's cost in ns
// per examined bit offset (an informational line, not a ratchet entry).
//
// Gates:
//   * correctness (hard): every decode is byte-identical to the input.
//   * sidecar reopen (hard): the sidecar path must not rebuild or rescan
//     — asserted on the ingest.* counters, which cannot be faked by a
//     fast machine.
//   * parallel speedup (timing): >= 1.5x over the same binary's 1-thread
//     entry, armed only when the host has >= 2 hardware threads (a
//     1-vCPU container cannot express the speedup). Remeasured once
//     before failing, like the other timing gates.
//
// The compressed corpus comes from the system `gzip -6` so the dynamic
// Huffman shapes are a real encoder's. Without a gzip binary (minimal
// containers) a stored-block member is fabricated in-process: entries
// are still emitted so the trajectory file never goes missing, but the
// speedup gate is skipped — stored blocks decode at memcpy speed and
// say nothing about the token loop.
//
// Run with --quick for the CI smoke configuration.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "bench/bench_util.hpp"
#include "core/gompresso.hpp"
#include "datagen/datasets.hpp"
#include "ingest/gzip_index.hpp"
#include "ingest/inflate.hpp"
#include "obs/metrics.hpp"
#include "util/crc32.hpp"
#include "util/varint.hpp"

namespace gompresso::bench {
namespace {

/// Real-encoder corpus via the system gzip; empty when unavailable.
Bytes gzip_with_system(const Bytes& raw, const std::string& dir) {
  if (std::system("gzip --version >/dev/null 2>&1") != 0) return {};
  const std::string raw_path = dir + "/bench_ingest.raw";
  const std::string gz_path = raw_path + ".gz";
  {
    std::ofstream out(raw_path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(raw.data()),
              static_cast<std::streamsize>(raw.size()));
    if (!out.good()) return {};
  }
  const std::string cmd = "gzip -6 -n -c " + raw_path + " > " + gz_path;
  if (std::system(cmd.c_str()) != 0) return {};
  std::ifstream in(gz_path, std::ios::binary);
  Bytes gz((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  std::remove(raw_path.c_str());
  std::remove(gz_path.c_str());
  return gz;
}

/// Fallback corpus: one stored-block gzip member (always decodable, but
/// not representative — the caller skips the speedup gate on it).
Bytes gzip_stored_member(const Bytes& raw) {
  Bytes out = {0x1F, 0x8B, 0x08, 0x00, 0, 0, 0, 0, 0x00, 0xFF};
  std::size_t pos = 0;
  do {
    const std::size_t len = std::min<std::size_t>(raw.size() - pos, 65535);
    const bool final_block = pos + len == raw.size();
    out.push_back(final_block ? 1 : 0);
    out.push_back(static_cast<std::uint8_t>(len & 0xFF));
    out.push_back(static_cast<std::uint8_t>(len >> 8));
    out.push_back(static_cast<std::uint8_t>(~len & 0xFF));
    out.push_back(static_cast<std::uint8_t>((~len >> 8) & 0xFF));
    out.insert(out.end(), raw.begin() + static_cast<std::ptrdiff_t>(pos),
               raw.begin() + static_cast<std::ptrdiff_t>(pos + len));
    pos += len;
  } while (pos < raw.size());
  put_u32le(out, crc32(ByteSpan(raw.data(), raw.size())));
  put_u32le(out, static_cast<std::uint32_t>(raw.size()));
  return out;
}

/// Boundary-scan cost over every bit offset of the first 512 KiB of the
/// compressed corpus, restarting past each candidate as the build does.
/// Returns ns per examined bit offset; `stats` gets the totals.
double scan_ns_per_bit(const Bytes& gz, int reps, ingest::BoundaryScanStats& stats) {
  const ByteSpan span(gz.data(), std::min<std::size_t>(gz.size(), 512 * 1024));
  ingest::InflateScratch scratch;
  const double sec = time_median_of(reps, [&] {
    stats = {};
    for (std::uint64_t bit = 0; bit < 8 * span.size();) {
      const std::uint64_t cand =
          ingest::find_block_boundary(span, bit, 8 * span.size(), scratch, &stats);
      if (cand == ingest::kNoBoundary) break;
      bit = cand + 1;
    }
  });
  return sec * 1e9 / static_cast<double>(std::max<std::uint64_t>(1, stats.bits_scanned));
}

double time_full_decode(const Bytes& gz, const Bytes& raw, std::size_t threads,
                        int reps) {
  OpenOptions opt;
  opt.session.num_threads = threads;
  opt.gzip.chunk_size = 128 * 1024;
  Bytes out(raw.size());
  const double sec = time_median_of(reps, [&] {
    auto session = open(serve::memory_source(ByteSpan(gz.data(), gz.size())), opt);
    check(session->size() == raw.size(), "bench: decoded size mismatch");
    session->read_at(0, MutableByteSpan(out.data(), out.size()));
  });
  check(std::memcmp(out.data(), raw.data(), raw.size()) == 0,
        "bench: gzip decode differs from the input");
  return sec;
}

}  // namespace
}  // namespace gompresso::bench

int main(int argc, char** argv) {
  using namespace gompresso;
  using namespace gompresso::bench;

  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  print_header("Foreign-format ingest: parallel gzip decode through open()");
  const std::size_t input_bytes = quick ? 4 * 1024 * 1024 : kBenchBytes;
  const int reps = quick ? 3 : 5;
  const Bytes raw = datagen::wikipedia(input_bytes);

  Bytes gz = gzip_with_system(raw, "/tmp");
  const bool real_encoder = !gz.empty();
  if (!real_encoder) {
    std::printf("no gzip binary — stored-block fallback corpus, "
                "speedup gate skipped\n");
    gz = gzip_stored_member(raw);
  }
  std::printf("corpus: %.0f MiB wikipedia -> %.2f MiB gzip (%s)\n",
              static_cast<double>(input_bytes) / 1048576.0,
              static_cast<double>(gz.size()) / 1048576.0,
              real_encoder ? "system gzip -6" : "stored blocks");

  JsonReport report("ingest", "wikipedia", reps);
  const unsigned hc = std::max(1u, std::thread::hardware_concurrency());

  double sec_1t = time_full_decode(gz, raw, 1, reps);
  report.add("ingest/gzip_1thread", sec_1t, raw.size());
  std::printf("%-24s %9.1f MB/s\n", "ingest/gzip_1thread",
              static_cast<double>(raw.size()) / 1e6 / sec_1t);

  double sec_par = time_full_decode(gz, raw, hc, reps);
  report.add("ingest/gzip_parallel", sec_par, raw.size());
  std::printf("%-24s %9.1f MB/s   (%u threads, %.2fx)\n", "ingest/gzip_parallel",
              static_cast<double>(raw.size()) / 1e6 / sec_par, hc,
              sec_1t / sec_par);

  ingest::BoundaryScanStats scan;
  const double ns_per_bit = scan_ns_per_bit(gz, reps, scan);
  std::printf("%-24s %9.2f ns per examined bit offset (%llu offsets, "
              "%llu candidates)\n",
              "ingest/boundary_scan", ns_per_bit,
              static_cast<unsigned long long>(scan.bits_scanned),
              static_cast<unsigned long long>(scan.candidates));

  // --- sidecar reopen -----------------------------------------------------
  const std::string sidecar = "/tmp/bench_ingest.gzix";
  {
    ingest::GzipIndexOptions gopt;
    gopt.chunk_size = 128 * 1024;
    auto source = serve::memory_source(ByteSpan(gz.data(), gz.size()));
    ingest::GzipIndex::build(*source, gopt).save(sidecar);
  }
  const std::uint64_t builds_before =
      obs::metrics_snapshot().counter("ingest.index_builds");
  const std::uint64_t scanned_before =
      obs::metrics_snapshot().counter("ingest.boundary_bits_scanned");
  constexpr std::size_t kReadLen = 256 * 1024;
  OpenOptions ropt;
  ropt.session.num_threads = 1;
  ropt.sidecar_path = sidecar;
  Bytes head(std::min<std::size_t>(kReadLen, raw.size()));
  const double sec_reopen = time_median_of(quick ? 9 : 25, [&] {
    auto session = open(serve::memory_source(ByteSpan(gz.data(), gz.size())), ropt);
    session->read_at(0, MutableByteSpan(head.data(), head.size()));
  });
  check(std::memcmp(head.data(), raw.data(), head.size()) == 0,
        "bench: sidecar reopen decode differs from the input");
  check(obs::metrics_snapshot().counter("ingest.index_builds") == builds_before,
        "bench: sidecar reopen rebuilt the index");
  check(obs::metrics_snapshot().counter("ingest.boundary_bits_scanned") ==
            scanned_before,
        "bench: sidecar reopen ran a boundary scan");
  std::remove(sidecar.c_str());
  report.add("ingest/reopen_sidecar", sec_reopen, head.size());
  std::printf("%-24s %9.1f MB/s   (sidecar, no rebuild)\n",
              "ingest/reopen_sidecar",
              static_cast<double>(head.size()) / 1e6 / sec_reopen);

  // Write the trajectory before the timing gate so the JSON artifact
  // survives a gate failure on a noisy runner.
  report.write("BENCH_ingest.json");

  // --- speedup gate (timing; remeasure before failing) --------------------
  if (hc >= 2 && real_encoder) {
    double speedup = sec_1t / sec_par;
    for (int attempt = 1; speedup < 1.5 && attempt <= 2; ++attempt) {
      std::printf("parallel speedup %.2fx — remeasuring (attempt %d)\n",
                  speedup, attempt);
      sec_1t = time_full_decode(gz, raw, 1, reps);
      sec_par = time_full_decode(gz, raw, hc, reps);
      speedup = sec_1t / sec_par;
    }
    std::printf("parallel speedup: %.2fx over 1 thread (gate: >= 1.5x)\n",
                speedup);
    check(speedup >= 1.5,
          "bench: parallel gzip decode below the 1.5x acceptance gate");
  } else {
    std::printf("speedup gate skipped (%u hardware threads, %s corpus)\n", hc,
                real_encoder ? "real" : "fallback");
  }
  return 0;
}
