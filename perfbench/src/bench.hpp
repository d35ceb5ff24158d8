// Shared declarations of the perfbench workloads: run configuration,
// the result every workload fills, process-level probes (CPU, peak
// memory, registry deltas) and the traced wrappers around the library's
// public seams (ContainerBackend, ByteSource).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/gompresso.hpp"
#include "helpers.hpp"
#include "obs/metrics.hpp"
#include "serve/backend.hpp"
#include "serve/byte_source.hpp"

namespace perfbench {

using gompresso::ByteSpan;
using gompresso::Bytes;
using gompresso::MutableByteSpan;

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;      // working files (the GMPZ archive, spans)
  std::string gz_path;       // gzip_cat: the `gzip -6` file of the corpus
  std::size_t threads = 1;   // session / compress / server threads (nproc)
};

/// What one run reports. `e2e` and `layer` hold the contract metrics by
/// name (units live in main.cpp's contract table); `report` holds every
/// other figure the human-readable report prints, with its own unit.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  struct Line {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string note;
  };
  std::vector<Line> report;
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit, std::string note = "") {
    report.push_back({std::move(name), value, std::move(unit), std::move(note)});
  }
  /// A timing sample set: median plus the highest percentile with at
  /// least ten samples beyond it, with n.
  void add_timing(const std::string& name, const std::vector<double>& v,
                  const std::string& unit);
  void add_ratio(const std::string& name, const Ratio& r, const std::string& num_name,
                 const std::string& den_name);
};

inline double seconds_between(std::chrono::steady_clock::time_point a,
                              std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The seeded corpus (src/corpus.cpp): kCorpusBytes of Wikipedia-like
/// XML text of one fixed language, identical for equal seeds and never
/// seen by the library except as bytes. The size is defined next to the
/// generator, so run.py's gzip cache key (a hash of that file) covers it.
extern const std::size_t kCorpusBytes;
Bytes make_corpus(std::uint64_t seed);
inline constexpr const char* kCorpusGenerator = "wikipedia_xml";

/// Compresses `corpus` with default CompressOptions at cfg.threads and
/// writes it to the work directory; returns the path.
std::string write_archive(const Config& cfg, const Bytes& corpus, std::uint64_t* comp_bytes);

/// CPU seconds the hypervisor gave to other guests while this machine's
/// CPUs wanted to run ("steal" in /proc/stat, summed over CPUs). Printed
/// with every result: a run that lost CPU this way reads slow for
/// reasons outside the program.
double host_steal_s();

/// Process user+sys CPU seconds, and the calling thread's.
double process_cpu_s();
double thread_cpu_s();

/// Live heap bytes of this process (src/heap.cpp counts every
/// operator new and delete) and their high-water mark since the last
/// reset_heap_peak().
std::int64_t heap_live_bytes();
std::int64_t heap_peak_bytes();
void reset_heap_peak();

/// Peak memory of a phase above what the harness held when the object
/// was made, so the harness's own buffers (corpus, reference,
/// destination) are in the baseline and not in the peak. `heap_peak_mb`
/// is the live-heap peak (the contract's mem_peak_mb); `rss_peak_mb`
/// is the kernel's resident high-water mark, printed in the report.
/// `reset_peak` restarts both high-water marks (start of the measured
/// phase) without moving the baseline.
class PeakMemory {
 public:
  PeakMemory();
  void reset_peak();
  double heap_peak_mb() const;
  double rss_peak_mb() const;

 private:
  std::int64_t base_heap_ = 0;
  double base_rss_kb_ = 0.0;
};

/// Registry deltas between two snapshots.
std::uint64_t counter_delta(const gompresso::obs::MetricsSnapshot& a,
                            const gompresso::obs::MetricsSnapshot& b,
                            const std::string& name);
gompresso::obs::HistogramData histogram_delta(const gompresso::obs::MetricsSnapshot& a,
                                              const gompresso::obs::MetricsSnapshot& b,
                                              const std::string& name);

/// The span recorder of this process (on only in traced passes).
SpanRecorder& recorder();

/// ContainerBackend decorator: one span per decode_block call and a
/// count of the bytes it decoded. Everything else forwards.
class TimedBackend : public gompresso::serve::ContainerBackend {
 public:
  TimedBackend(std::shared_ptr<gompresso::serve::ContainerBackend> inner,
               const char* span_name)
      : inner_(std::move(inner)), span_name_(span_name) {}

  const char* kind_name() const override { return inner_->kind_name(); }
  std::uint64_t total_uncompressed() const override {
    return inner_->total_uncompressed();
  }
  std::uint64_t source_size() const override { return inner_->source_size(); }
  std::uint64_t compressed_end() const override { return inner_->compressed_end(); }
  std::size_t num_blocks() const override { return inner_->num_blocks(); }
  gompresso::serve::BackendBlock block(std::size_t b) const override {
    return inner_->block(b);
  }
  std::size_t block_containing(std::uint64_t offset) const override {
    return inner_->block_containing(offset);
  }
  const gompresso::serve::SeekIndex* seek_index() const override {
    return inner_->seek_index();
  }
  void decode_block(std::size_t b, gompresso::serve::ByteSource& source,
                    gompresso::util::BufferPool& buffers, MutableByteSpan out) override {
    ScopedSpan span(recorder(), span_name_);
    inner_->decode_block(b, source, buffers, out);
    decoded_bytes_.fetch_add(out.size(), std::memory_order_relaxed);
    calls_.fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t decoded_bytes() const { return decoded_bytes_.load(); }
  std::uint64_t calls() const { return calls_.load(); }

 private:
  std::shared_ptr<gompresso::serve::ContainerBackend> inner_;
  const char* span_name_;
  std::atomic<std::uint64_t> decoded_bytes_{0};
  std::atomic<std::uint64_t> calls_{0};
};

/// Bytes a CountingSource read, shared with the harness (the source
/// itself is owned by the session that reads through it).
struct SourceCounters {
  std::atomic<std::uint64_t> bytes{0};
};

/// ByteSource decorator over open_file_source: a span per read_at plus
/// byte count.
class CountingSource : public gompresso::serve::ByteSource {
 public:
  CountingSource(std::unique_ptr<gompresso::serve::ByteSource> inner,
                 SourceCounters& counters)
      : inner_(std::move(inner)), counters_(counters) {}
  std::uint64_t size() const override { return inner_->size(); }
  void read_at(std::uint64_t offset, MutableByteSpan dst) override {
    ScopedSpan span(recorder(), "source.read_at");
    inner_->read_at(offset, dst);
    counters_.bytes.fetch_add(dst.size(), std::memory_order_relaxed);
  }

 private:
  std::unique_ptr<gompresso::serve::ByteSource> inner_;
  SourceCounters& counters_;
};

/// Sums, per span name, the self time of the spans of one operation
/// that lie on its blocking path (descendants of `op`), and the total
/// duration of its background spans (same request, not under `op`:
/// prefetch decodes running between the caller's reads).
struct OpBreakdown {
  std::map<std::string, double> self_s;       // blocking path, by name
  std::map<std::string, double> total_s;      // every span of the op, by name
  double background_s = 0.0;
  double coverage = 0.0;                      // child_coverage of the op
};
OpBreakdown breakdown(const std::vector<Span>& spans, std::int64_t op,
                      std::uint64_t request, std::uint64_t lo_ns, std::uint64_t hi_ns);

/// Medians of per-operation metric maps (one map per traced operation).
std::map<std::string, double> median_of(const std::vector<std::map<std::string, double>>& ops);

/// Writes the recorded spans as JSON lines to `path` (best effort).
void write_spans(const std::string& path, const std::vector<Span>& spans);

/// Tolerance for child_coverage: the calls an operation makes must
/// account for at least this share of its measured wall.
inline constexpr double kCoverageTolerance = 0.95;

Result run_gmpz_cat(const Config& cfg);
Result run_gzip_cat(const Config& cfg);
Result run_serve(const Config& cfg);
Result run_compress(const Config& cfg);

}  // namespace perfbench
