#include "ingest/gzip_index.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <fstream>
#include <iterator>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/crc32.hpp"
#include "util/thread_annotations.hpp"
#include "util/varint.hpp"

namespace gompresso::ingest {
namespace {

struct IngestObs {
  obs::Counter index_builds;
  obs::Counter sidecar_loads;
  obs::Counter chunks_indexed;
  obs::Counter chunk_fallbacks;
  obs::Counter boundary_candidates;
  obs::Counter boundary_bits_scanned;
  obs::Counter bytes_indexed;
  obs::Counter markers_patched;
  obs::Histogram scan_us;           // find_block_boundary calls
  obs::Histogram marker_decode_us;  // speculative trial decodes
  obs::Histogram chain_wait_us;     // a cell blocked on its predecessor
  obs::Histogram patch_crc_us;      // a cell's patch + CRC, off the chain
};

const IngestObs& ingest_obs() {
  static const IngestObs c = {
      obs::registry().counter("ingest.index_builds", "builds"),
      obs::registry().counter("ingest.sidecar_loads", "loads"),
      obs::registry().counter("ingest.chunks_indexed", "chunks"),
      obs::registry().counter("ingest.chunk_fallbacks", "chunks"),
      obs::registry().counter("ingest.boundary_candidates", "candidates"),
      obs::registry().counter("ingest.boundary_bits_scanned", "bits"),
      obs::registry().counter("ingest.bytes_indexed", "bytes"),
      obs::registry().counter("ingest.markers_patched", "tokens"),
      obs::registry().histogram("ingest.scan_us", "us"),
      obs::registry().histogram("ingest.marker_decode_us", "us"),
      obs::registry().histogram("ingest.chain_wait_us", "us"),
      obs::registry().histogram("ingest.patch_crc_us", "us"),
  };
  return c;
}

/// Extra slice bytes past the grid pitch so a block straddling the
/// nominal chunk end usually decodes without a grow-and-retry.
constexpr std::uint64_t kSliceMargin = 64 * 1024;

/// Tokens patched per strip before the strip is checksummed: small
/// enough that tokens, table and strip stay cache-resident, so a chunk
/// is never held as bytes.
constexpr std::size_t kPatchStrip = 16 * 1024;

/// Decodes resolved bytes from absolute `start_bit` until the first
/// block boundary at/after byte `stop_byte`, growing the staged slice
/// on kNeedMoreData. Used for the stream-start chunk (window known to
/// be empty), for every chunk of the sequential build and for
/// speculation misses (window known from the predecessor). Corruption
/// here is genuine — the window is true.
struct ByteRun {
  std::uint64_t end_bit = 0;
  ChunkStatus status = ChunkStatus::kStopped;
  Bytes out;
  std::vector<MemberEvent> members;
};

ByteRun decode_byte_run(serve::ByteSource& source, std::uint64_t source_size,
                        std::uint64_t start_bit, std::uint64_t stop_byte,
                        ByteSpan start_window, InflateScratch& scratch) {
  const std::uint64_t base = start_bit >> 3;
  std::uint64_t slice_len =
      std::min(stop_byte - base + kSliceMargin, source_size - base);
  while (true) {
    Bytes slice(static_cast<std::size_t>(slice_len));
    source.read_at(base, MutableByteSpan(slice.data(), slice.size()));
    // Bounding by the staged slice (not the whole remaining stream)
    // caps the garbage a short slice's zero padding can decode into
    // before the grow-and-retry kicks in.
    GrowingByteSink sink(start_window, max_inflated_bytes(slice_len));
    ChunkResult res;
    const ChunkStatus status = inflate_chunk(
        ByteSpan(slice.data(), slice.size()), start_bit - 8 * base,
        (stop_byte - base) * 8, source_size - base, sink, scratch, res);
    if (status == ChunkStatus::kNeedMoreData) {
      slice_len = std::min(slice_len * 2, source_size - base);
      continue;  // terminates: a full slice can never report kNeedMoreData
    }
    ByteRun run;
    run.end_bit = 8 * base + res.end_bit;
    run.status = status;
    run.out = std::move(sink.bytes());
    run.members = std::move(res.members);
    return run;
  }
}

/// One participant's reusable buffers: a cell's speculative tokens live
/// here until the cell has patched and checksummed them.
struct CellWorker {
  InflateScratch scratch;
  Bytes slice;
  std::vector<std::uint16_t> tokens;  // speculative marker decode
  Bytes bytes;                        // byte decode (stream start, misses)
  MarkerPatchTable patch;
  Bytes strip;
};

/// A cell's speculative result: a boundary it found on its own and the
/// marker tokens decoded from it (held in the worker's `tokens`).
struct Speculation {
  bool ok = false;
  std::uint64_t found_bit = 0;  // absolute
  std::uint64_t end_bit = 0;    // absolute
  ChunkStatus status = ChunkStatus::kStopped;
  std::vector<MemberEvent> members;  // out_offsets are cell-relative
};

/// What cell i hands cell i + 1 along the chain: where the next decode
/// starts and the true 32 KiB window in front of it.
struct ChainLink {
  std::uint64_t bit = 0;
  std::uint64_t uncomp_pos = 0;
  bool eos = false;
  Bytes window;  // last kWindowSize output bytes, zero-prefilled
};

/// CRC32 (seed 0) of one run of a cell's output between member ends.
struct CrcSegment {
  std::uint32_t crc = 0;
  std::uint64_t len = 0;
};

/// One cell's contribution to the index, folded in stream order.
struct CellResult {
  std::uint64_t start_bit = 0;
  std::uint64_t end_bit = 0;
  std::uint64_t uncomp_size = 0;      // 0: no chunk here
  std::vector<MemberEvent> members;   // members ending in this cell
  std::vector<CrcSegment> segments;   // members.size() + 1 when verifying
  std::exception_ptr error;
};

/// Publication of chain links. Link 0 is ready up front; cell i
/// publishes link i + 1 exactly once — ready, or failed when cell i
/// threw or saw a failed link — so no waiter can be left hanging.
class Chain {
 public:
  explicit Chain(std::size_t cells) : state_(cells + 1, kPending) {
    state_[0] = kReady;
  }

  /// Blocks until link i is published. True if it is ready.
  bool wait(std::size_t i) EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    while (state_[i] == kPending) cv_.wait(mu_);
    return state_[i] == kReady;
  }

  /// Publishes link i; its contents must be written before the call.
  void publish(std::size_t i, bool ok) EXCLUDES(mu_) {
    {
      util::MutexLock lock(mu_);
      state_[i] = ok ? kReady : kFailed;
    }
    cv_.notify_all();
  }

 private:
  static constexpr std::uint8_t kPending = 0, kReady = 1, kFailed = 2;
  util::Mutex mu_;
  util::CondVar cv_;
  std::vector<std::uint8_t> state_ GUARDED_BY(mu_);
};

/// The window after `n` more output bytes: the last kWindowSize bytes
/// of old ‖ output, where fill(dst, from, len) writes output bytes
/// [from, from + len) to dst.
template <typename Fill>
void roll_window(const Bytes& old, std::size_t n, Bytes& window, const Fill& fill) {
  window.resize(kWindowSize);
  const std::size_t take = std::min(n, kWindowSize);
  const std::size_t keep = kWindowSize - take;
  std::copy(old.end() - static_cast<std::ptrdiff_t>(keep), old.end(), window.begin());
  fill(window.data() + keep, n - take, take);
}

/// The index as the fold assembles it.
struct FoldedIndex {
  std::vector<GzipChunk> chunks;
  Bytes windows;
  std::uint64_t total_uncompressed = 0;
  std::uint64_t num_members = 0;
};

/// The index build over the grid of cells. Cell i:
///   1. speculates on its own (parallel build only): finds a block
///      boundary in its grid cell and marker-decodes from it;
///   2. waits for link i, the true start bit and window;
///   3. keeps the speculation if it started at that bit, else decodes
///      the cell as bytes with the true window (a miss), then computes
///      and publishes link i + 1 from its last 32 KiB of output only;
///   4. off the chain, patches its tokens against the true window in
///      strips, checksumming each strip per member segment.
/// Only step 3 is serial, and it is O(32 KiB) on a speculation hit.
/// The trailer checks then fold the per-cell segments in stream order.
class Builder {
 public:
  Builder(serve::ByteSource& source, const GzipIndexOptions& options,
          std::uint64_t data_begin, std::size_t cells, bool speculate)
      : source_(source),
        size_(source.size()),
        data_begin_(data_begin),
        chunk_comp_(std::max<std::uint64_t>(options.chunk_size, 4096)),
        verify_(options.verify_members),
        speculate_(speculate),
        cells_(cells),
        links_(cells + 1),
        chain_(cells) {
    links_[0].bit = 8 * data_begin;
    links_[0].window.assign(kWindowSize, 0);
  }

  void run_cell(CellWorker& w, std::size_t i);

  /// Checks the trailers in stream order and fills `idx`. Rethrows the
  /// first failed cell's error at its place in the stream, so errors
  /// surface in the order the sequential build meets them.
  void fold(FoldedIndex& idx);

 private:
  std::uint64_t grid_byte(std::size_t i) const { return data_begin_ + i * chunk_comp_; }
  std::uint64_t next_grid_byte(std::size_t i) const {
    return std::min(size_, grid_byte(i) + chunk_comp_);
  }
  void speculate(CellWorker& w, std::size_t i, Speculation& sp);
  void checksum(CellWorker& w, bool tokens, CellResult& r);

  serve::ByteSource& source_;
  const std::uint64_t size_;
  const std::uint64_t data_begin_;
  const std::uint64_t chunk_comp_;
  const bool verify_;
  const bool speculate_;
  std::vector<CellResult> cells_;
  std::vector<ChainLink> links_;
  Chain chain_;
  std::atomic<bool> failed_{false};  // a hint to skip speculation
};

/// Finds a boundary in cell i's grid range and marker-decodes from it.
/// Boundary misses and false candidates leave sp.ok == false; the
/// chain then decodes the cell itself, so no speculative error is
/// final (a genuine one recurs there).
void Builder::speculate(CellWorker& w, std::size_t i, Speculation& sp) {
  const IngestObs& ob = ingest_obs();
  const std::uint64_t base = grid_byte(i);
  const std::uint64_t stop_rel_bit = (next_grid_byte(i) - base) * 8;
  std::uint64_t slice_len = std::min(next_grid_byte(i) - base + kSliceMargin, size_ - base);
  std::uint64_t scan_from = 0;
  BoundaryScanStats stats;
  const auto count_scan = [&] {
    ob.boundary_candidates.add(stats.candidates);
    ob.boundary_bits_scanned.add(stats.bits_scanned);
  };
  while (true) {
    w.slice.resize(static_cast<std::size_t>(slice_len));
    source_.read_at(base, MutableByteSpan(w.slice.data(), w.slice.size()));
    const ByteSpan span(w.slice.data(), w.slice.size());
    bool grow = false;
    while (!grow) {
      std::uint64_t cand;
      {
        obs::StageScope stage("scan", "ingest", ob.scan_us);
        cand = find_block_boundary(span, scan_from, stop_rel_bit, w.scratch, &stats);
      }
      if (cand == kNoBoundary) return count_scan();
      MarkerSink sink(w.tokens, max_inflated_bytes(slice_len));
      ChunkResult res;
      ChunkStatus status;
      try {
        obs::StageScope stage("marker_decode", "ingest", ob.marker_decode_us);
        status = inflate_chunk(span, cand, stop_rel_bit, size_ - base, sink,
                               w.scratch, res);
      } catch (const CorruptionError&) {
        scan_from = cand + 1;  // false positive: keep scanning
        continue;
      }
      if (status == ChunkStatus::kNeedMoreData) {
        if (slice_len >= size_ - base) {
          scan_from = cand + 1;  // defensive; a full slice cannot ask for more
          continue;
        }
        slice_len = std::min(slice_len * 2, size_ - base);
        scan_from = cand;  // the candidate itself is still plausible
        grow = true;
        continue;
      }
      sp.ok = true;
      sp.found_bit = 8 * base + cand;
      sp.end_bit = 8 * base + res.end_bit;
      sp.status = status;
      sp.members = std::move(res.members);
      return count_scan();
    }
  }
}

void Builder::run_cell(CellWorker& w, std::size_t i) {
  const IngestObs& ob = ingest_obs();
  CellResult& r = cells_[i];
  bool published = false;
  try {
    Speculation sp;
    if (speculate_ && i > 0 && !failed_.load(std::memory_order_relaxed)) {
      try {
        speculate(w, i, sp);
      } catch (const Error&) {
        sp.ok = false;  // e.g. an I/O error: the chain decodes this cell
      }
    }

    // Deadlock freedom: the pool's shared counter hands cells out in
    // increasing order and a participant runs one cell at a time, so
    // cell i - 1 is already running (or done) on some participant when
    // cell i waits for it; by induction down to cell 0, which never
    // waits, every wait ends. Inline runs go in order and never block.
    bool ready;
    {
      obs::StageScope stage("chain_wait", "ingest", ob.chain_wait_us);
      ready = chain_.wait(i);
    }
    if (!ready) {  // an earlier cell failed and holds the error
      chain_.publish(i + 1, false);
      return;
    }
    const ChainLink& in = links_[i];
    ChainLink& out = links_[i + 1];
    if (in.eos || in.bit >= 8 * next_grid_byte(i)) {
      out = in;  // past the end, or eaten by the predecessor's last block
      chain_.publish(i + 1, true);
      return;
    }

    r.start_bit = in.bit;
    ChunkStatus status;
    // A stream-start window is empty, not zeros: a marker there is a
    // reference before the stream, which only a byte decode reports.
    const bool hit = sp.ok && sp.found_bit == in.bit && in.uncomp_pos > 0;
    if (hit) {
      w.patch.set_window(ByteSpan(in.window.data(), in.window.size()));
      const std::size_t n = w.tokens.size();
      // Only the last 32 KiB of tokens are resolved on the chain.
      roll_window(in.window, n, out.window,
                  [&](std::uint8_t* dst, std::size_t from, std::size_t len) {
                    w.patch.patch(w.tokens.data() + from, len, dst);
                  });
      r.end_bit = sp.end_bit;
      r.uncomp_size = n;
      r.members = std::move(sp.members);
      status = sp.status;
    } else {
      if (speculate_ && i > 0) ob.chunk_fallbacks.inc();
      ByteRun run = decode_byte_run(
          source_, size_, in.bit, next_grid_byte(i),
          in.uncomp_pos == 0 ? ByteSpan() : ByteSpan(in.window.data(), in.window.size()),
          w.scratch);
      w.bytes = std::move(run.out);
      roll_window(in.window, w.bytes.size(), out.window,
                  [&](std::uint8_t* dst, std::size_t from, std::size_t len) {
                    std::copy_n(w.bytes.data() + from, len, dst);
                  });
      r.end_bit = run.end_bit;
      r.uncomp_size = w.bytes.size();
      r.members = std::move(run.members);
      status = run.status;
    }
    out.bit = r.end_bit;
    out.uncomp_pos = in.uncomp_pos + r.uncomp_size;
    out.eos = status == ChunkStatus::kEndOfStream;
    chain_.publish(i + 1, true);
    published = true;

    if (verify_) checksum(w, hit, r);
  } catch (...) {
    r.error = std::current_exception();
    failed_.store(true, std::memory_order_relaxed);
    if (!published) chain_.publish(i + 1, false);
  }
}

/// Seed-0 CRC32 of each run of the cell's output between member ends,
/// patching token output strip by strip so it is never held as bytes.
void Builder::checksum(CellWorker& w, bool tokens, CellResult& r) {
  const IngestObs& ob = ingest_obs();
  obs::StageScope stage("patch_crc", "ingest", ob.patch_crc_us);
  w.strip.resize(kPatchStrip);
  std::uint64_t markers = 0;
  const auto crc_range = [&](std::size_t from, std::size_t to) {
    std::uint32_t crc = 0;
    if (!tokens) return crc32(ByteSpan(w.bytes.data() + from, to - from));
    for (std::size_t k = from; k < to; k += kPatchStrip) {
      const std::size_t len = std::min(kPatchStrip, to - k);
      markers += w.patch.patch(w.tokens.data() + k, len, w.strip.data());
      crc = crc32(ByteSpan(w.strip.data(), len), crc);
    }
    return crc;
  };
  std::size_t prev = 0;
  for (const MemberEvent& ev : r.members) {
    const auto at = static_cast<std::size_t>(ev.out_offset);
    r.segments.push_back({crc_range(prev, at), at - prev});
    prev = at;
  }
  const auto end = static_cast<std::size_t>(r.uncomp_size);
  r.segments.push_back({crc_range(prev, end), end - prev});
  ob.markers_patched.add(markers);
}

void Builder::fold(FoldedIndex& idx) {
  const IngestObs& ob = ingest_obs();
  std::uint32_t member_crc = 0;
  std::uint64_t member_len = 0;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    CellResult& r = cells_[i];
    if (r.error) std::rethrow_exception(r.error);
    if (verify_) {
      for (std::size_t k = 0; k < r.segments.size(); ++k) {
        const CrcSegment& seg = r.segments[k];
        member_crc = crc32_combine(member_crc, seg.crc, seg.len);
        member_len += seg.len;
        if (k == r.members.size()) break;  // the open tail segment
        const MemberEvent& ev = r.members[k];
        check_corrupt(member_crc == ev.crc32, "gzip: member CRC32 mismatch");
        check_corrupt(static_cast<std::uint32_t>(member_len) == ev.isize,
                      "gzip: member ISIZE mismatch");
        member_crc = 0;
        member_len = 0;
      }
    }
    idx.num_members += r.members.size();
    if (r.uncomp_size == 0) continue;
    const ChainLink& in = links_[i];
    GzipChunk c;
    c.start_bit = r.start_bit;
    c.end_bit = r.end_bit;
    c.uncomp_offset = in.uncomp_pos;
    c.uncomp_size = r.uncomp_size;
    c.window_offset = idx.windows.size();
    if (in.uncomp_pos != 0) {
      c.window_bytes = static_cast<std::uint32_t>(kWindowSize);
      idx.windows.insert(idx.windows.end(), in.window.begin(), in.window.end());
    }
    idx.chunks.push_back(c);
    ob.chunks_indexed.inc();
    ob.bytes_indexed.add(r.uncomp_size);
  }
  const ChainLink& last = links_.back();
  check_corrupt(last.eos, "gzip: stream ended without a final member trailer");
  idx.total_uncompressed = last.uncomp_pos;
}

}  // namespace

GzipIndex GzipIndex::build(serve::ByteSource& source,
                           const GzipIndexOptions& options) {
  ingest_obs().index_builds.inc();
  const std::uint64_t S = source.size();
  serve::SourceReader reader(source);
  const GzipMemberHeader first = parse_member_header(reader);
  check_format(S >= first.header_bytes + kGzipTrailerBytes,
               "gzip: stream too short for a member");
  const std::uint64_t data_begin = first.header_bytes;

  const std::uint64_t chunk_comp = std::max<std::uint64_t>(options.chunk_size, 4096);
  const auto n = static_cast<std::size_t>(div_ceil(S - data_begin, chunk_comp));
  const std::size_t par = options.pool != nullptr ? options.pool->parallelism() : 1;
  const bool speculate = par > 1 && n > 1;

  Builder builder(source, options, data_begin, n, speculate);
  std::vector<CellWorker> workers(speculate ? par : 1);
  if (speculate) {
    options.pool->parallel_for_worker(n, [&](std::size_t worker, std::size_t i) {
      builder.run_cell(workers[worker], i);
    });
  } else {
    // Pure sequential: every cell is a byte decode with the window
    // always known — no markers, no scan, and such decodes are the norm
    // rather than a miss, so not counted as fallbacks.
    for (std::size_t i = 0; i < n; ++i) builder.run_cell(workers[0], i);
  }

  FoldedIndex folded;
  builder.fold(folded);
  GzipIndex idx;
  idx.source_size_ = S;
  idx.chunks_ = std::move(folded.chunks);
  idx.windows_ = std::move(folded.windows);
  idx.total_uncompressed_ = folded.total_uncompressed;
  idx.num_members_ = folded.num_members;
  return idx;
}

std::size_t GzipIndex::chunk_containing(std::uint64_t offset) const {
  check(offset < total_uncompressed_, "gzip: offset past end of stream");
  const auto it = std::upper_bound(
      chunks_.begin(), chunks_.end(), offset,
      [](std::uint64_t off, const GzipChunk& c) { return off < c.uncomp_offset; });
  return static_cast<std::size_t>(it - chunks_.begin()) - 1;
}

Bytes GzipIndex::serialize() const {
  Bytes out;
  put_u32le(out, kGzipIndexMagic);
  out.push_back(kGzipIndexVersion);
  put_varint(out, source_size_);
  put_varint(out, total_uncompressed_);
  put_varint(out, num_members_);
  put_varint(out, chunks_.size());
  for (const GzipChunk& c : chunks_) {
    put_varint(out, c.start_bit);
    put_varint(out, c.end_bit);
    put_varint(out, c.uncomp_offset);
    put_varint(out, c.uncomp_size);
    put_varint(out, c.window_bytes);
    const ByteSpan w(windows_.data() + c.window_offset, c.window_bytes);
    out.insert(out.end(), w.begin(), w.end());
  }
  return out;
}

GzipIndex GzipIndex::deserialize(ByteSpan sidecar) {
  util::SpanReader reader(sidecar);
  check_format(reader.read_u32le() == kGzipIndexMagic,
               "gzip: bad seek-index magic");
  check_format(reader.read_u8() == kGzipIndexVersion,
               "gzip: unsupported seek-index version");
  GzipIndex idx;
  idx.source_size_ = reader.read_varint();
  idx.total_uncompressed_ = reader.read_varint();
  idx.num_members_ = reader.read_varint();
  const std::uint64_t count = reader.read_varint();
  // A chunk costs >= 6 sidecar bytes, so an implausible count fails
  // fast instead of reserving unbounded memory.
  check_format(count <= sidecar.size(), "gzip: implausible chunk count");
  std::uint64_t expect_offset = 0;
  std::uint64_t prev_end_bit = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    GzipChunk c;
    c.start_bit = reader.read_varint();
    c.end_bit = reader.read_varint();
    c.uncomp_offset = reader.read_varint();
    c.uncomp_size = reader.read_varint();
    const std::uint64_t wbytes = reader.read_varint();
    check_format(c.start_bit >= prev_end_bit && c.start_bit < c.end_bit &&
                     c.end_bit <= 8 * idx.source_size_,
                 "gzip: seek-index chunk extents out of order");
    check_format(c.uncomp_offset == expect_offset && c.uncomp_size > 0,
                 "gzip: seek-index offsets not contiguous");
    // The writer's invariant: only the stream-start chunk has no
    // window, and every other window is exactly 32 KiB. decode_block
    // relies on this to resolve any in-window distance.
    check_format(wbytes == (c.uncomp_offset == 0 ? 0 : kWindowSize),
                 "gzip: seek-index window size invalid");
    c.window_bytes = static_cast<std::uint32_t>(wbytes);
    c.window_offset = idx.windows_.size();
    if (wbytes != 0) {
      idx.windows_.resize(idx.windows_.size() + static_cast<std::size_t>(wbytes));
      reader.read_exact(MutableByteSpan(
          idx.windows_.data() + c.window_offset, static_cast<std::size_t>(wbytes)));
    }
    expect_offset += c.uncomp_size;
    prev_end_bit = c.end_bit;
    idx.chunks_.push_back(c);
  }
  check_format(expect_offset == idx.total_uncompressed_,
               "gzip: seek-index total size mismatch");
  check_format(reader.at_end(), "gzip: trailing bytes in seek index");
  ingest_obs().sidecar_loads.inc();
  return idx;
}

void GzipIndex::save(const std::string& path) const {
  const Bytes data = serialize();
  std::ofstream out(path, std::ios::binary);
  check_io(out.good(), "gzip: cannot open sidecar for writing");
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  check_io(out.good(), "gzip: sidecar write failed");
}

GzipIndex GzipIndex::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  check_io(in.good(), "gzip: cannot open sidecar");
  const Bytes data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return deserialize(data);
}

}  // namespace gompresso::ingest
