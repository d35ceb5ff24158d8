#include "core/stream.hpp"

#include <fstream>
#include <istream>
#include <memory>
#include <ostream>
#include <vector>

#include "core/block_decode.hpp"
#include "core/compressor.hpp"
#include "core/decompressor.hpp"
#include "core/open.hpp"
#include "format/sniff.hpp"
#include "ingest/gzip_format.hpp"
#include "ingest/inflate.hpp"
#include "serve/decode_session.hpp"
#include "util/byte_reader.hpp"
#include "util/varint.hpp"

namespace gompresso {
namespace {

void write_bytes(std::ostream& out, ByteSpan data) {
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  check(out.good(), "stream: write failed");
}

/// Decode path for seekable inputs: gompresso::open() sniffs the
/// container (GMPS, bare GMPZ, or gzip) and a DecodeSession over the
/// stream gives the pipelined-prefetch engine; memory stays bounded by
/// its window regardless of segment size (the old implementation
/// buffered whole segments).
std::uint64_t decompress_stream_session(std::istream& in, std::ostream& out,
                                        const DecompressOptions& options) {
  OpenOptions oopt;
  oopt.session.num_threads = options.num_threads;
  oopt.decode.verify_checksums = options.verify_checksums;
  oopt.decode.auto_strategy = options.auto_strategy;
  oopt.decode.strategy = options.strategy;

  const std::istream::pos_type base = in.tellg();
  std::unique_ptr<serve::DecodeSession> session =
      open(serve::istream_source(in), oopt);

  Bytes chunk(kStreamCopyChunk);
  std::uint64_t total = 0;
  while (true) {
    const std::size_t n = session->read(MutableByteSpan(chunk.data(), chunk.size()));
    if (n == 0) break;
    write_bytes(out, ByteSpan(chunk.data(), n));
    total += n;
  }
  // Leave the stream where sequential consumption would: just past the
  // terminator (the session's random-access reads scattered the cursor).
  in.clear();
  in.seekg(base + static_cast<std::streamoff>(session->compressed_end()));
  return total;
}

/// Sequential gzip decode for non-seekable inputs. The compressed bytes
/// are slurped (a pipe cannot be rewound, and the chunk driver's retry
/// protocol would re-emit already-flushed output), but the OUTPUT
/// streams through a flushing sink that retains only the 32 KiB
/// reference window — so memory is O(compressed), never
/// O(uncompressed). Trailer CRC/ISIZE verification happens on the
/// indexed (seekable) path; here structural damage still fails decode.
std::uint64_t decompress_gzip_sequential(std::istream& in, ByteSpan prefix,
                                         std::ostream& out) {
  // Slurp the rest of the pipe. The byte-exact reader that sniffed the
  // prefix holds no lookahead (its 4-byte read bypassed the window), so
  // the stream cursor sits right after the prefix.
  Bytes data(prefix.begin(), prefix.end());
  while (in.good()) {
    const std::size_t old = data.size();
    data.resize(old + kStreamCopyChunk);
    in.read(reinterpret_cast<char*>(data.data() + old),
            static_cast<std::streamsize>(kStreamCopyChunk));
    data.resize(old + static_cast<std::size_t>(in.gcount()));
  }
  check_io(in.eof(), "stream: read failed");

  // Strict cold-open header parse first: a malformed leading header is
  // a FormatError ("this is not gzip"), unlike mid-stream damage.
  util::SpanReader hdr_reader(ByteSpan(data.data(), data.size()));
  ingest::parse_member_header(hdr_reader);

  ingest::GrowingByteSink sink(ByteSpan(),
                               ingest::max_inflated_bytes(data.size()));
  sink.enable_flush(
      [](void* ctx, ByteSpan flushed) {
        write_bytes(*static_cast<std::ostream*>(ctx), flushed);
      },
      &out, kStreamCopyChunk);
  ingest::InflateScratch scratch;
  ingest::ChunkResult result;
  const ingest::ChunkStatus status = ingest::inflate_chunk(
      ByteSpan(data.data(), data.size()), 8 * hdr_reader.offset(),
      /*stop_bit=*/8 * data.size(), /*stream_end_byte=*/data.size(), sink,
      scratch, result);
  check_corrupt(status == ingest::ChunkStatus::kEndOfStream,
                "gzip: compressed stream truncated");
  const std::uint64_t total = sink.produced();
  sink.finish();
  return total;
}

/// Decode path for non-seekable inputs (pipes): one segment header at a
/// time through the buffered reader, then batches of blocks decoded in
/// parallel through the same decode_block_at() the sessions use. Memory
/// is one pool-sized batch of compressed + decoded blocks — the same
/// O(parallelism x block) shape as a session window, never a whole
/// segment.
std::uint64_t decompress_stream_sequential(std::istream& in, std::ostream& out,
                                           const DecompressOptions& options) {
  // buffer_size 1: a pipe cannot seek back, so the reader must consume
  // byte-exactly — anything after the terminator belongs to the caller
  // (e.g. a second concatenated stream). Framing varints and headers are
  // a few hundred bytes per 64 MiB segment; the block payloads, which
  // are the volume, go through read_exact's direct bulk path.
  util::IstreamReader reader(in, /*buffer_size=*/1);

  // Same thread plan as decompress(): a pipe narrows the *input* to one
  // cursor, not the decode itself.
  const PoolPlan plan(options.num_threads);
  ThreadPool* const pool = plan.get();
  const std::size_t batch = pool != nullptr ? pool->parallelism() : 1;

  std::vector<core::BlockDecodeContext> ctxs(batch);
  std::vector<Bytes> comp(batch);
  std::vector<Bytes> decoded(batch);
  std::uint64_t total = 0;
  const auto decode_blocks = [&](const format::FileHeader& header) {
    // A pipe has no payload length to validate the header's sizes
    // against (the seekable path bounds them by the real file size), and
    // the decode buffer is allocated before any payload arrives — so cap
    // the block size absolutely; 1 GiB is far beyond any plausible
    // configuration (the CLI caps --block at the same bound).
    check(header.block_size <= (1u << 30), "stream: implausible block size");
    const Strategy strategy = core::resolve_strategy(options, header);
    for (std::size_t b = 0; b < header.num_blocks(); b += batch) {
      const std::size_t n = std::min(batch, header.num_blocks() - b);
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t comp_size = header.block_compressed_sizes[b + i];
        const std::uint64_t uncomp_len = std::min<std::uint64_t>(
            header.block_size, header.uncompressed_size -
                                   static_cast<std::uint64_t>(b + i) * header.block_size);
        // Bound each block's compressed size by what any codec here
        // could plausibly emit — the worst case is well under 16x even
        // with degenerate sub-block settings — so a crafted huge size
        // fails with a clean Error, not std::length_error.
        check(comp_size <= 16 * uncomp_len + 65536,
              "stream: implausible compressed block size");
        // Grow the staging buffer while reading rather than trusting
        // comp_size up front: allocation never outruns bytes actually
        // received, so a lying size fails at EOF ("truncated input")
        // with memory proportional to what was sent, not claimed.
        comp[i].clear();
        std::uint64_t filled = 0;
        while (filled < comp_size) {
          const std::size_t step = static_cast<std::size_t>(
              std::min<std::uint64_t>(comp_size - filled, 16u << 20));
          comp[i].resize(static_cast<std::size_t>(filled) + step);
          reader.read_exact(MutableByteSpan(comp[i].data() + filled, step));
          filled += step;
        }
        decoded[i].resize(static_cast<std::size_t>(uncomp_len));
      }
      const auto decode_one = [&](std::size_t worker, std::size_t i) {
        core::decode_block_at(header, comp[i],
                              MutableByteSpan(decoded[i].data(), decoded[i].size()),
                              strategy, options.verify_checksums, ctxs[worker]);
      };
      if (n == 1 || pool == nullptr) {
        for (std::size_t i = 0; i < n; ++i) decode_one(0, i);
      } else {
        pool->parallel_for_worker(n, decode_one);
      }
      for (std::size_t i = 0; i < n; ++i) {
        write_bytes(out, decoded[i]);
        total += decoded[i].size();
      }
    }
  };

  // One shared classifier decides the container — the same
  // format::sniff_container() the session open path uses, so a format
  // readable when seekable is readable on a pipe too.
  std::uint8_t prefix[format::kSniffBytes];
  reader.read_exact(MutableByteSpan(prefix, sizeof prefix));
  switch (format::sniff_container(ByteSpan(prefix, sizeof prefix))) {
    case format::ContainerKind::kGmpz: {
      // A bare GMPZ container (accepted on either path): no framing, so
      // there is no payload size to validate against — the size list
      // alone delimits the blocks, and consumption stops exactly after
      // the last. The block-count invariant still must hold, or a
      // corrupt header claiming fewer blocks silently truncates the
      // output.
      const format::FileHeader header =
          format::FileHeader::deserialize_body(reader);
      header.check_block_count();
      decode_blocks(header);
      return total;
    }
    case format::ContainerKind::kGzip:
      return decompress_gzip_sequential(in, ByteSpan(prefix, sizeof prefix),
                                        out);
    case format::ContainerKind::kGmps:
      break;  // segment loop below
    case format::ContainerKind::kUnknown:
      throw FormatError("stream: bad magic");
  }
  while (true) {
    const std::uint64_t segment_size = reader.read_varint();
    if (segment_size == 0) break;  // terminator
    check(segment_size <= (1ull << 40), "stream: implausible segment size");
    const std::uint64_t segment_begin = reader.offset();
    const format::FileHeader header = format::FileHeader::deserialize(reader);
    const std::uint64_t header_bytes = reader.offset() - segment_begin;
    check(header_bytes <= segment_size, "stream: segment smaller than its header");
    header.check_payload(segment_size - header_bytes);
    decode_blocks(header);
  }
  return total;
}

}  // namespace

std::uint64_t compress_stream(std::istream& in, std::ostream& out,
                              const CompressOptions& options,
                              std::size_t chunk_size) {
  check(chunk_size >= options.block_size, "stream: chunk smaller than a block");
  Bytes magic;
  put_u32le(magic, kStreamMagic);
  write_bytes(out, magic);

  std::uint64_t total = 0;
  Bytes chunk(chunk_size);
  while (in.good()) {
    in.read(reinterpret_cast<char*>(chunk.data()),
            static_cast<std::streamsize>(chunk.size()));
    const std::size_t got = static_cast<std::size_t>(in.gcount());
    if (got == 0) break;
    total += got;
    const Bytes segment = compress(ByteSpan(chunk.data(), got), options);
    Bytes framing;
    put_varint(framing, segment.size());
    write_bytes(out, framing);
    write_bytes(out, segment);
  }
  check(in.eof() || in.good(), "stream: read failed");
  out.put(0);  // zero-length terminator
  check(out.good(), "stream: write failed");
  return total;
}

std::uint64_t decompress_stream(std::istream& in, std::ostream& out,
                                const DecompressOptions& options) {
  const bool seekable = in.tellg() != std::istream::pos_type(-1);
  if (!seekable) in.clear();  // a failed tellg may latch failbit
  return seekable ? decompress_stream_session(in, out, options)
                  : decompress_stream_sequential(in, out, options);
}

std::uint64_t compress_file(const std::string& input_path,
                            const std::string& output_path,
                            const CompressOptions& options, std::size_t chunk_size) {
  std::ifstream in(input_path, std::ios::binary);
  check(in.good(), "stream: cannot open input file");
  std::ofstream out(output_path, std::ios::binary);
  check(out.good(), "stream: cannot open output file");
  return compress_stream(in, out, options, chunk_size);
}

std::uint64_t decompress_file(const std::string& input_path,
                              const std::string& output_path,
                              const DecompressOptions& options) {
  std::ifstream in(input_path, std::ios::binary);
  check(in.good(), "stream: cannot open input file");
  std::ofstream out(output_path, std::ios::binary);
  check(out.good(), "stream: cannot open output file");
  return decompress_stream(in, out, options);
}

}  // namespace gompresso
