// ContainerBackend: the format seam between ByteSource and DecodeSession.
//
// A DecodeSession used to be hard-wired to the native container: its
// seek map was a SeekIndex over format::FileHeader segments and its
// decode task called core::decode_block_at directly. The backend
// abstraction splits that into two halves:
//
//   * the session keeps everything format-agnostic — scheduling,
//     prefetch window, LRU cache, retry/backoff, health/damage
//     tracking, stats — and
//   * the backend answers the two format questions: "how do
//     uncompressed offsets map to compressed extents?" (block table)
//     and "decode block b from this source into this buffer".
//
// Implementations:
//   * make_gmpz_backend() — the native GMPZ/GMPS path (SeekIndex +
//     fused-table block decode), moved here from the session.
//   * ingest::make_gzip_backend() — rapidgzip-style parallel decode of
//     arbitrary RFC 1952 gzip (src/ingest/gzip_backend.hpp).
// gompresso::open_backend() (core/open.hpp) sniffs a source and picks
// one, passing OpenOptions::decode as the BackendDecodeOptions; that is
// the only place the checksum and strategy knobs are read.
//
// Backends are immutable after construction and decode_block() must be
// callable from many pool workers concurrently, so one shared_ptr
// backend can serve every per-connection session of the net daemon —
// the expensive part (index build / boundary scan) happens once.
#pragma once

#include <cstddef>
#include <memory>

#include "core/options.hpp"
#include "serve/byte_source.hpp"
#include "serve/seek_index.hpp"
#include "util/buffer_pool.hpp"
#include "util/common.hpp"

namespace gompresso::serve {

/// One decodable unit in backend-neutral terms: the uncompressed range
/// it covers and the compressed byte extent a decode will touch (for
/// gzip the extent is rounded outward to byte boundaries from bit
/// offsets).
struct BackendBlock {
  std::uint64_t uncomp_offset = 0;
  std::uint64_t uncomp_size = 0;
  std::uint64_t comp_offset = 0;
  std::uint64_t comp_size = 0;
};

/// Decode-time knobs a backend captures at construction (immutable, so
/// sharing a backend across sessions cannot race a reconfiguration).
struct BackendDecodeOptions {
  bool verify_checksums = true;
  /// Strategy selection for the native codec path, as in
  /// DecompressOptions (ignored by foreign-format backends).
  bool auto_strategy = true;
  Strategy strategy = Strategy::kMultiRound;
};

class ContainerBackend {
 public:
  virtual ~ContainerBackend() = default;

  /// Diagnostic name ("gmpz", "gzip", ...).
  virtual const char* kind_name() const = 0;

  /// Total uncompressed payload across all blocks.
  virtual std::uint64_t total_uncompressed() const = 0;

  /// Size of the ByteSource this backend's block table was built from;
  /// the session validates it against the source it is given.
  virtual std::uint64_t source_size() const = 0;

  /// One past the last compressed byte the container occupies (for
  /// framed streams this is where trailing data would begin).
  virtual std::uint64_t compressed_end() const = 0;

  virtual std::size_t num_blocks() const = 0;
  virtual BackendBlock block(std::size_t b) const = 0;

  /// Index of the block containing uncompressed offset `offset`
  /// (precondition: offset < total_uncompressed()).
  virtual std::size_t block_containing(std::uint64_t offset) const = 0;

  /// Decodes block `b` from `source` into `out` (whose size must equal
  /// block(b).uncomp_size). Staging memory is drawn from `buffers` so
  /// the session's memory-bound witness sees every byte. Must be safe
  /// to call from many threads concurrently; errors follow the typed
  /// taxonomy (IoError = transient and retryable, CorruptionError /
  /// FormatError = permanent).
  virtual void decode_block(std::size_t b, ByteSource& source,
                            util::BufferPool& buffers, MutableByteSpan out) = 0;

  /// The native SeekIndex behind this backend, when there is one
  /// (sidecar save, GMPS framing introspection). Foreign-format
  /// backends return nullptr.
  virtual const SeekIndex* seek_index() const { return nullptr; }
};

/// The native GMPZ/GMPS backend: SeekIndex block table + fused-table
/// block decode with per-segment strategy resolution (throws on an
/// explicit strategy no segment supports, exactly as the session's old
/// constructor did).
std::shared_ptr<ContainerBackend> make_gmpz_backend(
    SeekIndex index, const BackendDecodeOptions& options = {});

}  // namespace gompresso::serve
