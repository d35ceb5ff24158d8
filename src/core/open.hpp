// gompresso::open(): format-agnostic session opening.
//
// One call sniffs the container magic (format/sniff.hpp), builds or
// loads the matching ContainerBackend, and returns a ready
// DecodeSession — so every consumer (gomp cat/range/serve/verify, the
// net daemon, decompress_stream's seekable path) gets prefetch, LRU
// caching, retry/backoff, damage-tolerant reads, and serve.* metrics
// regardless of whether the bytes are GMPZ, GMPS, or gzip.
//
// Backend map (who handles what):
//
//   magic                 backend                     seek table
//   ------------------    ------------------------   -------------------------
//   GMPZ / GMPS           serve::make_gmpz_backend    serve::SeekIndex (header
//                                                     scan, "GMPX" sidecar)
//   1F 8B 08 (gzip)       ingest::make_gzip_backend   ingest::GzipIndex
//                                                     (discovered by parallel
//                                                     speculative decode,
//                                                     "GZIX" sidecar)
//
// OpenOptions::sidecar_path points at a checkpointed seek table of
// either flavor; the sidecar's own magic picks the loader, and a
// sidecar of the wrong flavor for the sniffed container is a
// FormatError. With a valid sidecar, open() does no data scan at all —
// reopen cost is proportional to the sidecar, not the stream.
//
// This is the only way in. A caller that must build the block table
// from a different source than the session reads (a clean scan under a
// fault-injected data plane, one backend shared by many sessions) calls
// open_backend() itself and hands the result to the
// DecodeSession(source, backend, options) constructor. The decode knobs
// live in OpenOptions::decode because the backend, not the session,
// reads them.
#pragma once

#include <memory>
#include <string>

#include "format/sniff.hpp"
#include "ingest/gzip_index.hpp"
#include "serve/backend.hpp"
#include "serve/decode_session.hpp"

namespace gompresso {

struct OpenOptions {
  /// Session tuning, passed through to the DecodeSession. Its thread
  /// plan (`pool`, else `num_threads`) also runs the gzip index build
  /// unless `gzip.pool` is set.
  serve::SessionOptions session;
  /// Decode knobs (checksum verification, strategy) captured by the
  /// backend open_backend() builds — the only place they are read.
  serve::BackendDecodeOptions decode;
  /// Optional checkpointed seek table ("GMPX" or "GZIX"); empty = scan
  /// the source. A missing file is an error — callers that treat the
  /// sidecar as a cache should stat it first (as `gomp` does).
  std::string sidecar_path;
  /// Gzip index-build tuning; `gzip.pool` overrides the session's
  /// thread plan for the build.
  ingest::GzipIndexOptions gzip;
};

/// Reads the first format::kSniffBytes of `source` (fewer for a shorter
/// source) and classifies the container by its magic.
format::ContainerKind sniff_source(serve::ByteSource& source);

/// Sniffs `source` and returns the matching backend (shared, so the
/// net daemon can hand one backend to many sessions). Throws
/// FormatError for an unrecognized container.
std::shared_ptr<serve::ContainerBackend> open_backend(
    serve::ByteSource& source, const OpenOptions& options = {});

/// Opens a ready session over `source` (takes ownership).
std::unique_ptr<serve::DecodeSession> open(
    std::unique_ptr<serve::ByteSource> source, const OpenOptions& options = {});

/// Opens a ready session over a file path (pread-backed source).
std::unique_ptr<serve::DecodeSession> open(const std::string& path,
                                           const OpenOptions& options = {});

}  // namespace gompresso
