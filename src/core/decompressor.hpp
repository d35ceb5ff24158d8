// The Gompresso decompressor: inter-block parallelism across worker
// threads, intra-block parallelism via the warp engine (§III-B).
//
// Thread plan (run_block_plan in util/thread_pool.hpp, shared with
// compress()): with more than one block, workers pull whole blocks from
// the common queue (the paper's inter-block parallelism). A single-block
// file cannot use that at all, so both of its decode phases are fanned
// out across the pool instead: token decode by sub-block lane (the
// paper's warp lanes, executed as real threads) and LZ77 resolution by
// warp-group shard with a completed-watermark handoff
// (core/resolve_parallel.hpp). Every worker owns a DecodeScratch
// arena and private metric accumulators, merged once at the end — the
// steady-state block loop takes no locks and performs no heap
// allocations.
#pragma once

#include "core/decode_scratch.hpp"
#include "core/mrr_multipass.hpp"
#include "core/options.hpp"
#include "simt/warp.hpp"
#include "util/common.hpp"

namespace gompresso {

/// Result of a decompression run: the data plus the warp execution
/// metrics used by the Fig. 9 benchmarks.
struct DecompressResult {
  Bytes data;
  Strategy strategy_used = Strategy::kMultiRound;
  simt::WarpMetrics metrics;
  core::MultiPassStats multipass;  // populated only for kMultiPass
  /// Decode-arena reuse counters (all codecs). In the steady state every
  /// block is a buffer_reuse (arenas are pre-reserved from the header
  /// bound); scratch.lane_fanouts counts blocks whose sub-block lanes
  /// were decoded thread-parallel and scratch.resolve_fanouts blocks
  /// whose LZ77 resolution ran sharded (both intra-block paths taken for
  /// a single-block file on a multi-thread pool). resolve_deferrals
  /// counts back-references that crossed a shard boundary and resolved
  /// in a phase-B watermark sweep.
  core::ScratchStats scratch;
};

/// Decompresses a Gompresso file produced by gompresso::compress().
///
/// Strategy selection: with `options.auto_strategy` (default) DE files
/// use the single-round dependency-free resolver and non-DE files use
/// MRR. An explicit kDependencyFree request on a non-DE file throws,
/// since such streams may contain intra-warp dependencies.
DecompressResult decompress(ByteSpan file, const DecompressOptions& options = {});

/// Convenience: decompress and return only the bytes.
inline Bytes decompress_bytes(ByteSpan file, const DecompressOptions& options = {}) {
  return decompress(file, options).data;
}

}  // namespace gompresso
