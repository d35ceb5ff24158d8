#include "core/compressor.hpp"

#include <memory>
#include <mutex>

#include "core/bit_codec.hpp"
#include "core/byte_codec.hpp"
#include "core/tans_codec.hpp"
#include "lz77/deflate_tables.hpp"
#include "obs/trace.hpp"
#include "util/crc32.hpp"
#include "util/thread_pool.hpp"
#include "util/varint.hpp"

namespace gompresso {
namespace {

// Encode-plane metrics: the compressor's per-block breakdown is LZ77
// parse (matcher + DE constraint) vs. entropy emit.
struct CompressObs {
  obs::Counter blocks = obs::registry().counter("compress.blocks", "blocks");
  obs::Counter bytes = obs::registry().counter("compress.bytes", "bytes");
  obs::Histogram parse_us =
      obs::registry().histogram("compress.parse_us", "us");
  obs::Histogram emit_us = obs::registry().histogram("compress.emit_us", "us");
};

CompressObs& compress_obs() {
  static CompressObs instance;
  return instance;
}

}  // namespace

void CompressOptions::validate() const {
  check(block_size >= 1024, "options: block_size must be >= 1 KiB");
  check(block_size <= (1u << 30), "options: block_size must be <= 1 GiB");
  check(is_pow2(window_size), "options: window_size must be a power of two");
  check(window_size >= 256 && window_size <= lz77::kMaxDistance,
        "options: window_size out of [256, 32768]");
  check(min_match >= 3, "options: min_match must be >= 3");
  check(max_match >= min_match, "options: max_match < min_match");
  check(max_match <= lz77::kMaxMatch, "options: max_match must be <= 258");
  check(tokens_per_subblock >= 1 && tokens_per_subblock <= 4096,
        "options: tokens_per_subblock out of range");
  check(codeword_limit >= 9 && codeword_limit <= 15, "options: CWL out of [9, 15]");
  check(match_effort >= 1, "options: match_effort must be >= 1");
  if (codec == Codec::kByte || codec == Codec::kTans) {
    // Both use the 4-byte packed record domain.
    check(window_size <= core::kByteCodecMaxDistance,
          "options: byte/tans codec requires window_size <= 8192");
    check(max_match <= core::kByteCodecMaxMatch,
          "options: byte/tans codec requires max_match <= 65");
  }
  if (codec == Codec::kTans) {
    check(tans_table_log >= 9 && tans_table_log <= 14,
          "options: tans_table_log out of [9, 14]");
  }
}

Bytes compress(ByteSpan input, const CompressOptions& options, CompressStats* stats) {
  options.validate();

  format::FileHeader header;
  header.codec = options.codec;
  header.dependency_elimination = options.dependency_elimination;
  header.codeword_limit = options.codeword_limit;
  header.window_size = options.window_size;
  header.min_match = options.min_match;
  header.max_match = options.max_match;
  header.block_size = options.block_size;
  header.tokens_per_subblock = options.tokens_per_subblock;
  header.uncompressed_size = input.size();

  const std::size_t num_blocks = div_ceil<std::size_t>(input.size(), options.block_size);
  std::vector<Bytes> payloads(num_blocks);
  // ParseStats gathering is not free (with DE every literal position runs
  // a second, unconstrained matcher probe), so it only runs when asked.
  std::vector<lz77::ParseStats> parse_stats(stats != nullptr ? num_blocks : 0);

  lz77::ParserOptions parser_options;
  parser_options.matcher.window_size = options.window_size;
  parser_options.matcher.min_match = options.min_match;
  parser_options.matcher.max_match = options.max_match;
  parser_options.dependency_elimination = options.dependency_elimination;
  parser_options.group_size = simt::kWarpSize;
  parser_options.matcher.prefer_older_matches = options.prefer_older_matches;
  if (options.codec == Codec::kByte || options.codec == Codec::kTans) {
    parser_options.max_literal_run = core::kByteCodecMaxLiteralRun;
  }

  core::BitCodecConfig bit_config;
  bit_config.tokens_per_subblock = options.tokens_per_subblock;
  bit_config.codeword_limit = options.codeword_limit;
  core::TansCodecConfig tans_config;
  tans_config.tokens_per_subblock = options.tokens_per_subblock;
  tans_config.table_log = options.tans_table_log;

  // Scratch reservation is lazy (first block a worker actually pulls):
  // a wide pool compressing a short input must not pre-touch worst-case
  // buffers for participants that never run a block. The reserve bound
  // is clamped to the input size — no block can exceed it, and a small
  // input with a huge configured block_size must not commit gigabytes.
  const bool tans_scratch = options.codec == Codec::kTans;
  const bool bit_scratch = options.codec == Codec::kBit;
  const std::uint32_t reserve_block_size = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(options.block_size, input.size()));
  auto compress_one = [&](core::EncodeScratch& scratch, std::size_t b,
                          ThreadPool* lane_pool) {
    if (!scratch.reserved) {
      scratch.reserve(reserve_block_size, options.tokens_per_subblock, tans_scratch,
                      options.tans_table_log, bit_scratch);
      scratch.reserved = true;
    }
    const std::size_t begin = b * options.block_size;
    const std::size_t len = std::min<std::size_t>(options.block_size, input.size() - begin);
    const ByteSpan block = input.subspan(begin, len);
    // Blocks are compressed independently: the worker's matcher is reset
    // per block via its cheap generation bump (decisions identical to a
    // fresh matcher). Hash chains approximate the paper's exhaustive
    // parallel matching (§III-A); with DE, the chain's older entries also
    // supply the below-HWM candidates that §IV-B's staleness policy
    // preserves in the single-slot (LZ4) setting.
    const core::EncodeScratch::CapSnapshot caps = scratch.capacities();
    lz77::ChainMatcher& matcher =
        scratch.chain_matcher(parser_options.matcher, options.match_effort);
    {
      obs::StageScope stage("parse", "encode", compress_obs().parse_us);
      lz77::parse_block_into(block, parser_options, matcher, scratch.block,
                             stats != nullptr ? &parse_stats[b] : nullptr,
                             &scratch.de_constraint);
    }
    if (!(caps == scratch.capacities())) scratch.pending_growth = true;
    const Bytes* encoded_out = nullptr;
    {
      obs::StageScope stage("emit", "encode", compress_obs().emit_us);
      encoded_out =
          options.codec == Codec::kByte
              ? &core::encode_block_byte(scratch.block, scratch, lane_pool)
          : options.codec == Codec::kBit
              ? &core::encode_block_bit(scratch.block, bit_config, scratch,
                                        lane_pool)
              : &core::encode_block_tans(scratch.block, tans_config, scratch,
                                         lane_pool);
    }
    const Bytes& encoded = *encoded_out;
    compress_obs().blocks.add(1);
    compress_obs().bytes.add(block.size());
    Bytes& payload = payloads[b];
    if (options.allow_stored_blocks && encoded.size() >= block.size()) {
      // Stored block (DEFLATE's "stored" mode): incompressible blocks are
      // emitted verbatim, bounding expansion at the mode byte + CRC.
      payload.reserve(5 + block.size());
      put_u32le(payload, crc32(block));
      payload.push_back(kBlockModeStored);
      payload.insert(payload.end(), block.begin(), block.end());
    } else {
      payload.reserve(5 + encoded.size());
      put_u32le(payload, crc32(block));
      payload.push_back(kBlockModeCoded);
      payload.insert(payload.end(), encoded.begin(), encoded.end());
    }
  };

  // The block plan decompress() uses: whole-block pipelining across the
  // pool for multiple blocks, sub-block token-coding fan-out for a
  // single-block input, serial without a pool. Every worker owns one
  // pre-reserved EncodeScratch.
  const PoolPlan plan(options.num_threads);
  std::vector<core::EncodeScratch> workers;
  run_block_plan(plan.get(), num_blocks, workers, compress_one);

  header.block_compressed_sizes.reserve(num_blocks);
  std::size_t total_payload = 0;
  for (const auto& p : payloads) {
    header.block_compressed_sizes.push_back(p.size());
    total_payload += p.size();
  }

  Bytes out = header.serialize();
  out.reserve(out.size() + total_payload);
  for (const auto& p : payloads) out.insert(out.end(), p.begin(), p.end());

  if (stats) {
    stats->input_bytes = input.size();
    stats->output_bytes = out.size();
    stats->blocks = num_blocks;
    for (const auto& ps : parse_stats) {
      stats->parse.sequences += ps.sequences;
      stats->parse.match_bytes += ps.match_bytes;
      stats->parse.literal_bytes += ps.literal_bytes;
      stats->parse.matches_rejected_by_hwm += ps.matches_rejected_by_hwm;
    }
    for (const auto& w : workers) stats->scratch.merge(w.stats);
  }
  return out;
}

}  // namespace gompresso
