#include "core/decompressor.hpp"

#include "core/block_decode.hpp"
#include "util/thread_pool.hpp"
#include "util/varint.hpp"

namespace gompresso {

DecompressResult decompress(ByteSpan file, const DecompressOptions& options) {
  std::size_t pos = 0;
  const format::FileHeader header = format::FileHeader::deserialize(file, pos);
  // Catch a truncated or corrupt-length file with one clear error before
  // any block decode can trip over it.
  header.check_payload(file.size() - pos);

  const Strategy strategy = core::resolve_strategy(options, header);

  // Locate every block payload from the size list (inter-block
  // parallelism needs no scanning, Fig. 3).
  const std::size_t num_blocks = header.num_blocks();
  std::vector<std::size_t> offsets(num_blocks + 1);
  offsets[0] = pos;
  for (std::size_t b = 0; b < num_blocks; ++b) {
    offsets[b + 1] = offsets[b] + static_cast<std::size_t>(header.block_compressed_sizes[b]);
  }

  DecompressResult result;
  result.strategy_used = strategy;
  result.data.resize(static_cast<std::size_t>(header.uncompressed_size));

  auto decompress_one = [&](core::BlockDecodeContext& ctx, std::size_t b,
                            ThreadPool* lane_pool) {
    const ByteSpan payload_with_crc =
        file.subspan(offsets[b], offsets[b + 1] - offsets[b]);
    const std::size_t out_begin = b * header.block_size;
    const std::size_t out_len = std::min<std::size_t>(
        header.block_size, result.data.size() - out_begin);
    core::decode_block_at(header, payload_with_crc,
                          MutableByteSpan(result.data.data() + out_begin, out_len),
                          strategy, options.verify_checksums, ctx, lane_pool);
  };

  // Thread and block plan: see the header comment.
  const PoolPlan plan(options.num_threads);
  std::vector<core::BlockDecodeContext> workers;
  run_block_plan(plan.get(), num_blocks, workers, decompress_one);

  for (const core::BlockDecodeContext& ctx : workers) {
    result.metrics.merge(ctx.metrics);
    result.multipass.merge(ctx.multipass);
    result.scratch.merge(ctx.scratch.stats);
  }
  return result;
}

}  // namespace gompresso
