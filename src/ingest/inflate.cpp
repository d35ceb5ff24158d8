#include "ingest/inflate.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <utility>

#include "core/decode_tables.hpp"
#include "huffman/decoder.hpp"
#include "ingest/gzip_format.hpp"
#include "lz77/deflate_tables.hpp"

namespace gompresso::ingest {
namespace {

// Packed fused-entry transforms (core/decode_tables.hpp layout). The
// RFC-impossible symbols — lit/len 286/287, distance 30/31, present in
// the fixed code's length list — map to 0, i.e. table holes, so using
// one surfaces as an invalid codeword instead of a bogus match.
std::uint32_t litlen_entry(std::uint16_t sym, unsigned len) {
  if (sym < 256) return core::pack_fused(core::kFusedLiteral, sym, 0, len);
  if (sym == 256) return core::pack_fused(core::kFusedEnd, 0, 0, len);
  if (sym >= 286) return 0;
  const std::uint32_t code = sym - 257u;
  return core::pack_fused(core::kFusedMatch, lz77::length_base(code),
                          lz77::length_extra_bits(code), len);
}

std::uint32_t dist_entry(std::uint16_t sym, unsigned len) {
  if (sym >= lz77::kNumDistanceCodes) return 0;
  return core::pack_fused(0, lz77::distance_base(sym),
                          lz77::distance_extra_bits(sym), len);
}

/// Converts literal entries whose peek window also fully determines a
/// following literal into double-literal entries (one load, two
/// bytes). Safe in place: only kFusedLiteral entries are read as
/// second halves, and a converted entry no longer matches that kind —
/// a missed pairing is merely conservative.
void upgrade_double_literals(std::vector<std::uint32_t>& table, unsigned table_bits) {
  for (std::size_t i = 0; i < table.size(); ++i) {
    const std::uint32_t e = table[i];
    if (e == 0 || core::fused_kind(e) != core::kFusedLiteral) continue;
    const unsigned l1 = core::fused_code_length(e);
    if (l1 >= table_bits) continue;
    const std::uint32_t e2 = table[i >> l1];
    if (e2 == 0 || core::fused_kind(e2) != core::kFusedLiteral) continue;
    const unsigned l2 = core::fused_code_length(e2);
    // The second code must lie entirely within the known peeked bits.
    if (l1 + l2 > table_bits) continue;
    table[i] = core::pack_fused(
        core::kFusedDoubleLiteral,
        core::fused_value(e) | (core::fused_value(e2) << 8), 0, l1 + l2);
  }
}

unsigned max_length(const std::vector<std::uint8_t>& lengths) {
  unsigned m = 0;
  for (const auto l : lengths) m = std::max<unsigned>(m, l);
  return m;
}

/// zlib-style Kraft audit: -1 over-subscribed, 0 exactly complete,
/// +1 incomplete (an all-zero length set reads as incomplete).
int code_status(const std::vector<std::uint8_t>& lengths) {
  std::int64_t counts[16] = {};
  for (const auto l : lengths) ++counts[l];
  std::int64_t left = 1;
  for (unsigned len = 1; len <= 15; ++len) {
    left <<= 1;
    left -= counts[len];
    if (left < 0) return -1;
  }
  return left > 0 ? 1 : 0;
}

bool all_zero(const std::vector<std::uint8_t>& lengths) {
  return std::all_of(lengths.begin(), lengths.end(),
                     [](std::uint8_t l) { return l == 0; });
}

/// Fused-table token loop shared by all sinks. One refill() per token:
/// lit/len code (<= 15) + length extra (<= 5) + distance code (<= 15)
/// + distance extra (<= 13) = 48 <= kGuaranteedBits. A reader that ran
/// past its data ends the block early; the caller's overflow check
/// then reports truncation (or grows a partial slice) at once, instead
/// of after the zero padding has decoded up to the expansion bound.
template <typename Sink>
void decode_block(BitReader& br, const InflateTables& t, Sink& sink) {
  const std::uint32_t* lit = t.litlen.data();
  const std::uint32_t* dst = t.dist.data();
  const unsigned lbits = t.litlen_bits;
  const unsigned dbits = t.dist_bits;
  while (true) {
    if (br.overflowed()) [[unlikely]] return;
    br.refill();
    const std::uint32_t e = lit[br.peek_unchecked(lbits)];
    check_corrupt(e != 0, "gzip: invalid lit/len codeword");
    br.consume_unchecked(core::fused_code_length(e));
    const std::uint32_t kind = core::fused_kind(e);
    if (kind == core::kFusedLiteral) {
      sink.push(static_cast<std::uint8_t>(core::fused_value(e)));
      continue;
    }
    if (kind == core::kFusedDoubleLiteral) {
      const std::uint32_t v = core::fused_value(e);
      sink.push(static_cast<std::uint8_t>(v & 0xFF));
      sink.push(static_cast<std::uint8_t>(v >> 8));
      continue;
    }
    if (kind == core::kFusedEnd) return;
    const std::uint32_t length =
        core::fused_value(e) + br.read_unchecked(core::fused_extra_bits(e));
    const std::uint32_t de = dst[br.peek_unchecked(dbits)];
    check_corrupt(de != 0, "gzip: invalid distance codeword");
    br.consume_unchecked(core::fused_code_length(de));
    const std::uint32_t distance =
        core::fused_value(de) + br.read_unchecked(core::fused_extra_bits(de));
    sink.copy(length, distance);
  }
}

void align_to_byte(BitReader& br) {
  const unsigned pad = static_cast<unsigned>(br.bit_pos() & 7);
  if (pad != 0) br.consume(8 - pad);
}

}  // namespace

const InflateTables& InflateScratch::fixed() {
  if (!fixed_built_) {
    // RFC 1951 §3.2.6. Both codes are complete by construction, so the
    // builds below cannot throw.
    std::vector<std::uint8_t> ll(288);
    for (unsigned s = 0; s < 144; ++s) ll[s] = 8;
    for (unsigned s = 144; s < 256; ++s) ll[s] = 9;
    for (unsigned s = 256; s < 280; ++s) ll[s] = 7;
    for (unsigned s = 280; s < 288; ++s) ll[s] = 8;
    huffman::build_packed_table(ll, 9, fixed_.litlen, litlen_entry);
    upgrade_double_literals(fixed_.litlen, 9);
    fixed_.litlen_bits = 9;
    std::vector<std::uint8_t> dl(32, 5);
    huffman::build_packed_table(dl, 5, fixed_.dist, dist_entry);
    fixed_.dist_bits = 5;
    fixed_built_ = true;
  }
  return fixed_;
}

bool parse_dynamic_header(BitReader& br, InflateScratch& s, bool require_complete) {
  const unsigned hlit = br.read(5) + 257;
  const unsigned hdist = br.read(5) + 1;
  const unsigned hclen = br.read(4) + 4;
  if (hlit > 286 || hdist > 30) return false;

  static constexpr std::uint8_t kPrecodeOrder[19] = {
      16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15};
  s.precode_lengths.assign(19, 0);
  for (unsigned i = 0; i < hclen; ++i) {
    s.precode_lengths[kPrecodeOrder[i]] = static_cast<std::uint8_t>(br.read(3));
  }
  // The precode must be exactly complete (zlib rejects anything else,
  // so no valid stream has an incomplete one) — which also means the
  // table built from it has no holes.
  if (code_status(s.precode_lengths) != 0) return false;
  const unsigned pre_bits = max_length(s.precode_lengths);
  huffman::build_packed_table(
      s.precode_lengths, pre_bits, s.precode_table,
      [](std::uint16_t sym, unsigned len) {
        return core::pack_fused(0, sym, 0, len);
      });

  s.litlen_lengths.assign(hlit, 0);
  s.dist_lengths.assign(hdist, 0);
  const unsigned total = hlit + hdist;
  // Running Kraft sums (units of 2^-15) of the two codes: a code that is
  // already over-subscribed can stop the parse at once, which is where
  // nearly every false boundary candidate fails.
  std::uint32_t kraft[2] = {0, 0};
  const auto set_len = [&](unsigned i, std::uint8_t v) {
    const std::uint32_t weight = v == 0 ? 0u : 1u << (15 - v);
    if (i < hlit) {
      s.litlen_lengths[i] = v;
      kraft[0] += weight;
    } else {
      s.dist_lengths[i - hlit] = v;
      kraft[1] += weight;
    }
  };
  const auto over_subscribed = [&] { return kraft[0] > 32768 || kraft[1] > 32768; };
  unsigned i = 0;
  while (i < total) {
    br.refill();  // code (<= 7) + repeat extra (<= 7) per iteration
    const std::uint32_t e = s.precode_table[br.peek_unchecked(pre_bits)];
    if (e == 0) return false;
    br.consume_unchecked(core::fused_code_length(e));
    const std::uint32_t sym = core::fused_value(e);
    if (sym < 16) {
      set_len(i++, static_cast<std::uint8_t>(sym));
      if (over_subscribed()) return false;
      continue;
    }
    unsigned repeat;
    std::uint8_t value = 0;
    if (sym == 16) {
      if (i == 0) return false;  // nothing to repeat
      value = i - 1 < hlit ? s.litlen_lengths[i - 1] : s.dist_lengths[i - 1 - hlit];
      repeat = 3 + br.read_unchecked(2);
    } else if (sym == 17) {
      repeat = 3 + br.read_unchecked(3);
    } else {
      repeat = 11 + br.read_unchecked(7);
    }
    if (i + repeat > total) return false;
    for (unsigned k = 0; k < repeat; ++k) set_len(i++, value);
    if (over_subscribed()) return false;
  }

  // An over-subscribed code is invalid in any mode; holes from an
  // incomplete code are tolerated in decode mode (they error on use).
  const int lit_status = code_status(s.litlen_lengths);
  const int dist_status = code_status(s.dist_lengths);
  if (lit_status < 0 || dist_status < 0) return false;
  if (require_complete) {
    // Real encoders emit an exactly complete lit/len code containing
    // end-of-block, and a complete (or entirely absent) distance code.
    // Demanding that here is what makes random bit offsets fail the
    // filter almost surely.
    if (lit_status != 0 || s.litlen_lengths[256] == 0) return false;
    if (dist_status != 0 && !all_zero(s.dist_lengths)) return false;
  }
  return true;
}

void build_dynamic_tables(InflateScratch& s) {
  try {
    const unsigned lbits = max_length(s.litlen_lengths);
    check_corrupt(lbits != 0, "gzip: dynamic block has an empty lit/len code");
    huffman::build_packed_table(s.litlen_lengths, lbits, s.tables.litlen,
                                litlen_entry);
    upgrade_double_literals(s.tables.litlen, lbits);
    s.tables.litlen_bits = lbits;
    const unsigned dbits = std::max(1u, max_length(s.dist_lengths));
    huffman::build_packed_table(s.dist_lengths, dbits, s.tables.dist, dist_entry);
    s.tables.dist_bits = dbits;
  } catch (const CorruptionError&) {
    throw;
  } catch (const Error&) {
    // build_packed_table reports via plain Error (kConfig); for a
    // decode of untrusted input that is data damage, not API misuse.
    throw CorruptionError("gzip: invalid dynamic huffman code");
  }
}

namespace {

/// Kraft sums over four 3-bit precode lengths: entry i holds
/// sum(2^(7 - len)) over the nonzero lengths packed LSB-first in i. A
/// precode (lengths <= 7) is exactly complete iff its sum is 2^7.
constexpr std::array<std::uint16_t, 4096> kPrecodeKraft4 = [] {
  std::array<std::uint16_t, 4096> t{};
  for (unsigned i = 0; i < t.size(); ++i) {
    unsigned sum = 0;
    for (unsigned k = 0; k < 4; ++k) {
      const unsigned len = (i >> (3 * k)) & 7u;
      if (len != 0) sum += 1u << (7 - len);
    }
    t[i] = static_cast<std::uint16_t>(sum);
  }
  return t;
}();

/// The first 13 header bits (BFINAL, BTYPE, HLIT, HDIST) at an offset:
/// bit 0 = BTYPE 2 with HLIT <= 29 and HDIST <= 29 (RFC 1951 allows at
/// most 286 lit/len and 30 distance codes), bit 1 = BTYPE 0.
constexpr std::array<std::uint8_t, 8192> kHeaderBits13 = [] {
  std::array<std::uint8_t, 8192> t{};
  for (unsigned v = 0; v < t.size(); ++v) {
    const unsigned btype = (v >> 1) & 3u;
    const bool dynamic = btype == 2 && ((v >> 3) & 31u) <= 29 && ((v >> 8) & 31u) <= 29;
    t[v] = static_cast<std::uint8_t>((dynamic ? 1u : 0u) | (btype == 0 ? 2u : 0u));
  }
  return t;
}();

/// Mask of the HCLEN + 4 precode lengths (3 bits each) by HCLEN.
constexpr std::array<std::uint64_t, 16> kPrecodeMask = [] {
  std::array<std::uint64_t, 16> t{};
  for (unsigned h = 0; h < t.size(); ++h) t[h] = (std::uint64_t{1} << (3 * (h + 4))) - 1;
  return t;
}();

std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));  // little-endian hosts, as BitReader
  return v;
}

/// True if a stored block's LEN/NLEN could start at bit 0 of `v`.
bool stored_lengths_ok(std::uint32_t v) {
  return (((v ^ (v >> 16)) & 0xFFFFu) == 0xFFFFu) & ((v & 0xFFFFu) != 0);
}

/// The pre-filter at bit K of a byte whose 16 bytes from there on are
/// lo, hi; `stored` is stored_lengths_ok() at the byte boundary after
/// the 3 header bits. Returns the pass flag shifted to bit K.
template <unsigned K>
unsigned prefilter_at(std::uint64_t lo, std::uint64_t hi, bool stored) {
  const unsigned head = kHeaderBits13[(lo >> K) & 0x1FFFu];
  const unsigned hclen = static_cast<unsigned>(lo >> (13 + K)) & 15u;
  // The precode field starts 17 bits in: up to 19 lengths = 57 bits.
  const std::uint64_t pre =
      ((lo >> (17 + K)) | (hi << (47 - K))) & kPrecodeMask[hclen];
  const unsigned kraft = kPrecodeKraft4[pre & 0xFFFu] +
                         kPrecodeKraft4[(pre >> 12) & 0xFFFu] +
                         kPrecodeKraft4[(pre >> 24) & 0xFFFu] +
                         kPrecodeKraft4[(pre >> 36) & 0xFFFu] +
                         kPrecodeKraft4[(pre >> 48) & 0xFFFu];
  const unsigned dynamic = (head & 1u) & static_cast<unsigned>(kraft == 128);
  const unsigned stored_pass = (head >> 1) & static_cast<unsigned>(stored);
  return (dynamic | stored_pass) << K;
}

template <unsigned... K>
unsigned prefilter_byte(std::uint64_t lo, std::uint64_t hi, bool stored1, bool stored2,
                        std::integer_sequence<unsigned, K...>) {
  // Offsets 0..5 of the byte round their 3 header bits up to byte 1;
  // offsets 6 and 7 spill into byte 1 and round up to byte 2.
  return (prefilter_at<K>(lo, hi, K <= 5 ? stored1 : stored2) | ...);
}

/// Branch-free necessary condition for exact_header_at() at the 8 bit
/// offsets of byte `b`: bit k of the result is set for every offset
/// 8b + k the exact filter accepts, and for few others. Reads 16 bytes
/// from data + b.
///   * dynamic: BTYPE 2, HLIT <= 29, HDIST <= 29, and the HCLEN + 4
///     precode lengths form an exactly complete code (five Kraft-table
///     lookups over the masked 57-bit precode field);
///   * stored: BTYPE 0 with LEN ^ NLEN == 0xFFFF and LEN != 0 at the
///     first byte boundary after the 3 header bits.
unsigned header_prefilter(const std::uint8_t* data, std::uint64_t b) {
  const std::uint64_t lo = load_u64(data + b);
  const std::uint64_t hi = load_u64(data + b + 8);
  return prefilter_byte(lo, hi, stored_lengths_ok(static_cast<std::uint32_t>(lo >> 8)),
                        stored_lengths_ok(static_cast<std::uint32_t>(lo >> 16)),
                        std::make_integer_sequence<unsigned, 8>{});
}

/// The exact header filter find_block_boundary() documents.
bool exact_header_at(ByteSpan data, std::uint64_t bit, InflateScratch& s) {
  BitReader br(data, bit);
  br.read(1);  // BFINAL: either value is plausible
  const std::uint32_t btype = br.read(2);
  if (btype == 0) {
    // Weak filter: byte-aligned LEN/~NLEN must match, and an empty
    // stored block is too unusual to anchor on.
    align_to_byte(br);
    const std::uint32_t len = br.read(16);
    const std::uint32_t nlen = br.read(16);
    if ((len ^ nlen) != 0xFFFF || len == 0 || br.overflowed()) return false;
    return (br.bit_pos() >> 3) + len <= data.size();
  }
  if (btype == 2) {
    return parse_dynamic_header(br, s, /*require_complete=*/true) &&
           !br.overflowed();
  }
  // BTYPE 1 (fixed) has no header to validate — any 3 bits match, so it
  // carries no evidence; BTYPE 3 is reserved.
  return false;
}

}  // namespace

std::uint64_t find_block_boundary(ByteSpan data, std::uint64_t begin_bit,
                                  std::uint64_t end_bit, InflateScratch& s,
                                  BoundaryScanStats* stats) {
  end_bit = std::min<std::uint64_t>(end_bit, 8 * data.size());
  const auto found = [&](std::uint64_t bit) {
    if (stats != nullptr) {
      stats->bits_scanned += bit - begin_bit + 1;
      ++stats->candidates;
    }
    return bit;
  };
  // The pre-filter reads 16 bytes from each byte it screens, so the
  // last < 16 bytes of the slice go straight to the exact filter.
  const std::uint64_t fast_end =
      data.size() >= 16 ? std::min<std::uint64_t>(end_bit, 8 * (data.size() - 15))
                        : 0;
  for (std::uint64_t bit = begin_bit; bit < fast_end; bit = (bit | 7) + 1) {
    const std::uint64_t b = bit >> 3;
    unsigned pass = header_prefilter(data.data(), b) & (0xFFu << (bit & 7));
    if (pass == 0) continue;
    if (8 * b + 8 > fast_end) pass &= (1u << (fast_end - 8 * b)) - 1;
    for (; pass != 0; pass &= pass - 1) {
      const std::uint64_t cand = 8 * b + static_cast<unsigned>(std::countr_zero(pass));
      if (exact_header_at(data, cand, s)) return found(cand);
    }
  }
  for (std::uint64_t bit = std::max(begin_bit, fast_end); bit < end_bit; ++bit) {
    if (exact_header_at(data, bit, s)) return found(bit);
  }
  if (stats != nullptr && end_bit > begin_bit) stats->bits_scanned += end_bit - begin_bit;
  return kNoBoundary;
}

// ---------------------------------------------------------------- sinks

namespace {

/// Grows capacity geometrically before an in-vector overlap copy. A
/// bare reserve(size + length) would request a capacity just past the
/// current one on every call, so a match-dominated run (notably the
/// zero padding past a short slice, which can decode as an endless
/// match chain) would reallocate the whole buffer per match —
/// quadratic time against the expansion bound instead of linear.
template <typename Vec>
void reserve_for(Vec& v, std::size_t length) {
  const std::size_t need = v.size() + length;
  if (need > v.capacity()) {
    v.reserve(std::max(need, v.capacity() + v.capacity() / 2));
  }
}

}  // namespace

void ByteSink::copy(std::uint32_t length, std::uint32_t distance) {
  check_corrupt(length <= cap_ - pos_, "gzip: block decodes past its indexed size");
  std::uint64_t rel = pos_ - member_base_;
  if (distance > rel) {
    const std::uint64_t from_window = distance - rel;
    check_corrupt(from_window <= window_.size(),
                  "gzip: back-reference beyond window");
    const std::uint8_t* wsrc = window_.data() + (window_.size() - from_window);
    const std::uint32_t n =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(length, from_window));
    for (std::uint32_t k = 0; k < n; ++k) out_[pos_++] = wsrc[k];
    length -= n;
    if (length == 0) return;
    // The window part is exhausted, so the source continues at the
    // member's first output byte: distance <= pos_ - member_base_ now.
  }
  const std::uint8_t* src = out_ + (pos_ - distance);
  for (std::uint32_t k = 0; k < length; ++k) out_[pos_++] = *src++;
}

void GrowingByteSink::copy(std::uint32_t length, std::uint32_t distance) {
  guard_growth(length);
  reserve_for(buf_, length);  // keep self-referencing pushes cheap
  const std::uint64_t rel = produced() - member_base_;
  std::uint32_t remaining = length;
  if (distance > rel) {
    const std::uint64_t from_window = distance - rel;
    check_corrupt(from_window <= window_.size(),
                  "gzip: back-reference beyond window");
    const std::uint8_t* wsrc = window_.data() + (window_.size() - from_window);
    const std::uint32_t n = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(remaining, from_window));
    buf_.insert(buf_.end(), wsrc, wsrc + n);
    remaining -= n;
  }
  // In-buffer overlap copy. The buffer always retains at least the last
  // kWindowSize >= distance bytes (maybe_flush keeps that tail), so the
  // source index cannot underrun flushed data.
  for (std::uint32_t k = 0; k < remaining; ++k) {
    buf_.push_back(buf_[buf_.size() - distance]);
  }
  maybe_flush();
}

void GrowingByteSink::maybe_flush() {
  if (flush_ == nullptr || buf_.size() < flush_threshold_ ||
      buf_.size() <= kWindowSize) {
    return;
  }
  const std::size_t n = buf_.size() - kWindowSize;
  flush_(flush_ctx_, ByteSpan(buf_.data(), n));
  buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(n));
  flushed_ += n;
}

void GrowingByteSink::finish() {
  if (flush_ == nullptr || buf_.empty()) return;
  flush_(flush_ctx_, ByteSpan(buf_.data(), buf_.size()));
  flushed_ += buf_.size();
  buf_.clear();
}

void MarkerSink::copy(std::uint32_t length, std::uint32_t distance) {
  guard_growth(length);
  reserve_for(out_, length);
  std::uint32_t remaining = length;
  if (distance > out_.size() - member_base_) {
    check_corrupt(allow_window_, "gzip: back-reference beyond window");
    check_corrupt(distance - (out_.size() - member_base_) <= kWindowSize,
                  "gzip: back-reference beyond window");
    // Positions the reference reaches before the chunk become markers
    // naming absolute start-window bytes: at relative position p the
    // source byte is window[kWindowSize - (distance - p)].
    while (remaining > 0) {
      const std::size_t rel = out_.size() - member_base_;
      if (distance <= rel) break;
      const std::size_t w = kWindowSize - (distance - rel);
      out_.push_back(static_cast<std::uint16_t>(kMarkerBase + w));
      --remaining;
    }
  }
  // Token copy: a marker names an absolute window byte, so replicating
  // it forward preserves meaning.
  for (; remaining > 0; --remaining) {
    out_.push_back(out_[out_.size() - distance]);
  }
}

void MarkerPatchTable::set_window(ByteSpan window) {
  check(window.size() == kWindowSize, "gzip: patch window must be 32 KiB");
  if (lut_.empty()) {
    lut_.resize(kMarkerBase + kWindowSize);
    for (unsigned b = 0; b < kMarkerBase; ++b) lut_[b] = static_cast<std::uint8_t>(b);
  }
  std::copy(window.begin(), window.end(), lut_.begin() + kMarkerBase);
}

std::uint64_t MarkerPatchTable::patch(const std::uint16_t* tokens, std::size_t n,
                                      std::uint8_t* out) const {
  check(!lut_.empty(), "gzip: marker patch table has no window");
  const std::uint8_t* lut = lut_.data();
  std::uint64_t patched = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint16_t t = tokens[i];
    out[i] = lut[t];
    patched += (t >> 8) != 0;  // t >= kMarkerBase
  }
  return patched;
}

std::uint64_t patch_markers(const std::vector<std::uint16_t>& tokens,
                            ByteSpan window, MutableByteSpan out) {
  check(out.size() == tokens.size(), "gzip: marker patch size mismatch");
  MarkerPatchTable table;
  table.set_window(window);
  return table.patch(tokens.data(), tokens.size(), out.data());
}

// --------------------------------------------------------- chunk driver

namespace {

template <typename Sink>
ChunkStatus run_chunk(ByteSpan data, std::uint64_t start_bit,
                      std::uint64_t stop_bit, std::uint64_t stream_end_byte,
                      Sink& sink, InflateScratch& s, ChunkResult& result) {
  result.members.clear();
  result.end_bit = 0;
  // A partial slice turns "ran past the data" into grow-and-retry; a
  // full slice makes the same condition real corruption.
  const bool partial = data.size() < stream_end_byte;
  BitReader br(data, start_bit);
  const auto bail = [&](const char* msg) -> ChunkStatus {
    if (partial) return ChunkStatus::kNeedMoreData;
    throw CorruptionError(msg);
  };
  try {
    while (true) {
      if (br.bit_pos() >= stop_bit) {
        result.end_bit = br.bit_pos();
        return ChunkStatus::kStopped;
      }
      const std::uint32_t bfinal = br.read(1);
      const std::uint32_t btype = br.read(2);
      if (btype == 0) {
        align_to_byte(br);
        const std::uint32_t len = br.read(16);
        const std::uint32_t nlen = br.read(16);
        check_corrupt((len ^ nlen) == 0xFFFF,
                      "gzip: stored block LEN/NLEN mismatch");
        const std::uint64_t byte_off = br.bit_pos() >> 3;
        if (byte_off + len > data.size()) {
          return bail("gzip: stored block truncated");
        }
        for (std::uint32_t k = 0; k < len; ++k) {
          sink.push(data[static_cast<std::size_t>(byte_off) + k]);
        }
        br = BitReader(data, (byte_off + len) * 8);
      } else if (btype == 1) {
        decode_block(br, s.fixed(), sink);
      } else if (btype == 2) {
        check_corrupt(parse_dynamic_header(br, s, /*require_complete=*/false),
                      "gzip: invalid dynamic block header");
        build_dynamic_tables(s);
        decode_block(br, s.tables, sink);
      } else {
        throw CorruptionError("gzip: reserved block type");
      }
      if (br.overflowed()) return bail("gzip: compressed stream truncated");
      if (bfinal != 0) {
        align_to_byte(br);
        MemberEvent ev;
        ev.crc32 = br.read(32);
        ev.isize = br.read(32);
        if (br.overflowed()) return bail("gzip: member trailer truncated");
        ev.out_offset = sink.produced();
        ev.trailer_end_byte = br.bit_pos() >> 3;
        result.members.push_back(ev);
        if (ev.trailer_end_byte == stream_end_byte) {
          result.end_bit = br.bit_pos();
          return ChunkStatus::kEndOfStream;
        }
        check_corrupt(ev.trailer_end_byte < stream_end_byte,
                      "gzip: member trailer past the end of the stream");
        skip_member_header(br);
        if (br.overflowed()) return bail("gzip: member header truncated");
        sink.reset_window();
      }
    }
  } catch (const CorruptionError&) {
    // Zero padding past a short slice decodes as garbage; that is a
    // grow-and-retry, not damage. Anything thrown before the reader
    // ran off the end is genuine.
    if (partial && br.overflowed()) return ChunkStatus::kNeedMoreData;
    throw;
  }
}

}  // namespace

ChunkStatus inflate_chunk(ByteSpan data, std::uint64_t start_bit,
                          std::uint64_t stop_bit, std::uint64_t stream_end_byte,
                          ByteSink& sink, InflateScratch& s, ChunkResult& result) {
  return run_chunk(data, start_bit, stop_bit, stream_end_byte, sink, s, result);
}

ChunkStatus inflate_chunk(ByteSpan data, std::uint64_t start_bit,
                          std::uint64_t stop_bit, std::uint64_t stream_end_byte,
                          GrowingByteSink& sink, InflateScratch& s,
                          ChunkResult& result) {
  return run_chunk(data, start_bit, stop_bit, stream_end_byte, sink, s, result);
}

ChunkStatus inflate_chunk(ByteSpan data, std::uint64_t start_bit,
                          std::uint64_t stop_bit, std::uint64_t stream_end_byte,
                          MarkerSink& sink, InflateScratch& s,
                          ChunkResult& result) {
  return run_chunk(data, start_bit, stop_bit, stream_end_byte, sink, s, result);
}

}  // namespace gompresso::ingest
