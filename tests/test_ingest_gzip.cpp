// The gzip ingest backend: rapidgzip-style parallel decode behind
// gompresso::open().
//
// Coverage map:
//   - golden corpus: real `gzip` output at levels 1/6/9 over text,
//     incompressible, empty, and tiny inputs, plus multi-member
//     concatenation, byte-compared against the original (GTEST_SKIP
//     when no gzip binary is on PATH — the in-process stored-block
//     writer below keeps structural coverage hermetic);
//   - adversarial headers: every FLG combination, reserved bits,
//     truncations at every prefix, lying ISIZE/CRC32, oversized FEXTRA;
//   - mutation fuzz within the repo's GOMPRESSO_FUZZ_TRIALS budget:
//     decode of a damaged stream throws a typed Error or succeeds —
//     never crashes, never hangs;
//   - chaos soak: a gzip session over FaultInjectingByteSource absorbs
//     transient-only plans byte-exactly;
//   - the "GZIX" sidecar: reopen loads it instead of re-scanning
//     (counter-asserted) and a wrong-flavor sidecar is rejected;
//   - the boundary pre-filter: find_block_boundary agrees with a
//     reference header predicate at every bit offset of real gzip
//     output, random bytes, stored blocks and slice tails;
//   - parallel == sequential: the speculative window-chain build and
//     the pure sequential build produce identical sidecars, repeatedly,
//     and fail with the same typed error on lying trailers, truncation
//     and trailing garbage (TSan and ASan run this suite too, so the
//     chain hand-off is exercised under both);
//   - the pipe fallback: gzip on a non-seekable stream decodes through
//     decompress_stream's sequential path.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/gompresso.hpp"
#include "datagen/datasets.hpp"
#include "format/header.hpp"
#include "format/sniff.hpp"
#include "fuzz_budget.hpp"
#include "ingest/gzip_format.hpp"
#include "ingest/gzip_index.hpp"
#include "ingest/inflate.hpp"
#include "serve/fault_source.hpp"
#include "util/crc32.hpp"
#include "util/varint.hpp"
#include "util/rng.hpp"

namespace gompresso {
namespace {

// ------------------------------------------------------------ helpers

/// In-process gzip writer using stored (BTYPE 0) DEFLATE blocks: pure
/// framing, so header/trailer structure can be fuzzed hermetically
/// without a compressor. `flags` may request FTEXT/FHCRC/FEXTRA/FNAME/
/// FCOMMENT; the optional fields are filled with fixed contents.
Bytes gzip_store_member(ByteSpan data, std::uint8_t flags = 0,
                        std::size_t extra_len = 6) {
  Bytes out;
  out.push_back(0x1F);
  out.push_back(0x8B);
  out.push_back(8);  // CM = deflate
  out.push_back(flags);
  for (int i = 0; i < 4; ++i) out.push_back(0);  // MTIME
  out.push_back(0);                              // XFL
  out.push_back(255);                            // OS = unknown
  if (flags & ingest::kGzipFlagExtra) {
    out.push_back(static_cast<std::uint8_t>(extra_len & 0xFF));
    out.push_back(static_cast<std::uint8_t>(extra_len >> 8));
    for (std::size_t i = 0; i < extra_len; ++i) {
      out.push_back(static_cast<std::uint8_t>('x'));
    }
  }
  if (flags & ingest::kGzipFlagName) {
    for (const char c : std::string("file.bin")) {
      out.push_back(static_cast<std::uint8_t>(c));
    }
    out.push_back(0);
  }
  if (flags & ingest::kGzipFlagComment) {
    for (const char c : std::string("a comment")) {
      out.push_back(static_cast<std::uint8_t>(c));
    }
    out.push_back(0);
  }
  if (flags & ingest::kGzipFlagHcrc) {
    const std::uint32_t crc = crc32(ByteSpan(out.data(), out.size()));
    out.push_back(static_cast<std::uint8_t>(crc & 0xFF));
    out.push_back(static_cast<std::uint8_t>((crc >> 8) & 0xFF));
  }

  // Stored blocks: 3-bit header (BFINAL, BTYPE=00), pad to byte, then
  // LEN/NLEN + raw bytes. An empty input is one final LEN=0 block.
  std::size_t pos = 0;
  do {
    const std::size_t n = std::min<std::size_t>(data.size() - pos, 65535);
    const bool final_block = pos + n == data.size();
    out.push_back(final_block ? 1 : 0);  // header bits land in one byte
    out.push_back(static_cast<std::uint8_t>(n & 0xFF));
    out.push_back(static_cast<std::uint8_t>(n >> 8));
    out.push_back(static_cast<std::uint8_t>(~n & 0xFF));
    out.push_back(static_cast<std::uint8_t>((~n >> 8) & 0xFF));
    out.insert(out.end(), data.begin() + static_cast<long>(pos),
               data.begin() + static_cast<long>(pos + n));
    pos += n;
  } while (pos < data.size());

  const std::uint32_t crc = crc32(data);
  const std::uint32_t isize = static_cast<std::uint32_t>(data.size());
  for (const std::uint32_t v : {crc, isize}) {
    out.push_back(static_cast<std::uint8_t>(v & 0xFF));
    out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
    out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xFF));
    out.push_back(static_cast<std::uint8_t>((v >> 24) & 0xFF));
  }
  return out;
}

/// Decodes a whole in-memory gzip stream through gompresso::open().
Bytes decode_gzip(ByteSpan file, std::size_t threads = 2,
                  std::size_t chunk_size = 64 * 1024) {
  OpenOptions opt;
  opt.session.num_threads = threads;
  opt.gzip.chunk_size = chunk_size;
  auto session = open(serve::memory_source(file), opt);
  Bytes out(session->size());
  if (!out.empty()) {
    EXPECT_EQ(session->read_at(0, MutableByteSpan(out.data(), out.size())),
              out.size());
  }
  return out;
}

std::string temp_path(const char* tag) {
  return "/tmp/gomp_gz_" + std::to_string(getpid()) + "_" + tag;
}

void write_file(const std::string& path, ByteSpan data) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  ASSERT_TRUE(out.good());
}

Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes((std::istreambuf_iterator<char>(in)),
               std::istreambuf_iterator<char>());
}

bool have_gzip_binary() {
  return std::system("gzip --version >/dev/null 2>&1") == 0;
}

/// `gzip -6` output of `input` via the system binary (callers skip
/// when have_gzip_binary() is false).
Bytes system_gzip(const Bytes& input, const char* tag) {
  const std::string raw = temp_path(tag);
  write_file(raw, ByteSpan(input.data(), input.size()));
  const std::string gz = raw + ".gz";
  EXPECT_EQ(std::system(("gzip -6 -n -c " + raw + " > " + gz).c_str()), 0);
  Bytes file = read_file(gz);
  std::remove(raw.c_str());
  std::remove(gz.c_str());
  return file;
}

/// Builds the index of `file`; returns its sidecar, or the kind and
/// message of the typed error the build threw.
struct BuildOutcome {
  Bytes sidecar;
  bool threw = false;
  ErrorKind kind = ErrorKind::kConfig;
  std::string what;
};

BuildOutcome build_index(const Bytes& file, std::uint64_t chunk_size,
                         ThreadPool* pool) {
  ingest::GzipIndexOptions opt;
  opt.chunk_size = chunk_size;
  opt.pool = pool;
  auto src = serve::memory_source(ByteSpan(file.data(), file.size()));
  BuildOutcome out;
  try {
    out.sidecar = ingest::GzipIndex::build(*src, opt).serialize();
  } catch (const Error& e) {
    out.threw = true;
    out.kind = e.kind();
    out.what = e.what();
  }
  return out;
}

/// A streambuf that cannot seek (pubseekoff keeps the std::streambuf
/// default of failing), modelling a pipe (same idiom as test_stream).
class SequentialBuf : public std::streambuf {
 public:
  explicit SequentialBuf(std::string data) : data_(std::move(data)) {
    setg(data_.data(), data_.data(), data_.data() + data_.size());
  }

 private:
  std::string data_;
};

// ------------------------------------------------------------- sniffer

TEST(Sniff, ClassifiesAllContainers) {
  const std::uint8_t gz[] = {0x1F, 0x8B, 0x08, 0x00};
  EXPECT_EQ(format::sniff_container(ByteSpan(gz, 4)),
            format::ContainerKind::kGzip);
  EXPECT_EQ(format::sniff_container(ByteSpan(gz, 3)),
            format::ContainerKind::kGzip);
  const std::uint8_t not_deflate[] = {0x1F, 0x8B, 0x07, 0x00};
  EXPECT_EQ(format::sniff_container(ByteSpan(not_deflate, 4)),
            format::ContainerKind::kUnknown);
  Bytes gmpz;
  put_u32le(gmpz, format::kMagic);
  EXPECT_EQ(format::sniff_container(ByteSpan(gmpz.data(), gmpz.size())),
            format::ContainerKind::kGmpz);
  Bytes gmps;
  put_u32le(gmps, format::kGmpsMagic);
  EXPECT_EQ(format::sniff_container(ByteSpan(gmps.data(), gmps.size())),
            format::ContainerKind::kGmps);
  EXPECT_EQ(format::sniff_container(ByteSpan(gz, 2)),
            format::ContainerKind::kUnknown);
}

// ------------------------------------------------- stored-block writer

TEST(IngestGzip, StoredMembersRoundTrip) {
  for (const std::size_t size : {std::size_t{0}, std::size_t{1},
                                 std::size_t{65535}, std::size_t{200000}}) {
    const Bytes input = datagen::wikipedia(std::max<std::size_t>(size, 1));
    const ByteSpan data(input.data(), size);
    const Bytes file = gzip_store_member(data);
    const Bytes out = decode_gzip(ByteSpan(file.data(), file.size()));
    ASSERT_EQ(out.size(), size);
    EXPECT_TRUE(std::equal(out.begin(), out.end(), data.begin()));
  }
}

TEST(IngestGzip, EveryHeaderFlagCombinationParses) {
  const Bytes input = datagen::wikipedia(5000);
  const ByteSpan data(input.data(), input.size());
  for (std::uint8_t flags = 0; flags < 32; ++flags) {
    const Bytes file = gzip_store_member(data, flags);
    const Bytes out = decode_gzip(ByteSpan(file.data(), file.size()));
    ASSERT_EQ(out.size(), input.size()) << "flags=" << int(flags);
    EXPECT_EQ(out, input) << "flags=" << int(flags);
  }
}

TEST(IngestGzip, MultiMemberStreamsConcatenate) {
  const Bytes a = datagen::wikipedia(70000);
  const Bytes b = datagen::random_bytes(50000, 7);
  Bytes file = gzip_store_member(ByteSpan(a.data(), a.size()),
                                 ingest::kGzipFlagName);
  const Bytes second = gzip_store_member(ByteSpan(b.data(), b.size()));
  file.insert(file.end(), second.begin(), second.end());
  // An empty trailing member must also be consumed.
  const Bytes third = gzip_store_member(ByteSpan());
  file.insert(file.end(), third.begin(), third.end());

  const Bytes out = decode_gzip(ByteSpan(file.data(), file.size()));
  ASSERT_EQ(out.size(), a.size() + b.size());
  EXPECT_TRUE(std::equal(a.begin(), a.end(), out.begin()));
  EXPECT_TRUE(std::equal(b.begin(), b.end(),
                         out.begin() + static_cast<long>(a.size())));
}

// --------------------------------------------------- adversarial input

TEST(IngestGzip, ReservedFlagBitsAreAFormatError) {
  const Bytes input = datagen::wikipedia(100);
  Bytes file = gzip_store_member(ByteSpan(input.data(), input.size()));
  file[3] |= ingest::kGzipFlagReserved;
  EXPECT_THROW(decode_gzip(ByteSpan(file.data(), file.size())), FormatError);
}

TEST(IngestGzip, HeaderCrc16MismatchIsCorruption) {
  const Bytes input = datagen::wikipedia(100);
  Bytes file =
      gzip_store_member(ByteSpan(input.data(), input.size()), ingest::kGzipFlagHcrc);
  file[10] ^= 0xFF;  // flip an FHCRC byte (header is 10 fixed + 2 crc)
  EXPECT_THROW(decode_gzip(ByteSpan(file.data(), file.size())), Error);
}

TEST(IngestGzip, LyingTrailerIsCorruption) {
  const Bytes input = datagen::wikipedia(3000);
  const Bytes good = gzip_store_member(ByteSpan(input.data(), input.size()));
  {
    Bytes bad = good;
    bad[bad.size() - 2] ^= 0x40;  // ISIZE
    EXPECT_THROW(decode_gzip(ByteSpan(bad.data(), bad.size())), CorruptionError);
  }
  {
    Bytes bad = good;
    bad[bad.size() - 6] ^= 0x01;  // CRC32
    EXPECT_THROW(decode_gzip(ByteSpan(bad.data(), bad.size())), CorruptionError);
  }
}

TEST(IngestGzip, TruncationAtEveryPrefixThrows) {
  const Bytes input = datagen::wikipedia(2000);
  const Bytes file = gzip_store_member(
      ByteSpan(input.data(), input.size()),
      ingest::kGzipFlagExtra | ingest::kGzipFlagName | ingest::kGzipFlagHcrc);
  for (std::size_t len = 0; len < file.size(); ++len) {
    EXPECT_THROW(decode_gzip(ByteSpan(file.data(), len)), Error)
        << "prefix " << len;
  }
  EXPECT_EQ(decode_gzip(ByteSpan(file.data(), file.size())), input);
}

TEST(IngestGzip, OversizedFextraIsTruncation) {
  const Bytes input = datagen::wikipedia(100);
  Bytes file = gzip_store_member(ByteSpan(input.data(), input.size()),
                                 ingest::kGzipFlagExtra);
  // XLEN claims far more than the stream holds.
  file[10] = 0xFF;
  file[11] = 0xFF;
  EXPECT_THROW(decode_gzip(ByteSpan(file.data(), file.size())), Error);
}

TEST(IngestGzip, MutationFuzzNeverCrashes) {
  const Bytes input = datagen::wikipedia(60000);
  Bytes file = gzip_store_member(ByteSpan(input.data(), input.size()));
  const int trials = testing::fuzz_trials(60);
  Rng rng(20260809);
  for (int t = 0; t < trials; ++t) {
    const std::size_t at = static_cast<std::size_t>(
        rng.next_u64() % static_cast<std::uint64_t>(file.size()));
    const std::uint8_t old = file[at];
    file[at] ^= static_cast<std::uint8_t>(1u << (rng.next_u64() % 8));
    try {
      // Any typed Error is acceptable; silent success is too (a flip in
      // stored payload decodes "wrong" bytes but the trailer CRC check
      // catches it — flips in FNAME/MTIME are genuinely harmless).
      (void)decode_gzip(ByteSpan(file.data(), file.size()));
    } catch (const Error&) {
    }
    file[at] = old;
  }
}

// -------------------------------------------------------- golden gzip

TEST(IngestGzip, GoldenCorpusMatchesRealGzip) {
  if (!have_gzip_binary()) GTEST_SKIP() << "no gzip binary on PATH";
  struct Case {
    const char* tag;
    Bytes input;
  };
  std::vector<Case> cases;
  cases.push_back({"text", datagen::wikipedia(1 << 20)});
  cases.push_back({"random", datagen::random_bytes(300000, 9)});
  cases.push_back({"empty", Bytes()});
  cases.push_back({"tiny", Bytes{'h', 'i'}});

  for (const Case& c : cases) {
    const std::string raw = temp_path(c.tag);
    write_file(raw, ByteSpan(c.input.data(), c.input.size()));
    for (const int level : {1, 6, 9}) {
      const std::string gz = raw + "." + std::to_string(level) + ".gz";
      const std::string cmd =
          "gzip -" + std::to_string(level) + " -c " + raw + " > " + gz;
      ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
      const Bytes file = read_file(gz);
      for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
        const Bytes out =
            decode_gzip(ByteSpan(file.data(), file.size()), threads);
        EXPECT_EQ(out, c.input)
            << c.tag << " level " << level << " threads " << threads;
      }
      std::remove(gz.c_str());
    }
    std::remove(raw.c_str());
  }
}

TEST(IngestGzip, GoldenMultiMemberConcatenation) {
  if (!have_gzip_binary()) GTEST_SKIP() << "no gzip binary on PATH";
  const Bytes a = datagen::wikipedia(400000);
  const Bytes b = datagen::matrix(200000);
  const std::string pa = temp_path("cat_a"), pb = temp_path("cat_b");
  write_file(pa, ByteSpan(a.data(), a.size()));
  write_file(pb, ByteSpan(b.data(), b.size()));
  const std::string gz = temp_path("cat.gz");
  ASSERT_EQ(std::system(("gzip -c " + pa + " > " + gz + " && gzip -9 -c " + pb +
                         " >> " + gz)
                            .c_str()),
            0);
  const Bytes file = read_file(gz);
  const Bytes out = decode_gzip(ByteSpan(file.data(), file.size()));
  ASSERT_EQ(out.size(), a.size() + b.size());
  EXPECT_TRUE(std::equal(a.begin(), a.end(), out.begin()));
  EXPECT_TRUE(std::equal(b.begin(), b.end(),
                         out.begin() + static_cast<long>(a.size())));
  std::remove(pa.c_str());
  std::remove(pb.c_str());
  std::remove(gz.c_str());
}

// -------------------------------------------- parallel vs sequential

TEST(IngestGzip, ParallelBuildMatchesSequential) {
  if (!have_gzip_binary()) GTEST_SKIP() << "no gzip binary on PATH";
  const Bytes input = datagen::wikipedia(2 << 20);
  const std::string raw = temp_path("par");
  write_file(raw, ByteSpan(input.data(), input.size()));
  const std::string gz = raw + ".gz";
  ASSERT_EQ(std::system(("gzip -c " + raw + " > " + gz).c_str()), 0);
  const Bytes file = read_file(gz);

  ThreadPool pool(4);
  ingest::GzipIndexOptions seq, par;
  seq.chunk_size = par.chunk_size = 96 * 1024;
  par.pool = &pool;
  auto ssrc = serve::memory_source(ByteSpan(file.data(), file.size()));
  auto psrc = serve::memory_source(ByteSpan(file.data(), file.size()));
  const ingest::GzipIndex si = ingest::GzipIndex::build(*ssrc, seq);
  const ingest::GzipIndex pi = ingest::GzipIndex::build(*psrc, par);

  ASSERT_EQ(si.total_uncompressed(), input.size());
  ASSERT_EQ(pi.total_uncompressed(), input.size());
  // The window-chain build must land on the same chunk geometry the
  // sequential build finds — speculation changes the schedule, not the
  // result.
  ASSERT_EQ(pi.num_chunks(), si.num_chunks());
  for (std::size_t i = 0; i < si.num_chunks(); ++i) {
    EXPECT_EQ(pi.chunk(i).start_bit, si.chunk(i).start_bit);
    EXPECT_EQ(pi.chunk(i).end_bit, si.chunk(i).end_bit);
    EXPECT_EQ(pi.chunk(i).uncomp_offset, si.chunk(i).uncomp_offset);
  }

  const Bytes out = decode_gzip(ByteSpan(file.data(), file.size()), 4, 96 * 1024);
  EXPECT_EQ(out, input);
  std::remove(raw.c_str());
  std::remove(gz.c_str());
}

// ------------------------------------------------ boundary pre-filter

/// The exact header predicate find_block_boundary documents, written
/// out independently of its pre-filter.
bool reference_boundary(ByteSpan data, std::uint64_t bit,
                        ingest::InflateScratch& s) {
  BitReader br(data, bit);
  br.read(1);
  const std::uint32_t btype = br.read(2);
  if (btype == 0) {
    const unsigned pad = static_cast<unsigned>(br.bit_pos() & 7);
    if (pad != 0) br.consume(8 - pad);
    const std::uint32_t len = br.read(16);
    const std::uint32_t nlen = br.read(16);
    return (len ^ nlen) == 0xFFFF && len != 0 && !br.overflowed() &&
           (br.bit_pos() >> 3) + len <= data.size();
  }
  if (btype == 2) {
    return ingest::parse_dynamic_header(br, s, /*require_complete=*/true) &&
           !br.overflowed();
  }
  return false;
}

/// Compares find_block_boundary(data, b, b + 1) with the reference at
/// every bit offset in [from_bit, 8 * data.size()). Returns the number
/// of accepted offsets; any disagreement fails the test.
std::uint64_t expect_filter_matches(ByteSpan data, std::uint64_t from_bit,
                                    const char* what) {
  ingest::InflateScratch s;
  std::uint64_t accepted = 0, mismatches = 0;
  for (std::uint64_t b = from_bit; b < 8 * data.size(); ++b) {
    ingest::BoundaryScanStats stats;
    const std::uint64_t got = ingest::find_block_boundary(data, b, b + 1, s, &stats);
    const bool want = reference_boundary(data, b, s);
    if ((got == b) != want || (got != b && got != ingest::kNoBoundary) ||
        stats.bits_scanned != 1) {
      if (mismatches++ == 0) {
        ADD_FAILURE() << what << ": filter disagrees at bit " << b << " of "
                      << 8 * data.size() << " (reference " << want << ")";
      }
    }
    accepted += want ? 1 : 0;
  }
  EXPECT_EQ(mismatches, 0u) << what;
  return accepted;
}

TEST(IngestGzip, PrefilterKeepsEveryBoundaryOfRealGzip) {
  if (!have_gzip_binary()) GTEST_SKIP() << "no gzip binary on PATH";
  Bytes file = system_gzip(datagen::wikipedia(1 << 20), "prefilter");
  file.resize(std::min<std::size_t>(file.size(), 256 * 1024));
  const std::uint64_t accepted =
      expect_filter_matches(ByteSpan(file.data(), file.size()), 0, "gzip -6");
  EXPECT_GT(accepted, 0u) << "the corpus should hold real block boundaries";
}

TEST(IngestGzip, PrefilterKeepsEveryBoundaryOfRandomAndStoredData) {
  const Bytes noise = datagen::random_bytes(64 * 1024, 20261021);
  expect_filter_matches(ByteSpan(noise.data(), noise.size()), 0, "random bytes");
  // Stored blocks: LEN/NLEN anchors at every header alignment the
  // writer produces, member framing around them.
  const Bytes input = datagen::wikipedia(200000);
  const Bytes stored = gzip_store_member(ByteSpan(input.data(), input.size()));
  EXPECT_GT(expect_filter_matches(ByteSpan(stored.data(), stored.size()), 0,
                                  "stored member"),
            0u);
}

TEST(IngestGzip, PrefilterAgreesInSliceTails) {
  // The last < 16 bytes of a slice take the exact path only; cut slices
  // of real output (or of stored blocks without a gzip binary) at many
  // lengths so the cut lands before, inside and after block headers.
  Bytes file;
  if (have_gzip_binary()) {
    file = system_gzip(datagen::wikipedia(300000), "prefilter_tail");
  } else {
    const Bytes input = datagen::wikipedia(300000);
    file = gzip_store_member(ByteSpan(input.data(), input.size()));
  }
  std::vector<std::size_t> cuts;
  for (std::size_t len = 1; len <= 40; ++len) cuts.push_back(len);
  for (std::size_t len = 41; len < file.size(); len += 997) cuts.push_back(len);
  // A stored member small enough to sit entirely in one slice tail.
  const Bytes tiny_input = {'a', 'b', 'c'};
  const Bytes tiny = gzip_store_member(ByteSpan(tiny_input.data(), tiny_input.size()));
  EXPECT_GT(expect_filter_matches(ByteSpan(tiny.data(), tiny.size()), 0, "tiny"), 0u);
  for (const std::size_t len : cuts) {
    const std::uint64_t from = len > 16 ? 8 * (len - 16) : 0;
    expect_filter_matches(ByteSpan(file.data(), len), from, "slice tail");
  }
}

// --------------------------------- parallel errors and determinism

constexpr std::uint64_t kParallelChunkSizes[] = {16 * 1024, 40 * 1024, 96 * 1024};

/// Three members, each large enough to span several cells.
Bytes three_member_file(std::vector<std::size_t>* member_ends) {
  Bytes file;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const Bytes part =
        seed == 2 ? datagen::matrix(150000) : datagen::wikipedia(180000 + 20000 * seed);
    Bytes member;
    if (have_gzip_binary()) {
      member = system_gzip(part, "member");
    } else {
      member = gzip_store_member(ByteSpan(part.data(), part.size()));
    }
    file.insert(file.end(), member.begin(), member.end());
    member_ends->push_back(file.size());
  }
  return file;
}

void expect_same_failure(const Bytes& file, const char* what) {
  ThreadPool pool(4);
  for (const std::uint64_t chunk : kParallelChunkSizes) {
    const BuildOutcome seq = build_index(file, chunk, nullptr);
    const BuildOutcome par = build_index(file, chunk, &pool);
    ASSERT_TRUE(seq.threw) << what << " chunk " << chunk;
    ASSERT_TRUE(par.threw) << what << " chunk " << chunk;
    EXPECT_EQ(par.kind, seq.kind) << what << " chunk " << chunk;
    EXPECT_EQ(par.what, seq.what) << what << " chunk " << chunk;
  }
}

TEST(IngestGzip, ParallelBuildReportsLyingMiddleTrailer) {
  std::vector<std::size_t> ends;
  const Bytes good = three_member_file(&ends);
  {
    Bytes bad = good;
    bad[ends[1] - 8] ^= 0x01;  // middle member's CRC32
    expect_same_failure(bad, "CRC32");
  }
  {
    Bytes bad = good;
    bad[ends[1] - 4] ^= 0x01;  // middle member's ISIZE
    expect_same_failure(bad, "ISIZE");
  }
}

TEST(IngestGzip, ParallelBuildReportsTruncation) {
  std::vector<std::size_t> ends;
  const Bytes good = three_member_file(&ends);
  // Cut inside the last member's DEFLATE data, well before its trailer.
  const Bytes cut(good.begin(), good.begin() + static_cast<long>(ends[1] + (ends[2] - ends[1]) / 2));
  expect_same_failure(cut, "truncated mid-block");
}

TEST(IngestGzip, ParallelBuildReportsTrailingGarbage) {
  std::vector<std::size_t> ends;
  Bytes bad = three_member_file(&ends);
  const Bytes garbage = datagen::random_bytes(50000, 99);
  bad.insert(bad.end(), garbage.begin(), garbage.end());
  expect_same_failure(bad, "trailing garbage");
}

TEST(IngestGzip, RepeatedParallelBuildsMatchSequentialSidecar) {
  if (!have_gzip_binary()) GTEST_SKIP() << "no gzip binary on PATH";
  const Bytes file = system_gzip(datagen::wikipedia(1 << 20), "repeat");
  const BuildOutcome seq = build_index(file, 32 * 1024, nullptr);
  ASSERT_FALSE(seq.threw) << seq.what;
  ThreadPool pool(4);
  for (int run = 0; run < 50; ++run) {
    const BuildOutcome par = build_index(file, 32 * 1024, &pool);
    ASSERT_FALSE(par.threw) << par.what;
    // The sidecar holds every chunk's extents, offsets and window and
    // the member count: the whole index, not just its bit extents.
    ASSERT_EQ(par.sidecar, seq.sidecar) << "run " << run;
  }
}

// ------------------------------------------------------------ sidecar

TEST(IngestGzip, SidecarReopenSkipsTheScan) {
  const Bytes input = datagen::wikipedia(500000);
  const Bytes file = gzip_store_member(ByteSpan(input.data(), input.size()));
  const std::string gz = temp_path("side.gz");
  const std::string sidecar = gz + ".gzix";
  write_file(gz, ByteSpan(file.data(), file.size()));

  {
    auto src = serve::open_file_source(gz);
    ingest::GzipIndexOptions gopt;
    gopt.chunk_size = 64 * 1024;
    ingest::GzipIndex::build(*src, gopt).save(sidecar);
  }

  const obs::MetricsSnapshot before = metrics_snapshot();
  OpenOptions opt;
  opt.sidecar_path = sidecar;
  auto session = open(gz, opt);
  Bytes out(session->size());
  ASSERT_EQ(session->read_at(0, MutableByteSpan(out.data(), out.size())),
            out.size());
  EXPECT_EQ(out, input);
  const obs::MetricsSnapshot after = metrics_snapshot();

  // Reopen is O(sidecar): no new index build, not one boundary bit
  // scanned, exactly one sidecar load.
  EXPECT_EQ(after.counter("ingest.index_builds"),
            before.counter("ingest.index_builds"));
  EXPECT_EQ(after.counter("ingest.boundary_bits_scanned"),
            before.counter("ingest.boundary_bits_scanned"));
  EXPECT_EQ(after.counter("ingest.sidecar_loads"),
            before.counter("ingest.sidecar_loads") + 1);

  std::remove(gz.c_str());
  std::remove(sidecar.c_str());
}

TEST(IngestGzip, SidecarRoundTripsThroughSerialization) {
  const Bytes input = datagen::wikipedia(300000);
  const Bytes file = gzip_store_member(ByteSpan(input.data(), input.size()));
  auto src = serve::memory_source(ByteSpan(file.data(), file.size()));
  ingest::GzipIndexOptions gopt;
  gopt.chunk_size = 64 * 1024;
  const ingest::GzipIndex index = ingest::GzipIndex::build(*src, gopt);
  const Bytes blob = index.serialize();
  const ingest::GzipIndex back =
      ingest::GzipIndex::deserialize(ByteSpan(blob.data(), blob.size()));
  ASSERT_EQ(back.num_chunks(), index.num_chunks());
  ASSERT_EQ(back.total_uncompressed(), index.total_uncompressed());
  ASSERT_EQ(back.source_size(), index.source_size());
  for (std::size_t i = 0; i < index.num_chunks(); ++i) {
    EXPECT_EQ(back.chunk(i).start_bit, index.chunk(i).start_bit);
    EXPECT_EQ(back.chunk(i).uncomp_size, index.chunk(i).uncomp_size);
  }
}

TEST(IngestGzip, WrongSidecarFlavorIsRejected) {
  const Bytes input = datagen::wikipedia(50000);
  const Bytes gzfile = gzip_store_member(ByteSpan(input.data(), input.size()));
  const std::string gz = temp_path("wrong.gz");
  write_file(gz, ByteSpan(gzfile.data(), gzfile.size()));

  // A native .gmpx sidecar offered for a gzip container must not be
  // silently accepted (nor silently rebuilt).
  const Bytes native = compress(ByteSpan(input.data(), input.size()), {});
  const std::string gmpx = temp_path("wrong.gmpx");
  {
    auto nsrc = serve::memory_source(ByteSpan(native.data(), native.size()));
    serve::SeekIndex::build(*nsrc).save(gmpx);
  }
  OpenOptions opt;
  opt.sidecar_path = gmpx;
  EXPECT_THROW(open(gz, opt), FormatError);
  std::remove(gz.c_str());
  std::remove(gmpx.c_str());
}

// --------------------------------------------------------- chaos soak

TEST(IngestGzip, TransientFaultsAreAbsorbed) {
  const Bytes input = datagen::wikipedia(250000);
  const Bytes file = gzip_store_member(ByteSpan(input.data(), input.size()));
  const int trials = testing::fuzz_trials(2);
  for (int trial = 0; trial < trials; ++trial) {
    auto faulty = std::make_unique<serve::FaultInjectingByteSource>(
        serve::memory_source(ByteSpan(file.data(), file.size())));
    serve::FaultInjectingByteSource* handle = faulty.get();
    OpenOptions opt;
    opt.session.num_threads = 2;
    opt.session.cache_blocks = 2;  // force re-decodes (fresh faults)
    opt.session.sleep_hook = [](std::uint64_t) {};
    opt.gzip.chunk_size = 48 * 1024;
    auto session = open(std::move(faulty), opt);

    // Armed after the scan; burst 2 < max_attempts 3 makes absorption a
    // certainty, not a probability (same contract as test_chaos).
    handle->set_random_transients(/*rate=*/0.3, /*burst=*/2,
                                  /*seed=*/500u + static_cast<unsigned>(trial));

    Bytes out(session->size());
    ASSERT_EQ(session->read_at(0, MutableByteSpan(out.data(), out.size())),
              out.size());
    EXPECT_EQ(out, input) << "trial " << trial;
    const serve::SessionStats st = session->stats();
    EXPECT_EQ(st.permanent_errors, 0u);
  }
}

// ------------------------------------------------------ pipe fallback

TEST(IngestGzip, PipeFallbackDecodesSequentially) {
  const Bytes a = datagen::wikipedia(150000);
  const Bytes b = datagen::random_bytes(30000, 11);
  Bytes file = gzip_store_member(ByteSpan(a.data(), a.size()));
  const Bytes second = gzip_store_member(ByteSpan(b.data(), b.size()));
  file.insert(file.end(), second.begin(), second.end());

  SequentialBuf buf(std::string(reinterpret_cast<const char*>(file.data()),
                                file.size()));
  std::istream in(&buf);
  ASSERT_EQ(in.tellg(), std::istream::pos_type(-1));  // really not seekable
  in.clear();
  std::ostringstream out;
  const std::uint64_t n = decompress_stream(in, out);
  ASSERT_EQ(n, a.size() + b.size());
  const std::string& s = out.str();
  EXPECT_TRUE(std::equal(a.begin(), a.end(),
                         reinterpret_cast<const std::uint8_t*>(s.data())));
  EXPECT_TRUE(std::equal(
      b.begin(), b.end(),
      reinterpret_cast<const std::uint8_t*>(s.data()) + a.size()));
}

TEST(IngestGzip, SeekableStreamUsesTheSessionPath) {
  const Bytes input = datagen::wikipedia(120000);
  const Bytes file = gzip_store_member(ByteSpan(input.data(), input.size()));
  std::istringstream in(
      std::string(reinterpret_cast<const char*>(file.data()), file.size()));
  std::ostringstream out;
  const std::uint64_t n = decompress_stream(in, out);
  EXPECT_EQ(n, input.size());
  EXPECT_EQ(out.str(),
            std::string(reinterpret_cast<const char*>(input.data()),
                        input.size()));
  // The cursor lands just past the stream, as sequential use expects.
  EXPECT_EQ(static_cast<std::uint64_t>(in.tellg()), file.size());
}

// ------------------------------------------------------- random reads

TEST(IngestGzip, RandomRangeReadsMatchReference) {
  const Bytes input = datagen::wikipedia(600000);
  const Bytes file = gzip_store_member(ByteSpan(input.data(), input.size()));
  OpenOptions opt;
  opt.session.num_threads = 2;
  opt.gzip.chunk_size = 64 * 1024;
  auto session =
      open(serve::memory_source(ByteSpan(file.data(), file.size())), opt);
  Rng rng(77);
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t off = rng.next_u64() % input.size();
    const std::size_t len = static_cast<std::size_t>(
        std::min<std::uint64_t>(1 + rng.next_u64() % 5000, input.size() - off));
    Bytes got(len);
    ASSERT_EQ(session->read_at(off, MutableByteSpan(got.data(), got.size())),
              len);
    EXPECT_TRUE(std::equal(got.begin(), got.end(),
                           input.begin() + static_cast<long>(off)));
  }
}

}  // namespace
}  // namespace gompresso
