// The benchmark's own corpus generator: Wikipedia-like XML text, in the
// style of the library's datagen::make_wikipedia_xml but owned here, so
// a change to the library cannot change the benchmark's inputs.
//
// The language (a 16384-word vocabulary, Zipf s = 1.05) is fixed; the
// seed picks the text drawn from it. A seed therefore changes the bytes
// but not their statistics, and a 64 MiB sample of one language has the
// same compression ratio and decode cost whatever the seed. (Seeding the
// vocabulary too moves the ratio by ~2% and decode speed by ~10% from
// seed to seed, because the lengths of the most frequent words change.)
#include <cmath>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kVocabulary = 16384;
constexpr double kZipfS = 1.05;
constexpr std::uint64_t kLanguageSeed = 0x57696B69ULL;  // "Wiki"

/// xoshiro128+-style generator seeded through splitmix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    s0_ = splitmix(seed);
    s1_ = splitmix(seed);
  }
  std::uint64_t next() {
    std::uint64_t s1 = s0_;
    const std::uint64_t s0 = s1_;
    const std::uint64_t out = s0 + s1;
    s0_ = s0;
    s1 ^= s1 << 23;
    s1_ = s1 ^ s0 ^ (s1 >> 18) ^ (s0 >> 5);
    return out;
  }
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  static std::uint64_t splitmix(std::uint64_t& x) {
    std::uint64_t z = (x += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  std::uint64_t s0_ = 0, s1_ = 0;
};

std::vector<std::string> make_vocabulary() {
  static const char* kConsonants = "bcdfghjklmnpqrstvwz";
  static const char* kVowels = "aeiou";
  Rng rng(kLanguageSeed);
  std::vector<std::string> words;
  words.reserve(kVocabulary);
  for (std::size_t i = 0; i < kVocabulary; ++i) {
    const std::size_t len = 2 + rng.below(3) + (i < 64 ? 0 : (i < 1024 ? 2 : 4) + rng.below(4));
    std::string w;
    for (std::size_t k = 0; k < len; ++k) {
      w.push_back(k % 2 == 0 ? kConsonants[rng.below(19)] : kVowels[rng.below(5)]);
    }
    words.push_back(std::move(w));
  }
  return words;
}

std::vector<double> zipf_cdf() {
  std::vector<double> cdf(kVocabulary);
  double sum = 0.0;
  for (std::size_t i = 0; i < kVocabulary; ++i) sum += 1.0 / std::pow(double(i + 1), kZipfS);
  double acc = 0.0;
  for (std::size_t i = 0; i < kVocabulary; ++i) {
    acc += 1.0 / std::pow(double(i + 1), kZipfS) / sum;
    cdf[i] = acc;
  }
  cdf.back() = 1.0;
  return cdf;
}

void append(Bytes& out, const std::string& s) { out.insert(out.end(), s.begin(), s.end()); }

}  // namespace

const std::size_t kCorpusBytes = std::size_t{64} << 20;

Bytes make_corpus(std::uint64_t seed) {
  const std::size_t size = kCorpusBytes;
  static const std::vector<std::string> vocab = make_vocabulary();
  static const std::vector<double> cdf = zipf_cdf();
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x1234567ULL);
  const auto word = [&]() -> const std::string& {
    const double u = rng.unit();
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    return vocab[static_cast<std::size_t>(it - cdf.begin())];
  };

  Bytes out;
  out.reserve(size + 4096);
  append(out, "<mediawiki xmlns=\"http://www.mediawiki.org/xml/export-0.10/\" "
              "xml:lang=\"en\">\n  <siteinfo>\n    <sitename>Wikipedia</sitename>\n"
              "    <dbname>enwiki</dbname>\n  </siteinfo>\n");
  std::uint64_t page_id = 1000 + rng.below(100000);
  std::uint64_t rev_id = 90000000;
  while (out.size() < size) {
    append(out, "  <page>\n    <title>");
    append(out, word());
    out.push_back(' ');
    append(out, word());
    append(out, "</title>\n    <ns>0</ns>\n    <id>");
    append(out, std::to_string(page_id++));
    append(out, "</id>\n    <revision>\n      <id>");
    append(out, std::to_string(rev_id));
    rev_id += 1 + rng.below(97);
    append(out, "</id>\n      <timestamp>2016-0");
    append(out, std::to_string(1 + rng.below(9)));
    append(out, "-");
    append(out, std::to_string(10 + rng.below(18)));
    append(out, "T12:00:00Z</timestamp>\n      <text xml:space=\"preserve\">");
    const std::size_t paragraphs = 2 + rng.below(5);
    for (std::size_t p = 0; p < paragraphs && out.size() < size; ++p) {
      if (rng.below(3) == 0) {
        append(out, "== ");
        append(out, word());
        append(out, " ==\n");
      }
      const std::size_t sentences = 3 + rng.below(6);
      for (std::size_t s = 0; s < sentences && out.size() < size; ++s) {
        const std::size_t words = 6 + rng.below(12);
        for (std::size_t w = 0; w < words; ++w) {
          const std::uint64_t style = rng.below(40);
          if (style == 0) {
            append(out, "[[");
            append(out, word());
            append(out, "]]");
          } else if (style == 1) {
            append(out, "''");
            append(out, word());
            append(out, "''");
          } else {
            append(out, word());
          }
          out.push_back(w + 1 == words ? '.' : ' ');
        }
        out.push_back(' ');
      }
      out.push_back('\n');
    }
    append(out, "</text>\n    </revision>\n  </page>\n");
  }
  out.resize(size);
  return out;
}

}  // namespace perfbench
