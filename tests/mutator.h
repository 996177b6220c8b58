#ifndef CLASSMINER_TESTS_MUTATOR_H_
#define CLASSMINER_TESTS_MUTATOR_H_

// Seeded hostile-input generator for the in-tree mutation harness. It
// damages a valid encoding of some format the four ways real damage and
// hostile peers do: bit flips, truncations, splices with another valid
// encoding, and length or count fields that lie. A format describes a
// valid encoding as a Sample: its bytes plus the offsets of the u32
// little-endian length and count fields a parser trusts, so the lies land
// where they hurt. Every decision derives from one seed, so a failing case
// replays from (seed, case index) with no saved corpus.
//
// The mutator knows nothing about any one format: pointing it at another
// (a CMV container, a CMDB database, a CMSL shard log) means building
// Samples of that format and feeding Mutate's output to its parser.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

namespace classminer::mutation {

struct Sample {
  std::vector<uint8_t> bytes;
  std::vector<size_t> length_fields;  // offsets of u32 LE length/count fields
};

enum class Damage { kBitFlip, kTruncate, kSplice, kLengthLie };

inline const char* DamageName(Damage damage) {
  switch (damage) {
    case Damage::kBitFlip:
      return "bit flip";
    case Damage::kTruncate:
      return "truncation";
    case Damage::kSplice:
      return "splice";
    case Damage::kLengthLie:
      return "length lie";
  }
  return "unknown";
}

class Mutator {
 public:
  explicit Mutator(uint64_t seed) : state_(seed) {}

  // Uniform-enough value in [0, n); n must be positive.
  uint64_t Below(uint64_t n) { return Next() % n; }

  // A damaged copy of `sample`. A splice keeps a prefix of `sample` and
  // appends a suffix of `donor`. `applied`, when non-null, receives the
  // damage done (a length lie on a sample without length fields falls back
  // to a bit flip).
  std::vector<uint8_t> Mutate(const Sample& sample, const Sample& donor,
                              Damage* applied = nullptr) {
    Damage damage = static_cast<Damage>(Below(4));
    if (damage == Damage::kLengthLie && !HasLengthField(sample)) {
      damage = Damage::kBitFlip;
    }
    if (sample.bytes.empty() && damage != Damage::kSplice) {
      damage = Damage::kSplice;
    }
    if (applied != nullptr) *applied = damage;
    std::vector<uint8_t> out = sample.bytes;
    switch (damage) {
      case Damage::kBitFlip: {
        const uint64_t flips = 1 + Below(8);
        for (uint64_t i = 0; i < flips; ++i) {
          out[Below(out.size())] ^= static_cast<uint8_t>(1u << Below(8));
        }
        break;
      }
      case Damage::kTruncate:
        out.resize(Below(out.size()));
        break;
      case Damage::kSplice: {
        out.resize(Below(out.size() + 1));
        const size_t from = Below(donor.bytes.size() + 1);
        out.insert(out.end(), donor.bytes.begin() + from, donor.bytes.end());
        break;
      }
      case Damage::kLengthLie: {
        size_t offset;
        do {
          offset = sample.length_fields[Below(sample.length_fields.size())];
        } while (offset + 4 > out.size());
        const uint32_t truth = ReadU32(out, offset);
        const uint32_t remaining =
            static_cast<uint32_t>(out.size() - offset - 4);
        const uint32_t lies[] = {0,
                                 0xffffffffu,
                                 0x7fffffffu,
                                 truth + 1,
                                 truth - 1,
                                 remaining + 1,
                                 remaining / 4 + 1,
                                 static_cast<uint32_t>(Next())};
        WriteU32(&out, offset, lies[Below(std::size(lies))]);
        break;
      }
    }
    return out;
  }

  // The u32 little-endian field at `offset` (formats that checksum their
  // records use these to re-seal damage behind a valid CRC).
  static uint32_t ReadU32(const std::vector<uint8_t>& bytes, size_t offset) {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(bytes[offset + i]) << (8 * i);
    }
    return v;
  }

  static void WriteU32(std::vector<uint8_t>* bytes, size_t offset,
                       uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      (*bytes)[offset + i] = static_cast<uint8_t>(v >> (8 * i));
    }
  }

  // Cuts `size` bytes into consecutive pieces of 1..max_piece bytes: the
  // short reads of a dribbling peer.
  std::vector<size_t> Dribble(size_t size, size_t max_piece) {
    std::vector<size_t> pieces;
    while (size > 0) {
      const size_t piece = std::min<size_t>(size, 1 + Below(max_piece));
      pieces.push_back(piece);
      size -= piece;
    }
    return pieces;
  }

 private:
  // splitmix64: fixed output for a fixed seed on every platform.
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  static bool HasLengthField(const Sample& sample) {
    for (size_t offset : sample.length_fields) {
      if (offset + 4 <= sample.bytes.size()) return true;
    }
    return false;
  }

  uint64_t state_;
};

}  // namespace classminer::mutation

#endif  // CLASSMINER_TESTS_MUTATOR_H_
