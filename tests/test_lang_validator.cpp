// Unit + differential tests: procedure A1 (streaming structure validator).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "qols/lang/ldisj_instance.hpp"
#include "qols/lang/structure_validator.hpp"
#include "qols/stream/symbol_stream.hpp"

namespace {

using namespace qols::lang;
using qols::stream::StringStream;
using qols::stream::Symbol;
using qols::util::Rng;

bool shape_reference(const std::string& word);

bool validate(const std::string& word) {
  StructureValidator v;
  StringStream s(word);
  while (auto sym = s.next()) v.feed(*sym);
  return v.finish();
}

TEST(Validator, AcceptsWellFormedWords) {
  Rng rng(1);
  for (unsigned k = 1; k <= 3; ++k) {
    auto inst = LDisjInstance::make_disjoint(k, rng);
    EXPECT_TRUE(validate(inst.render())) << "k=" << k;
    auto bad = LDisjInstance::make_with_intersections(k, 1, rng);
    // Shape is independent of disjointness: intersecting words still pass A1.
    EXPECT_TRUE(validate(bad.render())) << "k=" << k;
  }
}

TEST(Validator, RejectsEmptyAndTrivialWords) {
  EXPECT_FALSE(validate(""));
  EXPECT_FALSE(validate("#"));
  EXPECT_FALSE(validate("1"));
  EXPECT_FALSE(validate("1#"));
  EXPECT_FALSE(validate("0#"));
}

TEST(Validator, RejectsZeroInPrefix) {
  EXPECT_FALSE(validate("10#0101#0101#0101#0101#0101#0101#"));
}

TEST(Validator, RejectsShortBlock) {
  // k=1 wants blocks of length 4; one block has 3 bits.
  EXPECT_FALSE(validate("1#101#0101#1010#1010#0101#1010#"));
}

TEST(Validator, RejectsLongBlock) {
  EXPECT_FALSE(validate("1#10101#0101#1010#1010#0101#1010#"));
}

TEST(Validator, RejectsWrongBlockCount) {
  // k=1 wants 6 blocks; give 5.
  EXPECT_FALSE(validate("1#1010#0101#1010#1010#0101#"));
  // ... and 7.
  EXPECT_FALSE(validate("1#1010#0101#1010#1010#0101#1010#0101#"));
}

TEST(Validator, RejectsTrailingSymbols) {
  Rng rng(2);
  auto inst = LDisjInstance::make_disjoint(1, rng);
  EXPECT_FALSE(validate(inst.render() + "0"));
  EXPECT_FALSE(validate(inst.render() + "#"));
}

TEST(Validator, RejectsTruncation) {
  Rng rng(3);
  auto inst = LDisjInstance::make_disjoint(1, rng);
  const std::string word = inst.render();
  for (std::size_t cut = 1; cut < word.size(); ++cut) {
    ASSERT_FALSE(validate(word.substr(0, cut))) << "cut=" << cut;
  }
}

TEST(Validator, ExposesKAfterPrefix) {
  StructureValidator v;
  v.feed(Symbol::kOne);
  v.feed(Symbol::kOne);
  EXPECT_FALSE(v.k().has_value());
  v.feed(Symbol::kSep);
  ASSERT_TRUE(v.k().has_value());
  EXPECT_EQ(*v.k(), 2u);
}

TEST(Validator, FailureIsSticky) {
  StructureValidator v;
  v.feed(Symbol::kZero);  // immediate prefix violation
  EXPECT_TRUE(v.failed());
  v.feed(Symbol::kOne);
  v.feed(Symbol::kSep);
  EXPECT_TRUE(v.failed());
  EXPECT_FALSE(v.finish());
}

TEST(Validator, SpaceIsLogarithmic) {
  // The validator's work memory must grow linearly in k (i.e. O(log n)).
  Rng rng(4);
  std::uint64_t prev = 0;
  for (unsigned k = 1; k <= 4; ++k) {
    auto inst = LDisjInstance::make_disjoint(k, rng);
    StructureValidator v;
    auto s = inst.stream();
    while (auto sym = s->next()) v.feed(*sym);
    const std::uint64_t bits = v.classical_bits_used();
    EXPECT_LE(bits, 16 * k + 16) << "k=" << k;
    EXPECT_GE(bits, prev);  // monotone in k
    prev = bits;
  }
}

// Differential property test: on random mutated words the validator agrees
// with an oracle that checks shape only (not consistency/disjointness).
bool shape_reference(const std::string& word) {
  std::size_t pos = 0;
  while (pos < word.size() && word[pos] == '1') ++pos;
  const std::size_t k = pos;
  if (k < 1 || k > 20 || pos >= word.size() || word[pos] != '#') return false;
  ++pos;
  const std::uint64_t m = std::uint64_t{1} << (2 * k);
  const std::uint64_t blocks = 3 * (std::uint64_t{1} << k);
  for (std::uint64_t b = 0; b < blocks; ++b) {
    if (pos + m + 1 > word.size()) return false;
    for (std::uint64_t i = 0; i < m; ++i) {
      if (word[pos + i] != '0' && word[pos + i] != '1') return false;
    }
    if (word[pos + m] != '#') return false;
    pos += m + 1;
  }
  return pos == word.size();
}

class ValidatorDifferential : public ::testing::TestWithParam<int> {};

TEST_P(ValidatorDifferential, AgreesWithShapeOracleOnMutants) {
  Rng rng(1000 + GetParam());
  auto inst = LDisjInstance::make_disjoint(1 + GetParam() % 3, rng);
  const std::string word = inst.render();
  // Random single-character mutations (substitute / delete / insert).
  for (int trial = 0; trial < 40; ++trial) {
    std::string mutated = word;
    const std::size_t pos = rng.below(mutated.size());
    const char repl[] = {'0', '1', '#'};
    switch (rng.below(3)) {
      case 0:
        mutated[pos] = repl[rng.below(3)];
        break;
      case 1:
        mutated.erase(pos, 1);
        break;
      case 2:
        mutated.insert(pos, 1, repl[rng.below(3)]);
        break;
    }
    ASSERT_EQ(validate(mutated), shape_reference(mutated))
        << "trial " << trial << " word " << mutated;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValidatorDifferential, ::testing::Range(0, 8));

// --- the tape head: chunked events == per-symbol events ---------------------

/// One cursor event; a run's symbols are kept as text.
struct Event {
  char kind;  // 'p' prefix, 'r' run, 'e' block end
  std::uint64_t rep = 0;
  unsigned block = 0;
  std::uint64_t offset = 0;  // k for a prefix event
  std::string bits;

  bool operator==(const Event&) const = default;
};

/// Records events with adjacent pieces of one run joined: per-symbol feeding
/// delivers a run one bit at a time, a chunk in pieces cut at its edges, and
/// both must tile the same offsets with the same symbols. Checks each piece
/// on arrival: non-empty, no separator, and never past m.
struct Recorder {
  std::vector<Event> events;
  std::uint64_t m = 0;

  void on_prefix(unsigned k) {
    m = std::uint64_t{1} << (2 * k);
    events.push_back({'p', 0, 0, k, {}});
  }
  void on_run(std::uint64_t rep, unsigned block, std::uint64_t offset,
              std::span<const Symbol> run) {
    ASSERT_FALSE(run.empty());
    ASSERT_LE(offset + run.size(), m);
    std::string bits;
    for (const Symbol s : run) {
      ASSERT_NE(s, Symbol::kSep);
      bits.push_back(qols::stream::symbol_to_char(s));
    }
    if (!events.empty()) {
      Event& last = events.back();
      if (last.kind == 'r' && last.rep == rep && last.block == block &&
          last.offset + last.bits.size() == offset) {
        last.bits += bits;
        return;
      }
    }
    events.push_back({'r', rep, block, offset, bits});
  }
  void on_block_end(std::uint64_t rep, unsigned block) {
    events.push_back({'e', rep, block, 0, {}});
  }
};

struct Tape {
  std::vector<Event> events;
  bool accepted = false;
  bool failed = false;
  std::vector<std::uint8_t> snapshot;

  bool operator==(const Tape&) const = default;
};

/// Feeds `word` in chunks of `chunk` symbols (0 = symbol by symbol).
Tape run_tape(const std::vector<Symbol>& word, std::size_t chunk) {
  StructureValidator v;
  Recorder rec;
  if (chunk == 0) {
    for (const Symbol s : word) v.feed(s, rec);
  } else {
    const std::span<const Symbol> all(word);
    for (std::size_t at = 0; at < all.size(); at += chunk) {
      v.feed_chunk(all.subspan(at, std::min(chunk, all.size() - at)), rec);
    }
  }
  qols::util::serde::ByteWriter w;
  v.snapshot_to(w);
  return {rec.events, v.finish(), v.failed(), w.take()};
}

std::vector<Symbol> symbols_of(const std::string& word) {
  std::vector<Symbol> out;
  for (const char c : word) out.push_back(*qols::stream::symbol_from_char(c));
  return out;
}

void expect_chunk_invariant(const std::string& word) {
  const std::vector<Symbol> symbols = symbols_of(word);
  const Tape want = run_tape(symbols, 0);
  // A1's verdict is the shape oracle's, whatever the chunking.
  ASSERT_EQ(want.accepted, shape_reference(word)) << word;
  std::vector<std::size_t> chunks;
  for (std::size_t c = 1; c <= 17; ++c) chunks.push_back(c);
  chunks.push_back(std::max<std::size_t>(symbols.size(), 1));
  for (const std::size_t c : chunks) {
    ASSERT_EQ(run_tape(symbols, c), want) << "chunk " << c << " word " << word;
  }
}

TEST(TapeHead, MembersEmitOneRunAndOneEndPerBlock) {
  Rng rng(20);
  for (unsigned k = 1; k <= 3; ++k) {
    for (const auto& inst :
         {LDisjInstance::make_disjoint(k, rng),
          LDisjInstance::make_with_intersections(k, 2, rng)}) {
      const std::string word = inst.render();
      expect_chunk_invariant(word);
      const std::uint64_t m = std::uint64_t{1} << (2 * k);
      const Tape tape = run_tape(symbols_of(word), 0);
      ASSERT_EQ(tape.events.size(), 1 + 2 * 3 * (std::size_t{1} << k));
      EXPECT_EQ(tape.events[0], (Event{'p', 0, 0, k, {}}));
      for (std::size_t b = 0; b < 3 * (std::size_t{1} << k); ++b) {
        const Event& run = tape.events[1 + 2 * b];
        const std::string block = word.substr(k + 1 + b * (m + 1), m);
        EXPECT_EQ(run, (Event{'r', b / 3, static_cast<unsigned>(b % 3), 0,
                              block}));
        EXPECT_EQ(tape.events[2 + 2 * b],
                  (Event{'e', b / 3, static_cast<unsigned>(b % 3), 0, {}}));
      }
    }
  }
}

TEST(TapeHead, EveryMutantKindEmitsTheSameEventsAtEveryChunking) {
  Rng rng(21);
  for (const MutantKind kind :
       {MutantKind::kBadPrefix, MutantKind::kTrailingGarbage,
        MutantKind::kXZMismatch, MutantKind::kYDrift, MutantKind::kTruncated,
        MutantKind::kSepInsideBlock}) {
    for (unsigned k = 1; k <= 2; ++k) {
      for (int trial = 0; trial < 3; ++trial) {
        const auto inst = LDisjInstance::make_disjoint(k, rng);
        auto mutant = make_mutant_stream(inst, kind, rng);
        expect_chunk_invariant(qols::stream::materialize(*mutant));
      }
    }
  }
}

TEST(TapeHead, BrokenWordsEmitTheSameEventsAtEveryChunking) {
  Rng rng(22);
  const std::string member = LDisjInstance::make_disjoint(1, rng).render();
  const std::string body = member.substr(2);  // after "1#"
  const std::vector<std::string> words = {
      "",                                        // empty
      "#" + body,                                // k = 0
      "10#" + body,                              // a '0' in the prefix
      "1101#" + body,                            // a '0' among the ones
      std::string(20, '1') + "#0101#",           // k = 20, then a short block
      std::string(21, '1') + "#" + body,         // one '1' past kMaxK
      "1#010#" + body.substr(5),                 // short first block
      "1#01010#" + body.substr(5),               // overlong first block
      "1#0101" + std::string(30, '0') + "#",     // overlong by a long run
      "1#0101##" + body.substr(5),               // empty block
      member + "0",                              // data after the final '#'
      member + "#",                              // separator after it
      member + "0101#",                          // a whole extra block
      "1#0101#01",                               // ends inside a block
  };
  for (const std::string& word : words) expect_chunk_invariant(word);
  // Events stop where A1 rejects: the k = 20 word announces its prefix, then
  // hands over the short block's four bits, and never closes the block.
  const Tape k20 = run_tape(symbols_of(std::string(20, '1') + "#0101#"), 0);
  ASSERT_EQ(k20.events.size(), 2u);
  EXPECT_EQ(k20.events[0], (Event{'p', 0, 0, 20, {}}));
  EXPECT_EQ(k20.events[1], (Event{'r', 0, 0, 0, "0101"}));
  EXPECT_TRUE(k20.failed);
  // Past kMaxK no prefix is announced at all.
  EXPECT_TRUE(run_tape(symbols_of(std::string(21, '1') + "#"), 0)
                  .events.empty());
  // An overlong run is cut at m, exactly where per-symbol feeding fails.
  const Tape overlong = run_tape(symbols_of("1#01010#"), 8);
  ASSERT_EQ(overlong.events.size(), 2u);
  EXPECT_EQ(overlong.events[1], (Event{'r', 0, 0, 0, "0101"}));
}

TEST(TapeHead, RestoreRefusesInconsistentState) {
  StructureValidator v;
  for (const Symbol s : symbols_of("11#0110")) v.feed(s);
  qols::util::serde::ByteWriter w;
  v.snapshot_to(w);
  const std::vector<std::uint8_t> good = w.take();
  {
    StructureValidator back;
    qols::util::serde::ByteReader r(good);
    back.restore_from(r);
    EXPECT_EQ(back.k(), v.k());
  }
  // Bytes: phase (1), k (4), m (8), rep (8), block (4), pos (8).
  const auto refuses = [](std::vector<std::uint8_t> bytes) {
    StructureValidator back;
    qols::util::serde::ByteReader r(bytes);
    EXPECT_THROW(back.restore_from(r), qols::util::serde::DecodeError);
  };
  auto bad = good;
  bad[0] = 9;  // no such phase
  refuses(bad);
  bad = good;
  bad[5] ^= 1;  // m no longer 2^{2k}
  refuses(bad);
  bad = good;
  bad[21] = 3;  // block id past z
  refuses(bad);
  bad = good;
  bad[25] = 17;  // position past m = 16
  refuses(bad);
}

}  // namespace
