// Unit + property tests: polynomial fingerprints and procedure A2.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "qols/fingerprint/equality_checker.hpp"
#include "qols/fingerprint/poly_fingerprint.hpp"
#include "qols/lang/ldisj_instance.hpp"
#include "qols/lang/structure_validator.hpp"
#include "qols/stream/symbol_stream.hpp"
#include "qols/util/modmath.hpp"

namespace {

using namespace qols::fingerprint;
using qols::lang::LDisjInstance;
using qols::lang::make_mutant_stream;
using qols::lang::MutantKind;
using qols::stream::StringStream;
using qols::util::BitVec;
using qols::util::Rng;

TEST(PolyFingerprint, MatchesDirectEvaluation) {
  const std::uint64_t p = 1000003, t = 777;
  PolyFingerprint f(p, t);
  const std::string bits = "1011001110";
  std::uint64_t expect = 0, tp = 1;
  for (char c : bits) {
    if (c == '1') expect = qols::util::addmod(expect, tp, p);
    tp = qols::util::mulmod(tp, t, p);
    f.feed(c == '1');
  }
  EXPECT_EQ(f.value(), expect);
}

TEST(PolyFingerprint, EqualStringsAlwaysCollide) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const std::uint64_t p = qols::util::fingerprint_prime(2);
    const std::uint64_t t = rng.below(p);
    BitVec w = BitVec::random(64, rng);
    PolyFingerprint a(p, t), b(p, t);
    for (std::size_t i = 0; i < w.size(); ++i) {
      a.feed(w.get(i));
      b.feed(w.get(i));
    }
    ASSERT_EQ(a.value(), b.value());
  }
}

TEST(PolyFingerprint, BulkFeedIsBitIdenticalToPerBitFeed) {
  // The batched Horner pass must produce the exact accumulator and t-power
  // of per-bit feeding, at every split point and for ragged lane tails
  // (lengths straddling the 8-lane groups), interleaved with per-bit calls.
  Rng rng(42);
  for (const unsigned k : {1u, 2u, 4u, 8u}) {
    const std::uint64_t p = qols::util::fingerprint_prime(k);
    for (int trial = 0; trial < 10; ++trial) {
      const std::uint64_t t = rng.below(p);
      const std::size_t len = 1 + rng.below(200);
      std::vector<std::uint8_t> bits(len);
      for (auto& b : bits) b = static_cast<std::uint8_t>(rng.below(2));

      PolyFingerprint reference(p, t);
      for (const auto b : bits) reference.feed_counted(b != 0);

      const std::size_t cut = rng.below(len + 1);
      PolyFingerprint bulk(p, t);
      bulk.feed_counted_bulk(bits.data(), cut);
      if (cut < len) bulk.feed_counted(bits[cut] != 0);  // interleave
      if (cut + 1 < len) {
        bulk.feed_counted_bulk(bits.data() + cut + 1, len - cut - 1);
      }

      ASSERT_EQ(bulk.value(), reference.value())
          << "k=" << k << " len=" << len << " cut=" << cut;
      ASSERT_EQ(bulk.length(), reference.length());
      // Continuations must also agree: the t-power advanced identically.
      bulk.feed_counted(true);
      reference.feed_counted(true);
      ASSERT_EQ(bulk.value(), reference.value());
    }
  }
}

TEST(PolyFingerprint, BulkFeedFallsBackAboveTheMontgomeryCeiling) {
  // Montgomery REDC is only valid for moduli below 2^63; an odd p above
  // that must take the per-bit path and still match it exactly.
  const std::uint64_t p = (std::uint64_t{1} << 63) + 29;  // odd, >= 2^63
  const std::uint64_t t = 0x123456789abcdefULL;
  std::vector<std::uint8_t> bits(70);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    bits[i] = static_cast<std::uint8_t>((i * 7 + 3) % 5 < 2);
  }
  PolyFingerprint reference(p, t), bulk(p, t);
  for (const auto b : bits) reference.feed_counted(b != 0);
  bulk.feed_counted_bulk(bits.data(), bits.size());
  EXPECT_EQ(bulk.value(), reference.value());
  EXPECT_EQ(bulk.length(), reference.length());
}

TEST(PolyFingerprint, BulkFeedFallsBackOnEvenModulus) {
  // Montgomery needs an odd modulus; even p must take the per-bit path and
  // still agree with it.
  const std::uint64_t p = 1000000, t = 777;
  std::vector<std::uint8_t> bits = {1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1};
  PolyFingerprint reference(p, t), bulk(p, t);
  for (const auto b : bits) reference.feed_counted(b != 0);
  bulk.feed_counted_bulk(bits.data(), bits.size());
  EXPECT_EQ(bulk.value(), reference.value());
  EXPECT_EQ(bulk.length(), reference.length());
}

TEST(PolyFingerprint, ResetClearsState) {
  PolyFingerprint f(97, 5);
  f.feed(true);
  f.feed(true);
  f.reset();
  EXPECT_EQ(f.value(), 0u);
  f.feed(true);
  EXPECT_EQ(f.value(), 1u);  // t^0 = 1
}

TEST(PolyFingerprint, CollisionRateIsBoundedByTheory) {
  // Distinct strings of length m collide on random t with prob <= (m-1)/p.
  Rng rng(2);
  const unsigned k = 1;  // p in (2^4, 2^5): tiny field, so collisions happen
  const std::uint64_t p = qols::util::fingerprint_prime(k);
  const std::uint64_t m = 16;
  int collisions = 0;
  constexpr int kTrials = 4000;
  for (int trial = 0; trial < kTrials; ++trial) {
    BitVec a = BitVec::random(m, rng);
    BitVec b = BitVec::random(m, rng);
    if (a == b) {
      --trial;
      continue;
    }
    const std::uint64_t t = rng.below(p);
    PolyFingerprint fa(p, t), fb(p, t);
    for (std::uint64_t i = 0; i < m; ++i) {
      fa.feed(a.get(i));
      fb.feed(b.get(i));
    }
    if (fa.value() == fb.value()) ++collisions;
  }
  const double rate = collisions / static_cast<double>(kTrials);
  const double bound = static_cast<double>(m - 1) / static_cast<double>(p);
  // Allow generous sampling slack above the analytic bound.
  EXPECT_LE(rate, bound + 0.03);
}

// --- A2 ---------------------------------------------------------------------

// A2 reads the word through the tape head it shares with A1.
void feed_a2(EqualityChecker& a2, qols::stream::SymbolStream& s) {
  qols::lang::StructureValidator tape;
  while (auto sym = s.next()) tape.feed(*sym, a2);
}

bool run_a2(const std::string& word, std::uint64_t seed) {
  EqualityChecker a2{Rng(seed)};
  StringStream s(word);
  feed_a2(a2, s);
  return a2.passed();
}

TEST(EqualityChecker, PassesConsistentWordsAlways) {
  Rng rng(3);
  for (unsigned k = 1; k <= 3; ++k) {
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      auto inst = LDisjInstance::make_disjoint(k, rng);
      ASSERT_TRUE(run_a2(inst.render(), seed)) << "k=" << k;
    }
  }
}

TEST(EqualityChecker, PassesIntersectingButConsistentWords) {
  // A2 checks consistency only — intersections are A3's job.
  Rng rng(4);
  auto inst = LDisjInstance::make_with_intersections(2, 3, rng);
  EXPECT_TRUE(run_a2(inst.render(), 99));
}

TEST(EqualityChecker, CatchesXZMismatchWithHighProbability) {
  Rng rng(5);
  auto inst = LDisjInstance::make_disjoint(2, rng);
  auto mutant = make_mutant_stream(inst, MutantKind::kXZMismatch, rng);
  const std::string word = qols::stream::materialize(*mutant);
  int caught = 0;
  constexpr int kTrials = 200;
  for (int i = 0; i < kTrials; ++i) {
    if (!run_a2(word, 1000 + i)) ++caught;
  }
  // Theory: failure to catch < 2^{-2k} = 1/16 per trial.
  EXPECT_GE(caught, kTrials * 14 / 16);
}

TEST(EqualityChecker, CatchesYDriftWithHighProbability) {
  Rng rng(6);
  auto inst = LDisjInstance::make_disjoint(2, rng);
  auto mutant = make_mutant_stream(inst, MutantKind::kYDrift, rng);
  const std::string word = qols::stream::materialize(*mutant);
  int caught = 0;
  constexpr int kTrials = 200;
  for (int i = 0; i < kTrials; ++i) {
    if (!run_a2(word, 2000 + i)) ++caught;
  }
  EXPECT_GE(caught, kTrials * 14 / 16);
}

TEST(EqualityChecker, ExposesPrimeInPaperInterval) {
  Rng rng(7);
  auto inst = LDisjInstance::make_disjoint(3, rng);
  EqualityChecker a2{Rng(1)};
  StringStream s(inst.render());
  feed_a2(a2, s);
  ASSERT_TRUE(a2.prime().has_value());
  EXPECT_GT(*a2.prime(), 1ULL << 12);  // 2^{4k} with k=3
  EXPECT_LT(*a2.prime(), 1ULL << 13);
  ASSERT_TRUE(a2.point().has_value());
  EXPECT_LT(*a2.point(), *a2.prime());
}

TEST(EqualityChecker, SpaceIsLogarithmic) {
  Rng rng(8);
  for (unsigned k = 1; k <= 4; ++k) {
    auto inst = LDisjInstance::make_disjoint(k, rng);
    EqualityChecker a2{Rng(1)};
    auto s = inst.stream();
    feed_a2(a2, *s);
    EXPECT_LE(a2.classical_bits_used(), 64 * k + 64) << "k=" << k;
  }
}

TEST(EqualityChecker, InertOnBrokenPrefix) {
  // '0' before '#': A2 must not activate (and must not crash).
  EXPECT_TRUE(run_a2("0#1010#", 5));
}

// Parameterized: detection probability across k for single-bit damage.
class A2Detection : public ::testing::TestWithParam<unsigned> {};

TEST_P(A2Detection, CatchRateBeatsPaperBound) {
  const unsigned k = GetParam();
  Rng rng(900 + k);
  auto inst = LDisjInstance::make_disjoint(k, rng);
  auto mutant = make_mutant_stream(inst, MutantKind::kXZMismatch, rng);
  const std::string word = qols::stream::materialize(*mutant);
  constexpr int kTrials = 100;
  int caught = 0;
  for (int i = 0; i < kTrials; ++i) {
    if (!run_a2(word, 5000 + i)) ++caught;
  }
  // Expected catch rate >= 1 - 2^{-2k}; binomial slack of 4 misses allowed.
  const double expect_min = 1.0 - std::pow(2.0, -2.0 * k);
  EXPECT_GE(caught + 4, static_cast<int>(kTrials * expect_min));
}

INSTANTIATE_TEST_SUITE_P(Ks, A2Detection, ::testing::Values(1u, 2u, 3u));

}  // namespace
