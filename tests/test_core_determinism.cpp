// Reproducibility and option-wiring tests for the core machines: identical
// seeds must give identical behaviour (the whole experiment suite depends
// on this), and the recognizer-level gate-sink option must produce a
// replayable Definition 2.3 tape.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "qols/core/classical_recognizers.hpp"
#include "qols/core/quantum_recognizer.hpp"
#include "qols/gates/builder.hpp"
#include "qols/lang/ldisj_instance.hpp"
#include "qols/machine/online_recognizer.hpp"
#include "qols/quantum/circuit.hpp"

namespace {

using qols::core::QuantumOnlineRecognizer;
using qols::lang::LDisjInstance;
using qols::machine::run_stream;
using qols::util::Rng;

TEST(Determinism, SameSeedSameVerdictSequence) {
  Rng rng(1);
  auto inst = LDisjInstance::make_with_intersections(2, 1, rng);
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    QuantumOnlineRecognizer a(seed), b(seed);
    auto sa = inst.stream();
    auto sb = inst.stream();
    ASSERT_EQ(run_stream(*sa, a), run_stream(*sb, b)) << "seed " << seed;
  }
}

TEST(Determinism, SameSeedSameChosenJAndPoint) {
  Rng rng(2);
  auto inst = LDisjInstance::make_disjoint(3, rng);
  QuantumOnlineRecognizer a(99), b(99);
  auto sa = inst.stream();
  auto sb = inst.stream();
  while (auto s = sa->next()) a.feed(*s);
  while (auto s = sb->next()) b.feed(*s);
  EXPECT_EQ(a.a3().chosen_j(), b.a3().chosen_j());
  EXPECT_EQ(a.a2().point(), b.a2().point());
  EXPECT_EQ(a.a2().prime(), b.a2().prime());
}

TEST(Determinism, DifferentSeedsVaryTheCoins) {
  Rng rng(3);
  auto inst = LDisjInstance::make_disjoint(4, rng);  // 2^k = 16 possible j's
  std::set<std::uint64_t> js;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    QuantumOnlineRecognizer rec(seed);
    auto s = inst.stream();
    while (auto sym = s->next()) rec.feed(*sym);
    js.insert(*rec.a3().chosen_j());
  }
  EXPECT_GE(js.size(), 6u);  // coins genuinely vary across seeds
}

TEST(Determinism, InstanceGenerationIsSeedStable) {
  Rng a(7), b(7);
  auto ia = LDisjInstance::make_with_intersections(3, 2, a);
  auto ib = LDisjInstance::make_with_intersections(3, 2, b);
  EXPECT_EQ(ia.x(), ib.x());
  EXPECT_EQ(ia.y(), ib.y());
}

TEST(Determinism, ClassicalMachinesAreSeedStableToo) {
  Rng rng(8);
  auto inst = LDisjInstance::make_with_intersections(3, 1, rng);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    qols::core::ClassicalSamplingRecognizer a(seed, 4), b(seed, 4);
    auto sa = inst.stream();
    auto sb = inst.stream();
    ASSERT_EQ(run_stream(*sa, a), run_stream(*sb, b));
  }
}

TEST(OptionWiring, RecognizerLevelGateSinkEmitsReplayableTape) {
  Rng rng(9);
  auto inst = LDisjInstance::make_with_intersections(1, 1, rng);

  qols::gates::TapeWriterSink tape;
  QuantumOnlineRecognizer::Options opts;
  opts.a3.gate_sink = &tape;
  opts.a3.simulate = true;  // simulate AND emit simultaneously
  QuantumOnlineRecognizer rec(5, opts);
  auto s = inst.stream();
  while (auto sym = s->next()) rec.feed(*sym);
  const double p_accept = rec.exact_acceptance_probability();

  auto circuit = qols::quantum::Circuit::from_tape(tape.tape());
  ASSERT_TRUE(circuit.has_value());
  ASSERT_GT(circuit->size(), 0u);
  qols::quantum::StateVector replay(circuit->qubits_spanned());
  circuit->apply_to(replay);
  // P[accept] = P[l measures 0] on a structurally valid, consistent word.
  const double p_replay = 1.0 - replay.probability_one(2 * 1 + 1);
  EXPECT_NEAR(p_replay, p_accept, 1e-9);
}

TEST(OptionWiring, SpaceReportIncludesAncillasInGateMode) {
  Rng rng(10);
  auto inst = LDisjInstance::make_disjoint(2, rng);
  qols::gates::CountingSink count;
  QuantumOnlineRecognizer::Options opts;
  opts.a3.gate_sink = &count;
  QuantumOnlineRecognizer rec(5, opts);
  auto s = inst.stream();
  while (auto sym = s->next()) rec.feed(*sym);
  // 2k+2 data qubits plus up to 2k compiler ancillas.
  EXPECT_GT(rec.space_used().qubits, 2ULL * 2 + 2);
  EXPECT_LE(rec.space_used().qubits, 4ULL * 2 + 2);
}

TEST(OptionWiring, MaxSimKAutoPicksTheStructuredBackend) {
  // Past the dense ceiling the streamer no longer goes dark: the structured
  // backend picks up the simulation and the decision is still honest.
  QuantumOnlineRecognizer::Options opts;
  opts.a3.max_sim_k = 1;
  QuantumOnlineRecognizer rec(5, opts);
  Rng rng(11);
  auto inst = LDisjInstance::make_disjoint(2, rng);  // k = 2 > max_sim_k
  auto s = inst.stream();
  EXPECT_NO_THROW({
    EXPECT_TRUE(run_stream(*s, rec));  // member: perfect completeness
  });
  ASSERT_NE(rec.a3().simulation_backend(), nullptr);
  EXPECT_EQ(rec.a3().simulation_backend()->id(), "structured");
  EXPECT_TRUE(rec.fully_simulated());
  EXPECT_EQ(rec.space_used().qubits, 2ULL * 2 + 2);
}

TEST(OptionWiring, BeyondEveryCeilingIsExplicitlyNotSimulated) {
  // With both ceilings below k there is no honest decision; the recognizer
  // must say so instead of silently accepting or rejecting.
  QuantumOnlineRecognizer::Options opts;
  opts.a3.max_sim_k = 1;
  opts.a3.max_structured_k = 1;
  QuantumOnlineRecognizer rec(5, opts);
  Rng rng(11);
  auto inst = LDisjInstance::make_disjoint(2, rng);  // k = 2 > both ceilings
  auto s = inst.stream();
  EXPECT_NO_THROW(run_stream(*s, rec));
  EXPECT_EQ(rec.space_used().qubits, 0u);  // register never instantiated
  EXPECT_FALSE(rec.fully_simulated());
  EXPECT_EQ(rec.verdict(), QuantumOnlineRecognizer::Verdict::kNotSimulated);
  EXPECT_FALSE(rec.finish());  // never claims membership it could not check
  // The probability probe agrees with the verdict: an un-run A3 contributes
  // no acceptance mass (it must not read as a certain accept).
  EXPECT_EQ(rec.exact_acceptance_probability(), 0.0);
}

TEST(OptionWiring, ShapeRejectsAreSimulatedWhateverTheCeilings) {
  // '1^k # #': the prefix announces k, then A1 rejects the empty block. Past
  // the structured ceiling (k > 16) A3 has no backend, but the word is
  // decided without it: fully_simulated() must agree with verdict(). Past
  // A1's kMaxK (k > 20) the prefix itself is rejected.
  for (const unsigned k : {17u, 20u, 21u, 25u}) {
    QuantumOnlineRecognizer rec(5);
    for (unsigned i = 0; i < k; ++i) rec.feed(qols::stream::Symbol::kOne);
    rec.feed(qols::stream::Symbol::kSep);
    rec.feed(qols::stream::Symbol::kSep);
    EXPECT_TRUE(rec.fully_simulated()) << "k=" << k;
    EXPECT_EQ(rec.verdict(), QuantumOnlineRecognizer::Verdict::kReject)
        << "k=" << k;
    EXPECT_TRUE(rec.fully_simulated()) << "k=" << k;
  }
}

TEST(OptionWiring, UnknownBackendIdThrowsAtConstruction) {
  QuantumOnlineRecognizer::Options opts;
  opts.a3.backend = "analog";
  EXPECT_THROW(QuantumOnlineRecognizer rec(5, opts), std::invalid_argument);
}

}  // namespace
