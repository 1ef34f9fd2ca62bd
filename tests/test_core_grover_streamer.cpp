// Unit tests: procedure A3 — the streamed Grover search.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "qols/core/grover_streamer.hpp"
#include "qols/grover/analysis.hpp"
#include "qols/lang/ldisj_instance.hpp"
#include "qols/stream/symbol_stream.hpp"
#include "qols/util/serde.hpp"

namespace {

using qols::core::GroverStreamer;
using qols::grover::angle;
using qols::grover::success_after;
using qols::lang::LDisjInstance;
using qols::util::Rng;

void stream_through(GroverStreamer& a3, const LDisjInstance& inst) {
  auto s = inst.stream();
  while (auto sym = s->next()) a3.feed(*sym);
}

TEST(GroverStreamer, DisjointInputsNeverMeasureOne) {
  // Perfect completeness holds exactly, not up to rounding: on a disjoint
  // pair R_y never writes l, so every l = 1 amplitude stays an exact zero
  // through every diffusion (the mean of a zero sector is zero).
  Rng rng(1);
  for (unsigned k = 1; k <= 5; ++k) {
    for (std::uint64_t seed = 0; seed < 32; ++seed) {
      auto inst = LDisjInstance::make_disjoint(k, rng);
      GroverStreamer a3{Rng(seed)};
      stream_through(a3, inst);
      ASSERT_EQ(a3.probability_output_zero(), 0.0)
          << "k=" << k << " seed=" << seed;
      ASSERT_EQ(a3.finish_output(), 1);
    }
  }
}

TEST(GroverStreamer, RejectionProbabilityEqualsGroverFormula) {
  // For fixed j, P[measure 1] must equal sin^2((2j+1) theta) exactly.
  Rng rng(2);
  for (unsigned k = 1; k <= 3; ++k) {
    const std::uint64_t n = std::uint64_t{1} << (2 * k);
    for (std::uint64_t t : {std::uint64_t{1}, std::uint64_t{2}, n / 4, n / 2}) {
      if (t == 0) continue;
      auto inst = LDisjInstance::make_with_intersections(k, t, rng);
      for (std::uint64_t seed = 0; seed < 6; ++seed) {
        GroverStreamer a3{Rng(seed)};
        stream_through(a3, inst);
        ASSERT_TRUE(a3.chosen_j().has_value());
        const double expect = success_after(*a3.chosen_j(), angle(t, n));
        ASSERT_NEAR(a3.probability_output_zero(), expect, 1e-9)
            << "k=" << k << " t=" << t << " j=" << *a3.chosen_j();
      }
    }
  }
}

TEST(GroverStreamer, AveragedRejectionMatchesBbhtClosedForm) {
  // Sweep all j deterministically by seed search: instead, average the exact
  // per-run probabilities over many seeds; the empirical mean must approach
  // the closed form 1/2 - sin(4*2^k*theta)/(4*2^k*sin(2*theta)).
  Rng rng(3);
  const unsigned k = 2;
  const std::uint64_t t = 3;
  auto inst = LDisjInstance::make_with_intersections(k, t, rng);
  double sum = 0.0;
  constexpr int kRuns = 400;
  for (int i = 0; i < kRuns; ++i) {
    GroverStreamer a3{Rng(9000 + i)};
    stream_through(a3, inst);
    sum += a3.probability_output_zero();
  }
  const double closed = qols::grover::a3_rejection_probability(k, t);
  EXPECT_NEAR(sum / kRuns, closed, 0.05);
}

TEST(GroverStreamer, ChosenJIsInRange) {
  Rng rng(4);
  auto inst = LDisjInstance::make_disjoint(3, rng);
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    GroverStreamer a3{Rng(seed)};
    stream_through(a3, inst);
    ASSERT_TRUE(a3.chosen_j().has_value());
    ASSERT_LT(*a3.chosen_j(), 8u);  // 2^k = 8
  }
}

TEST(GroverStreamer, SpaceReportIsLogarithmic) {
  Rng rng(5);
  for (unsigned k = 1; k <= 4; ++k) {
    auto inst = LDisjInstance::make_disjoint(k, rng);
    GroverStreamer a3{Rng(1)};
    stream_through(a3, inst);
    EXPECT_EQ(a3.qubits_used(), 2ULL * k + 2);
    EXPECT_LE(a3.classical_bits_used(), 8ULL * k + 16);
  }
}

TEST(GroverStreamer, MeasurementSamplingMatchesProbability) {
  Rng rng(6);
  const unsigned k = 2;
  auto inst = LDisjInstance::make_with_intersections(k, 8, rng);  // t = m/2
  int zeros = 0;
  constexpr int kRuns = 600;
  double psum = 0.0;
  for (int i = 0; i < kRuns; ++i) {
    GroverStreamer a3{Rng(100 + i)};
    stream_through(a3, inst);
    psum += a3.probability_output_zero();
    if (a3.finish_output() == 0) ++zeros;
  }
  EXPECT_NEAR(zeros / static_cast<double>(kRuns), psum / kRuns, 0.06);
}

TEST(GroverStreamer, InertWithoutSimulation) {
  GroverStreamer::Options opts;
  opts.simulate = false;
  GroverStreamer a3{Rng(1), opts};
  Rng rng(7);
  auto inst = LDisjInstance::make_disjoint(1, rng);
  stream_through(a3, inst);
  EXPECT_EQ(a3.finish_output(), 1);  // no register: defaults to "disjoint"
}

TEST(GroverStreamer, SurvivesMalformedStreams) {
  // Must not crash or leave the register in a broken state on junk input.
  GroverStreamer a3{Rng(1)};
  using qols::stream::Symbol;
  a3.feed(Symbol::kOne);
  a3.feed(Symbol::kSep);   // k = 1
  for (int i = 0; i < 100; ++i) a3.feed(Symbol::kOne);  // overlong block
  a3.feed(Symbol::kSep);
  EXPECT_NO_THROW(a3.finish_output());
}

// --- the run scanner: chunked feeding == per-symbol feeding ----------------

using qols::stream::Symbol;

std::vector<Symbol> to_symbols(const std::string& word) {
  std::vector<Symbol> out;
  out.reserve(word.size());
  for (const char c : word) out.push_back(*qols::stream::symbol_from_char(c));
  return out;
}

/// m bits built as runs "0^L 1" with L cycling through `runs` from `shift`,
/// so zero runs of every listed length land at every 8-byte alignment.
std::string run_block(std::uint64_t m, const std::vector<unsigned>& runs,
                      std::size_t shift) {
  std::string block;
  for (std::size_t i = shift; block.size() < m; ++i) {
    block.append(runs[i % runs.size()], '0');
    block.push_back('1');
  }
  block.resize(m);
  return block;
}

/// A well-shaped word for k whose x/y blocks are zero-run patterns.
std::string run_word(unsigned k, const std::vector<unsigned>& runs) {
  const std::uint64_t m = std::uint64_t{1} << (2 * k);
  std::string word(k, '1');
  word.push_back('#');
  const std::string x = run_block(m, runs, 0);
  const std::string y = run_block(m, runs, 5);
  for (std::uint64_t rep = 0; rep < (std::uint64_t{1} << k); ++rep) {
    word += x + "#" + y + "#" + x + "#";
  }
  return word;
}

struct StreamerState {
  std::vector<std::uint8_t> snapshot;
  std::uint64_t gates = 0;
  std::vector<double> re;
  std::vector<double> im;
};

StreamerState capture(const GroverStreamer& a3) {
  StreamerState st;
  qols::util::serde::ByteWriter w;
  a3.snapshot_to(w);
  st.snapshot = w.take();
  st.gates = a3.gates_applied();
  if (const auto* sv = a3.state()) {
    st.re.assign(sv->re().begin(), sv->re().end());
    st.im.assign(sv->im().begin(), sv->im().end());
  }
  return st;
}

void expect_same_state(const StreamerState& want, const StreamerState& got,
                       const std::string& where) {
  ASSERT_EQ(want.gates, got.gates) << where;
  ASSERT_EQ(want.re.size(), got.re.size()) << where;
  for (std::size_t i = 0; i < want.re.size(); ++i) {
    ASSERT_EQ(want.re[i], got.re[i]) << where << " re[" << i << "]";
    ASSERT_EQ(want.im[i], got.im[i]) << where << " im[" << i << "]";
  }
  ASSERT_EQ(want.snapshot, got.snapshot) << where;
}

TEST(GroverStreamer, ChunkedScannerMatchesPerSymbolFeeding) {
  Rng rng(11);
  std::vector<unsigned> short_runs;
  for (unsigned len = 0; len <= 17; ++len) short_runs.push_back(len);
  std::vector<std::string> words;
  for (unsigned k = 1; k <= 3; ++k) {
    words.push_back(run_word(k, short_runs));
    words.push_back(run_word(k, {40, 7, 0, 16, 9, 8, 1}));
    words.push_back(
        LDisjInstance::make_with_intersections(k, 1, rng).render());
    words.push_back(LDisjInstance::make_disjoint(k, rng).render());
  }
  // Overlong blocks: the tape head stops at the first bit past m, which
  // freezes the register there, reached by a zero run, by a one-bit, and by
  // a run crossing the limit.
  {
    std::string w = run_word(2, short_runs);
    words.push_back(w.insert(3 + 16 * 3 + 3, std::string(13, '0')));
    w = run_word(2, short_runs);
    words.push_back(w.insert(3 + 16 + 1 + 16, "1"));
    w = run_word(3, short_runs);
    words.push_back(w.insert(4 + 64, std::string(9, '0') + "1"));
    words.push_back("11#1" + std::string(20, '0') + "#" +
                    run_word(2, short_runs).substr(3));
  }
  // Prefix edges: k = 0 separator, a zero breaking the prefix, and a
  // separator that ends the prefix in the middle of a chunk.
  words.push_back("#" + run_word(2, short_runs));
  words.push_back("1101#" + run_word(1, short_runs).substr(2));
  words.push_back("1#0000000000#1");
  // Zero-heavy junk after a valid prefix.
  for (int i = 0; i < 4; ++i) {
    std::string w = "11#";
    for (int j = 0; j < 300; ++j) {
      const std::uint64_t r = rng.below(20);
      w.push_back(r == 0 ? '#' : (r < 4 ? '1' : '0'));
    }
    words.push_back(w);
  }

  for (std::size_t wi = 0; wi < words.size(); ++wi) {
    const std::vector<Symbol> word = to_symbols(words[wi]);
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      GroverStreamer ref{Rng(seed)};
      for (const Symbol s : word) ref.feed(s);
      const StreamerState want = capture(ref);

      std::vector<std::size_t> chunkings;
      for (std::size_t c = 1; c <= 17; ++c) chunkings.push_back(c);
      chunkings.push_back(0);  // random sizes
      chunkings.push_back(word.size());
      for (const std::size_t chunk : chunkings) {
        GroverStreamer a3{Rng(seed)};
        const std::span<const Symbol> all(word);
        for (std::size_t at = 0; at < all.size();) {
          const std::size_t len = std::min<std::size_t>(
              all.size() - at, chunk != 0 ? chunk : 1 + rng.below(40));
          a3.feed_chunk(all.subspan(at, len));
          at += len;
        }
        expect_same_state(want, capture(a3),
                          "word " + std::to_string(wi) + " seed " +
                              std::to_string(seed) + " chunk " +
                              std::to_string(chunk));
      }
    }
  }
}

}  // namespace
