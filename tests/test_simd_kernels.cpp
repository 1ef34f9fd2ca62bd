// SIMD kernel edge cases: runtime dispatch resolution, the QOLS_NO_AVX2
// parsing rule, tiny registers whose strides sit below the vector width,
// non-multiple-of-lane tails, and scalar-vs-AVX2 bit-exactness on identical
// gate sequences.
//
// The dispatch contract: the AVX2 kernels perform exactly the same IEEE
// operations per element as the scalar reference (no FMA contraction, no
// reassociation of any single element's chain), so forcing kScalar and
// kAvx2 over the same inputs must produce BIT-IDENTICAL registers — EXPECT_EQ
// on raw components, no tolerance. That is what makes runtime dispatch safe:
// a machine without AVX2 replays a failure token to the same bits.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "qols/core/grover_streamer.hpp"
#include "qols/lang/ldisj_instance.hpp"
#include "qols/quantum/state_vector.hpp"
#include "qols/stream/symbol_stream.hpp"
#include "qols/util/rng.hpp"

namespace {

using qols::quantum::cpu_supports_avx2;
using qols::quantum::SimdMode;
using qols::quantum::StateVectorT;
using qols::util::Rng;

/// Restores the requested dispatch mode on scope exit, so a failing test
/// cannot leak a forced mode into the rest of the suite.
class SimdModeGuard {
 public:
  SimdModeGuard() : saved_(qols::quantum::requested_simd_mode()) {}
  ~SimdModeGuard() { qols::quantum::set_simd_mode(saved_); }
  SimdModeGuard(const SimdModeGuard&) = delete;
  SimdModeGuard& operator=(const SimdModeGuard&) = delete;

 private:
  SimdMode saved_;
};

/// A fixed, asymmetry-breaking gate sequence touching every kernel family:
/// H (pair butterflies), T/phase (complex rotation), X (swap runs), Z
/// (negate runs), CZ, reflect-zero, H-range, and the A3 index fast paths.
template <typename Scalar>
void apply_mixed_sequence(StateVectorT<Scalar>& sv) {
  const unsigned n = sv.num_qubits();
  for (unsigned q = 0; q < n; ++q) sv.apply_h(q);
  for (unsigned q = 0; q < n; ++q) sv.apply_t(q % n);
  sv.apply_x(0);
  if (n >= 2) {
    sv.apply_z(1);
    sv.apply_cz(0, 1);
    sv.apply_cnot(1, 0);
    sv.apply_swap(0, n - 1);
  }
  sv.apply_reflect_zero(0, n);
  sv.apply_h_range(0, n);
  if (n >= 3) {
    sv.apply_x_on_index(0, n - 1, 1, n - 1);
    sv.apply_z_on_index(0, n - 1, 2, n - 1);
  }
  sv.apply_h_range(0, n);
}

template <typename Scalar>
void expect_bit_identical(const StateVectorT<Scalar>& a,
                          const StateVectorT<Scalar>& b) {
  ASSERT_EQ(a.dim(), b.dim());
  for (std::size_t i = 0; i < a.dim(); ++i) {
    ASSERT_EQ(a.re()[i], b.re()[i]) << "re[" << i << "]";
    ASSERT_EQ(a.im()[i], b.im()[i]) << "im[" << i << "]";
  }
}

TEST(SimdDispatch, ActiveModeIsNeverAuto) {
  SimdModeGuard guard;
  qols::quantum::set_simd_mode(SimdMode::kAuto);
  const SimdMode active = qols::quantum::active_simd_mode();
  EXPECT_TRUE(active == SimdMode::kScalar || active == SimdMode::kAvx2);
  EXPECT_EQ(qols::quantum::requested_simd_mode(), SimdMode::kAuto);
}

TEST(SimdDispatch, ForcedModesResolveOrThrow) {
  SimdModeGuard guard;
  qols::quantum::set_simd_mode(SimdMode::kScalar);
  EXPECT_EQ(qols::quantum::active_simd_mode(), SimdMode::kScalar);
  if (cpu_supports_avx2()) {
    qols::quantum::set_simd_mode(SimdMode::kAvx2);
    EXPECT_EQ(qols::quantum::active_simd_mode(), SimdMode::kAvx2);
  } else {
    EXPECT_THROW(qols::quantum::set_simd_mode(SimdMode::kAvx2),
                 std::invalid_argument);
  }
}

TEST(SimdDispatch, EnvOverrideParsingRule) {
  // QOLS_NO_AVX2 disables AVX2 when non-null, non-empty and not "0". The
  // pure parser is exposed so the rule is testable without mutating the
  // process environment (which is read once, at first kernel dispatch).
  EXPECT_FALSE(qols::quantum::simd_env_disabled(nullptr));
  EXPECT_FALSE(qols::quantum::simd_env_disabled(""));
  EXPECT_FALSE(qols::quantum::simd_env_disabled("0"));
  EXPECT_TRUE(qols::quantum::simd_env_disabled("1"));
  EXPECT_TRUE(qols::quantum::simd_env_disabled("true"));
  EXPECT_TRUE(qols::quantum::simd_env_disabled("00"));  // not the literal "0"
  EXPECT_TRUE(qols::quantum::simd_env_disabled(" "));
}

template <typename Scalar>
void run_scalar_vs_avx2_tiny_registers() {
  // n = 1..5: every stride below (and just at) the vector width, for both
  // the in-register shuffle butterflies and their scalar reference. n = 5
  // additionally has a 32-element register — not a multiple of the blocked
  // kernels' larger internal strides, exercising tail handling.
  for (unsigned n = 1; n <= 5; ++n) {
    StateVectorT<Scalar> scalar(n);
    StateVectorT<Scalar> vectorized(n);
    qols::quantum::set_simd_mode(SimdMode::kScalar);
    apply_mixed_sequence(scalar);
    qols::quantum::set_simd_mode(SimdMode::kAvx2);
    apply_mixed_sequence(vectorized);
    expect_bit_identical(scalar, vectorized);
  }
}

TEST(SimdKernels, ScalarVsAvx2BitExactOnTinyRegistersDouble) {
  if (!cpu_supports_avx2()) GTEST_SKIP() << "no AVX2 on this CPU";
  SimdModeGuard guard;
  run_scalar_vs_avx2_tiny_registers<double>();
}

TEST(SimdKernels, ScalarVsAvx2BitExactOnTinyRegistersFloat) {
  if (!cpu_supports_avx2()) GTEST_SKIP() << "no AVX2 on this CPU";
  SimdModeGuard guard;
  run_scalar_vs_avx2_tiny_registers<float>();
}

template <typename Scalar>
void run_blocked_hrange_vs_sequential(unsigned n) {
  // The blocked/fused apply_h_range must be bit-identical to the naive
  // qubit-by-qubit ladder it replaced: the radix-4 fusion and L1 tiling
  // reorder independent additions only, never one element's rounding chain.
  for (unsigned first = 0; first < n; ++first) {
    for (unsigned count : {1u, 2u, 3u, n - first}) {
      if (first + count > n) continue;
      StateVectorT<Scalar> blocked(n);
      StateVectorT<Scalar> ladder(n);
      // Symmetry-breaking preparation on both registers.
      for (StateVectorT<Scalar>* sv : {&blocked, &ladder}) {
        for (unsigned q = 0; q < n; ++q) sv->apply_h(q);
        for (unsigned q = 0; q < n; ++q) sv->apply_t(q);
        sv->apply_x(0);
      }
      blocked.apply_h_range(first, count);
      for (unsigned q = first; q < first + count; ++q) ladder.apply_h(q);
      expect_bit_identical(blocked, ladder);
    }
  }
}

TEST(SimdKernels, BlockedHRangeMatchesSequentialLaddersSmall) {
  SimdModeGuard guard;
  for (const SimdMode mode : {SimdMode::kScalar, SimdMode::kAvx2}) {
    if (mode == SimdMode::kAvx2 && !cpu_supports_avx2()) continue;
    qols::quantum::set_simd_mode(mode);
    run_blocked_hrange_vs_sequential<double>(3);
    run_blocked_hrange_vs_sequential<double>(6);
    run_blocked_hrange_vs_sequential<float>(3);
    run_blocked_hrange_vs_sequential<float>(6);
  }
}

TEST(SimdKernels, BlockedHRangeMatchesSequentialAcrossTileBoundary) {
  // n spanning the L1 tile size (2^12 doubles / 2^13 floats): the low-qubit
  // tiled phase, the leftover odd qubit, and the high streaming phase all
  // activate, including registers larger than the serial grain (n = 15).
  SimdModeGuard guard;
  for (const SimdMode mode : {SimdMode::kScalar, SimdMode::kAvx2}) {
    if (mode == SimdMode::kAvx2 && !cpu_supports_avx2()) continue;
    qols::quantum::set_simd_mode(mode);
    for (unsigned n : {13u, 15u}) {
      StateVectorT<double> blocked(n);
      StateVectorT<double> ladder(n);
      for (StateVectorT<double>* sv : {&blocked, &ladder}) {
        for (unsigned q = 0; q < n; q += 2) sv->apply_h(q);
        sv->apply_t(0);
        sv->apply_x(n - 1);
      }
      blocked.apply_h_range(0, n);
      for (unsigned q = 0; q < n; ++q) ladder.apply_h(q);
      expect_bit_identical(blocked, ladder);
    }
    {
      StateVectorT<float> blocked(14);
      StateVectorT<float> ladder(14);
      for (StateVectorT<float>* sv : {&blocked, &ladder}) {
        for (unsigned q = 0; q < 14; q += 3) sv->apply_h(q);
        sv->apply_t(1);
      }
      blocked.apply_h_range(0, 14);
      for (unsigned q = 0; q < 14; ++q) ladder.apply_h(q);
      expect_bit_identical(blocked, ladder);
    }
  }
}

/// Random (unnormalized) amplitudes: every basis state distinct, so a swap
/// or negation applied to the wrong address cannot cancel out.
template <typename Scalar>
StateVectorT<Scalar> random_state(unsigned n, Rng& rng) {
  StateVectorT<Scalar> sv(n);
  std::vector<Scalar> re(sv.dim());
  std::vector<Scalar> im(sv.dim());
  for (std::size_t i = 0; i < sv.dim(); ++i) {
    re[i] = static_cast<Scalar>(rng.uniform01() - 0.5);
    im[i] = static_cast<Scalar>(rng.uniform01() - 0.5);
  }
  sv.load(std::move(re), std::move(im));
  return sv;
}

/// Random amplitudes spread over 2^-20..2^20: a sum of them rounds
/// differently under almost any change of summation order, so bit-exactness
/// checks on reductions see reordered additions that unit-range data hides.
template <typename Scalar>
StateVectorT<Scalar> wide_range_state(unsigned n, Rng& rng) {
  StateVectorT<Scalar> sv(n);
  std::vector<Scalar> re(sv.dim());
  std::vector<Scalar> im(sv.dim());
  for (std::size_t i = 0; i < sv.dim(); ++i) {
    re[i] = static_cast<Scalar>(std::ldexp(
        rng.uniform01() - 0.5, static_cast<int>(rng.below(41)) - 20));
    im[i] = static_cast<Scalar>(std::ldexp(
        rng.uniform01() - 0.5, static_cast<int>(rng.below(41)) - 20));
  }
  sv.load(std::move(re), std::move(im));
  return sv;
}

/// Controls pinning [first, first + count) to `index`.
std::vector<qols::quantum::ControlTerm> index_controls(unsigned first,
                                                       unsigned count,
                                                       std::uint64_t index) {
  std::vector<qols::quantum::ControlTerm> terms;
  for (unsigned q = 0; q < count; ++q) {
    terms.push_back({first + q, ((index >> q) & 1) != 0});
  }
  return terms;
}

// The A3 index-register fast paths address their amplitudes directly; they
// must equal the general pattern-controlled gates bit for bit on every
// layout, not just A3's (index at qubit 0, h and l above it): index
// registers starting above qubit 0, targets below, between and above the
// index and free qubits, and no free qubit at all.
template <typename Scalar>
void run_index_gates_vs_pattern_gates(Rng& rng) {
  using qols::quantum::ControlTerm;
  for (unsigned n = 2; n <= 6; ++n) {
    for (unsigned first = 0; first < n; ++first) {
      for (unsigned count = 1; first + count < n; ++count) {
        const std::uint64_t indices = std::uint64_t{1} << count;
        auto outside = [&](unsigned q) {
          return q < first || q >= first + count;
        };
        for (std::uint64_t index = 0; index < indices; ++index) {
          const auto terms = index_controls(first, count, index);
          for (unsigned t = 0; t < n; ++t) {
            if (!outside(t)) continue;
            const StateVectorT<Scalar> start = random_state<Scalar>(n, rng);
            StateVectorT<Scalar> fast = start;
            StateVectorT<Scalar> ref = start;
            fast.apply_x_on_index(first, count, index, t);
            ref.apply_mcx(terms, t);
            expect_bit_identical(fast, ref);

            fast = start;
            ref = start;
            std::vector<ControlTerm> zterms = terms;
            zterms.push_back({t, true});
            fast.apply_z_on_index(first, count, index, t);
            ref.apply_mcz(zterms);
            expect_bit_identical(fast, ref);

            for (unsigned target = 0; target < n; ++target) {
              if (!outside(target) || target == t) continue;
              fast = start;
              ref = start;
              fast.apply_cx_on_index(first, count, index, t, target);
              ref.apply_mcx(zterms, target);
              expect_bit_identical(fast, ref);
            }
          }
        }
      }
    }
  }
}

TEST(SimdKernels, IndexGatesMatchPatternGatesBitExact) {
  SimdModeGuard guard;
  Rng rng(12);
  for (const SimdMode mode : {SimdMode::kScalar, SimdMode::kAvx2}) {
    if (mode == SimdMode::kAvx2 && !cpu_supports_avx2()) continue;
    qols::quantum::set_simd_mode(mode);
    run_index_gates_vs_pattern_gates<double>(rng);
    run_index_gates_vs_pattern_gates<float>(rng);
  }
}

/// The H-range, reflect-zero, H-range expansion of the Grover diffusion,
/// computed in double on `start`'s exactly-promoted amplitudes.
template <typename Scalar>
StateVectorT<double> hsh_reference(const StateVectorT<Scalar>& start,
                                   unsigned first, unsigned count) {
  StateVectorT<double> ref(start.num_qubits());
  ref.load(std::vector<double>(start.re().begin(), start.re().end()),
           std::vector<double>(start.im().begin(), start.im().end()));
  ref.apply_h_range(first, count);
  ref.apply_reflect_zero(first, count);
  ref.apply_h_range(first, count);
  return ref;
}

template <typename Scalar>
void expect_near_reference(const StateVectorT<Scalar>& got,
                           const StateVectorT<double>& ref, double tol,
                           unsigned first, unsigned count) {
  ASSERT_EQ(got.dim(), ref.dim());
  for (std::size_t i = 0; i < got.dim(); ++i) {
    ASSERT_NEAR(got.re()[i], ref.re()[i], tol)
        << "re[" << i << "] first=" << first << " count=" << count;
    ASSERT_NEAR(got.im()[i], ref.im()[i], tol)
        << "im[" << i << "] first=" << first << " count=" << count;
  }
}

// Reflect-about-the-mean is the H-range, reflect-zero, H-range product up to
// rounding, on every layout: index ranges above qubit 0 (strided sectors),
// the empty range (the identity) and the whole register. Double agrees
// within 1e-12; float within the precision suite's per-pass tolerance
// (64 ulps of 2^-24 per single-qubit pass of the expansion).
template <typename Scalar>
void run_grover_diffusion_vs_hsh(Rng& rng) {
  for (unsigned n = 1; n <= 12; ++n) {
    for (unsigned first = 0; first <= n; ++first) {
      for (unsigned count = 0; first + count <= n; ++count) {
        StateVectorT<Scalar> sv = random_state<Scalar>(n, rng);
        const StateVectorT<double> ref = hsh_reference(sv, first, count);
        sv.apply_grover_diffusion(first, count);
        const double tol = std::is_same_v<Scalar, double>
                               ? 1e-12
                               : 64.0 * (2.0 * count + 1.0) * 0x1p-24;
        expect_near_reference(sv, ref, tol, first, count);
      }
    }
  }
}

TEST(SimdKernels, GroverDiffusionMatchesHshOnEveryLayout) {
  SimdModeGuard guard;
  Rng rng(21);
  for (const SimdMode mode : {SimdMode::kScalar, SimdMode::kAvx2}) {
    if (mode == SimdMode::kAvx2 && !cpu_supports_avx2()) continue;
    qols::quantum::set_simd_mode(mode);
    run_grover_diffusion_vs_hsh<double>(rng);
    run_grover_diffusion_vs_hsh<float>(rng);
  }
}

// The sector means feed back into every amplitude, so their summation order
// must not depend on the ISA: forced scalar and forced AVX2 produce the same
// bits on every layout, including sectors of one, two and four amplitudes
// (shorter than one vector) and sectors of up to 2^16 amplitudes.
template <typename Scalar>
void run_grover_diffusion_scalar_vs_avx2(unsigned n, unsigned first,
                                         unsigned count, Rng& rng) {
  const StateVectorT<Scalar> start = wide_range_state<Scalar>(n, rng);
  StateVectorT<Scalar> scalar = start;
  StateVectorT<Scalar> vectorized = start;
  qols::quantum::set_simd_mode(SimdMode::kScalar);
  scalar.apply_grover_diffusion(first, count);
  qols::quantum::set_simd_mode(SimdMode::kAvx2);
  vectorized.apply_grover_diffusion(first, count);
  expect_bit_identical(scalar, vectorized);
}

TEST(SimdKernels, GroverDiffusionScalarVsAvx2BitExact) {
  if (!cpu_supports_avx2()) GTEST_SKIP() << "no AVX2 on this CPU";
  SimdModeGuard guard;
  Rng rng(22);
  for (unsigned n = 1; n <= 10; ++n) {
    for (unsigned first = 0; first <= n; ++first) {
      for (unsigned count = 0; first + count <= n; ++count) {
        run_grover_diffusion_scalar_vs_avx2<double>(n, first, count, rng);
        run_grover_diffusion_scalar_vs_avx2<float>(n, first, count, rng);
      }
    }
  }
  for (const auto& [first, count] :
       {std::pair{0u, 16u}, std::pair{0u, 15u}, std::pair{0u, 4u},
        std::pair{1u, 15u}, std::pair{3u, 11u}}) {
    run_grover_diffusion_scalar_vs_avx2<double>(16, first, count, rng);
    run_grover_diffusion_scalar_vs_avx2<float>(16, first, count, rng);
  }
}

TEST(SimdKernels, DispatchAgreementThroughFullA3Run) {
  // End to end: the same word and seed through procedure A3 under forced
  // scalar and forced AVX2 dispatch must yield bit-identical amplitudes and
  // the identical decision — the replay-token portability guarantee.
  if (!cpu_supports_avx2()) GTEST_SKIP() << "no AVX2 on this CPU";
  SimdModeGuard guard;
  Rng rng(8);
  auto inst = qols::lang::LDisjInstance::make_with_intersections(2, 1, rng);
  const std::string word = inst.render();

  auto run = [&](SimdMode mode, std::uint64_t seed) {
    qols::quantum::set_simd_mode(mode);
    qols::core::GroverStreamer::Options opts;
    opts.backend = "dense";
    qols::core::GroverStreamer a3{Rng(seed), opts};
    qols::stream::StringStream s(word);
    while (auto sym = s.next()) a3.feed(*sym);
    std::vector<qols::quantum::Amplitude> amps;
    const auto* backend = a3.simulation_backend();
    const std::uint64_t dim = std::uint64_t{1} << backend->num_qubits();
    for (std::uint64_t basis = 0; basis < dim; ++basis) {
      amps.push_back(backend->amplitude(basis));
    }
    return std::pair{amps, a3.finish_output()};
  };

  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto scalar = run(SimdMode::kScalar, seed);
    const auto avx2 = run(SimdMode::kAvx2, seed);
    ASSERT_EQ(scalar.second, avx2.second) << "seed " << seed;
    ASSERT_EQ(scalar.first.size(), avx2.first.size());
    for (std::size_t i = 0; i < scalar.first.size(); ++i) {
      ASSERT_EQ(scalar.first[i].real(), avx2.first[i].real())
          << "basis " << i << " seed " << seed;
      ASSERT_EQ(scalar.first[i].imag(), avx2.first[i].imag())
          << "basis " << i << " seed " << seed;
    }
  }
}

}  // namespace
