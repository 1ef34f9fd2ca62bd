// E22 — state-vector kernel throughput: the scalar-double / simd-double /
// simd-float matrix over the two hot A3 kernels (H-range and the Grover
// diffusion composite) at the dense wall.
//
// The dense backend is the layer the SoA + AVX2 rewrite targets: amplitudes
// are split re[]/im[] arrays and the hot kernels run as blocked contiguous
// runs with runtime ISA dispatch (quantum::SimdMode). This experiment pins
// the three configurations against each other on identical registers:
//
//   - scalar-double: the always-compiled reference path (set_simd_mode
//     kScalar), the pre-SoA cost model;
//   - simd-double:   AVX2 4-lane kernels, same precision;
//   - simd-float:    AVX2 8-lane kernels on float amplitudes — half the
//     memory traffic, twice the lanes (the opt-in --precision float mode).
//
// Metric: amplitude-pair updates per second (one H on one qubit of a dim-D
// register performs D/2 pair updates; a diffusion performs two H-ranges plus
// a reflect-zero streaming pass), best-of-`--trials` individually timed
// passes per row. The claim's speedups are not a ratio of two rows' best
// rates: scalar-double and simd-float passes alternate, and the gate reads
// the median of 4 x `--trials` per-pair time ratios. Two diffusion columns:
//
//   - diffusion_pairs_per_sec: the H-range, reflect-zero, H-range composite,
//     a bandwidth probe of the butterfly kernels (the claimed column);
//   - grover_diffusion_pairs_per_sec: apply_grover_diffusion, the
//     reflect-about-the-mean kernel the dense backend runs for A3, credited
//     with the same pair count so the two columns compare directly (tracked,
//     not claimed).
//
// Each row also reports index_gates_per_sec: the rate of
// A3's per-bit oracle gates (apply_x_on_index + apply_z_on_index over every
// index value), which touch O(1) amplitudes each and so measure addressing
// cost rather than bandwidth. It is tracked, not claimed. The claim:
// simd-float sustains >= 2x the scalar-double rate on BOTH kernels at k = 10
// (22 qubits, 4M amplitudes) — enforced only under NDEBUG on AVX2 hardware
// (elsewhere the rows are still reported, with a note).
//
// Correctness is not sacrificed for the rows: each row checks its register
// norm after the timed passes (H-range is self-inverse; the diffusion is
// unitary), so a kernel that went fast by being wrong fails the row.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "experiments.hpp"
#include "qols/quantum/state_vector.hpp"
#include "qols/util/stopwatch.hpp"
#include "qols/util/table.hpp"
#include "registry.hpp"

namespace qols::bench {
namespace {

struct Row {
  std::string label;
  double hrange_pairs_per_sec = 0.0;
  double diffusion_pairs_per_sec = 0.0;
  double grover_diffusion_pairs_per_sec = 0.0;
  double index_gates_per_sec = 0.0;
  double norm = 1.0;
};

/// One configuration's register and best-of rates. The claimed kernels are
/// timed one pass per call, so two configurations can alternate pass by pass.
template <typename Scalar>
class Config {
 public:
  Config(std::string label, quantum::SimdMode mode, unsigned k)
      : mode_(mode), range_(2 * k), sv_(2 * k + 2) {
    row.label = std::move(label);
    const double dim = static_cast<double>(sv_.dim());
    hrange_pairs_ = static_cast<double>(range_) * dim / 2.0;
    // Diffusion = H-range, reflect-zero (one streaming negate pass + a cheap
    // strided fixup), H-range.
    diffusion_pairs_ = 2.0 * hrange_pairs_ + dim;
    quantum::set_simd_mode(mode_);
    sv_.apply_h_range(0, range_);  // warm-up: touch every page once
  }

  /// One timed H-range pass; returns its seconds.
  double time_hrange() {
    return timed(row.hrange_pairs_per_sec, hrange_pairs_,
                 [&] { sv_.apply_h_range(0, range_); });
  }
  /// One timed H-range, reflect-zero, H-range composite; returns seconds.
  double time_diffusion() {
    return timed(row.diffusion_pairs_per_sec, diffusion_pairs_, [&] {
      sv_.apply_h_range(0, range_);
      sv_.apply_reflect_zero(0, range_);
      sv_.apply_h_range(0, range_);
    });
  }

  /// The tracked columns, best of `reps` passes each, then the norm.
  void finish(int reps) {
    for (int r = 0; r < reps; ++r) {
      timed(row.grover_diffusion_pairs_per_sec, diffusion_pairs_,
            [&] { sv_.apply_grover_diffusion(0, range_); });
    }
    // A3's streamed oracle gates: one V_x and one W_y per index value, each
    // touching O(1) amplitudes (2^(n - 2k - 1) = 2).
    const std::uint64_t indices = std::uint64_t{1} << range_;
    for (int r = 0; r < reps; ++r) {
      timed(row.index_gates_per_sec, 2.0 * static_cast<double>(indices), [&] {
        for (std::uint64_t idx = 0; idx < indices; ++idx) {
          sv_.apply_x_on_index(0, range_, idx, range_);
          sv_.apply_z_on_index(0, range_, idx, range_);
        }
      });
    }
    row.norm = sv_.norm();
  }

  Row row;

 private:
  // Each pass is timed on its own and the row keeps the best rate:
  // sustained-throughput kernels on a shared machine are measured best-of-N,
  // not averaged, so one scheduler preemption or turbo shift does not skew
  // the whole row.
  template <typename F>
  double timed(double& best_rate, double work, F&& pass) {
    quantum::set_simd_mode(mode_);
    util::Stopwatch watch;
    pass();
    const double secs = std::max(watch.seconds(), 1e-9);
    best_rate = std::max(best_rate, work / secs);
    return secs;
  }

  quantum::SimdMode mode_;
  unsigned range_;
  quantum::StateVectorT<Scalar> sv_;
  double hrange_pairs_ = 0.0;
  double diffusion_pairs_ = 0.0;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 != 0 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

int run(Reporter& rep, const RunConfig& cfg) {
  const unsigned k = std::max(1u, cfg.dense_max_k_or(10));
  const int reps = std::max(2, cfg.trials_or(6));
  const bool avx2 = quantum::cpu_supports_avx2();
  const quantum::SimdMode simd_mode =
      avx2 ? quantum::SimdMode::kAvx2 : quantum::SimdMode::kAuto;

  const quantum::SimdMode saved = quantum::requested_simd_mode();
  Row simd_double;
  {
    Config<double> config("simd-double", simd_mode, k);
    for (int r = 0; r < reps; ++r) config.time_hrange();
    for (int r = 0; r < reps; ++r) config.time_diffusion();
    config.finish(reps);
    simd_double = config.row;
  }
  // The claim is a ratio of two timings on a possibly shared host, so the
  // scalar-double and simd-float passes alternate and the gate reads the
  // median of the per-pair ratios: a slow patch of the host lands in one
  // pair, not in one whole row. Single pairs spread about +-0.3 around the
  // ~2.3x mean on a shared 4-vCPU guest, so the median takes 4 pairs per
  // trial to stay clear of the bound.
  const int pairs = 4 * reps;
  std::vector<double> h_ratios;
  std::vector<double> d_ratios;
  Row scalar_double;
  Row simd_float;
  {
    Config<double> sd("scalar-double", quantum::SimdMode::kScalar, k);
    Config<float> sf("simd-float", simd_mode, k);
    for (int r = 0; r < pairs; ++r) {
      h_ratios.push_back(sd.time_hrange() / sf.time_hrange());
      d_ratios.push_back(sd.time_diffusion() / sf.time_diffusion());
    }
    sd.finish(reps);
    sf.finish(reps);
    scalar_double = sd.row;
    simd_float = sf.row;
  }
  quantum::set_simd_mode(saved);

  // Norm tolerance: double rows sit at 1 within ~1e-12; the float register
  // accumulates per-pass rounding ~ passes * 2k * 2^-24.
  const double gate_passes = static_cast<double>(reps) * 3.0 * (2.0 * k + 1.0);
  const double float_norm_tol =
      1024.0 * gate_passes * static_cast<double>(2.0 * k) * 0x1p-24;

  util::Table table({"row", "precision", "isa", "h_range pairs/s",
                     "diffusion pairs/s", "grover diffusion pairs/s",
                     "index gates/s", "|norm-1|", "ok?"});
  bool norms_ok = true;
  const Row* rows[] = {&scalar_double, &simd_double, &simd_float};
  for (const Row* r : rows) {
    const bool is_float = r == &simd_float;
    const double tol = is_float ? float_norm_tol : 1e-9;
    const bool ok = std::abs(r->norm - 1.0) <= tol;
    norms_ok = norms_ok && ok;
    table.add_row({r->label, is_float ? "float" : "double",
                   r == &scalar_double ? "scalar" : (avx2 ? "avx2" : "scalar"),
                   util::fmt_g(static_cast<std::uint64_t>(
                       r->hrange_pairs_per_sec)),
                   util::fmt_g(static_cast<std::uint64_t>(
                       r->diffusion_pairs_per_sec)),
                   util::fmt_g(static_cast<std::uint64_t>(
                       r->grover_diffusion_pairs_per_sec)),
                   util::fmt_g(static_cast<std::uint64_t>(
                       r->index_gates_per_sec)),
                   util::fmt_f(std::abs(r->norm - 1.0), 9),
                   ok ? "yes" : "NO"});
  }
  rep.table(table);

  const double h_speedup = median(h_ratios);
  const double d_speedup = median(d_ratios);

  for (const Row* r : rows) {
    MetricRecord m;
    m.label = r->label;
    m.k = static_cast<std::int64_t>(k);
    m.trials = static_cast<std::uint64_t>(reps);
    m.extra.emplace_back("hrange_pairs_per_sec", r->hrange_pairs_per_sec);
    m.extra.emplace_back("diffusion_pairs_per_sec",
                         r->diffusion_pairs_per_sec);
    m.extra.emplace_back("grover_diffusion_pairs_per_sec",
                         r->grover_diffusion_pairs_per_sec);
    m.extra.emplace_back("index_gates_per_sec", r->index_gates_per_sec);
    m.extra.emplace_back("norm_drift", std::abs(r->norm - 1.0));
    if (r == &simd_float) {
      m.extra.emplace_back("hrange_speedup_vs_scalar_double", h_speedup);
      m.extra.emplace_back("diffusion_speedup_vs_scalar_double", d_speedup);
    }
    rep.metric(m);
  }

#ifdef NDEBUG
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  bool claim_ok = true;
  if (optimized && avx2) {
    claim_ok = h_speedup >= 2.0 && d_speedup >= 2.0;
    rep.note("simd-float vs scalar-double, median of " +
             std::to_string(pairs) + " alternating pairs: h_range " +
             util::fmt_f(h_speedup, 2) + "x, diffusion " +
             util::fmt_f(d_speedup, 2) + "x (claim: both >= 2x). " +
             (claim_ok ? "Held." : "FAILED."));
  } else {
    rep.note(std::string("speedup claim not enforced: ") +
             (!optimized ? "unoptimized build" : "no AVX2 on this CPU") +
             " (rows above are still the tracked series).");
  }
  rep.note(
      "\nReading: identical registers (2k+2 qubits), identical kernels, "
      "three storage/ISA configurations. simd-float combines 8-lane AVX2 "
      "with half the memory traffic; decisions stay precision-invariant "
      "(see test_precision_differential), so the fast row is safe to serve "
      "from.");
  return norms_ok && claim_ok ? 0 : 1;
}

}  // namespace

void register_e22(Registry& r) {
  r.add({.id = "e22",
         .title = "state-vector kernel throughput (SoA/SIMD/precision)",
         .claim = "Claim (engineering): the SoA + AVX2 float fast path "
                  "sustains >= 2x the scalar-double amplitude-pair update "
                  "rate on the H-range and diffusion kernels at the dense "
                  "wall (k = 10), with unitary norms preserved.",
         .tags = {"kernel", "simd", "precision", "throughput", "quantum"}},
        run);
}

}  // namespace qols::bench
