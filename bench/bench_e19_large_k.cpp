// E19 — large-k scaling: procedure A3 past the dense-simulation wall.
//
// The dense simulator pays 16 B * 2^{2k+2} of memory and O(2^{2k}) per
// Grover diffusion, which walls the *measured* separation at k ~ 10. The
// structured backend stores one amplitude vector per equivalence class of
// index-register basis states, so every Grover iteration costs
// O(#classes) — this experiment drives A3 at k = 10..16 by default
// (--max-k extends the ladder to 20), where the dense state would be
// 2^{2k+2} amplitudes (256 GiB at k = 16, 64 TiB at k = 20), and checks the
// measured acceptance rates against the BBHT closed form
// 1 - [1/2 - sin(4*2^k*theta)/(4*2^k*sin(2*theta))].
//
// Driving note (oracle compression): streaming the literal word at these k
// is Theta(2^{3k}) symbols — infeasible for any backend, not a simulation
// cost but an input-length cost. Over one full (x#y#x#) repetition the
// streamed oracles compose exactly: V_z undoes V_x bit for bit and W_y
// phases precisely the indices with x_i = y_i = 1, so the composite is a
// phase flip on the intersection set M; likewise step 4's V_x/R_y touch l
// only on M. E19 therefore applies the per-repetition composites directly
// through the backend; the resulting state equals the streamed one on the
// (index, l) marginal, so measurement statistics are exact. The k = 4
// anchor rows run the *streamed* machine on the dense and structured
// backends with identical seeds and must agree decision-for-decision,
// tying the compressed driver back to the word-level pipeline (the
// differential test suite additionally pins full-state equality for every
// k <= 8).
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "experiments.hpp"
#include "qols/backend/structured_backend.hpp"
#include "qols/core/grover_streamer.hpp"
#include "qols/core/quantum_recognizer.hpp"
#include "qols/core/trial_engine.hpp"
#include "qols/grover/analysis.hpp"
#include "qols/lang/ldisj_instance.hpp"
#include "qols/lang/structure_validator.hpp"
#include "qols/util/stopwatch.hpp"
#include "qols/util/table.hpp"
#include "registry.hpp"

namespace qols::bench {
namespace {

/// One A3 run at depth k with intersection set `marked`, driven through the
/// structured backend at repetition granularity. Returns the accept
/// decision; reports the backend's peak class count through *peak_classes
/// when non-null.
bool run_structured_trial(unsigned k,
                          const std::vector<std::uint64_t>& marked,
                          std::uint64_t seed, std::size_t* peak_classes) {
  util::Rng rng(seed);
  const std::uint64_t j = rng.below(std::uint64_t{1} << k);
  backend::StructuredBackend reg(2 * k + 2, 2 * k);
  reg.apply_h_range(0, 2 * k);
  for (std::uint64_t rep = 0; rep < j; ++rep) {
    if (!marked.empty()) reg.apply_phase_flip_set(marked);
    reg.apply_grover_diffusion(0, 2 * k);
  }
  const unsigned h = 2 * k;
  const unsigned l = 2 * k + 1;
  for (std::uint64_t idx : marked) {
    reg.apply_x_on_index(0, 2 * k, idx, h);
    reg.apply_cx_on_index(0, 2 * k, idx, h, l);
  }
  const bool rejected = reg.measure(l, rng);
  if (peak_classes != nullptr) *peak_classes = reg.peak_class_count();
  return !rejected;
}

int run(Reporter& rep, const RunConfig& cfg) {
  const auto trials = static_cast<std::uint64_t>(cfg.trials_or(40));
  const core::TrialEngine engine;
  util::Table table({"k", "qubits", "dense amps", "t", "trials",
                     "accept rate", "Wilson lo", "Wilson hi", "closed form",
                     "peak classes", "ok?"});
  bool all_hold = true;

  // Anchor: the streamed word-level machine at k = 4, dense vs structured
  // with identical seeds — decisions must match exactly.
  {
    util::Rng rng(19);
    auto inst = lang::LDisjInstance::make_with_intersections(4, 1, rng);
    const std::uint64_t anchor_trials = std::min<std::uint64_t>(trials, 64);
    auto run_backend = [&](const std::string& id) {
      core::QuantumOnlineRecognizer::Options qopts;
      qopts.a3.backend = id;
      return engine.measure_acceptance(
          [&] { return inst.stream(); },
          [qopts](std::uint64_t seed) {
            return std::make_unique<core::QuantumOnlineRecognizer>(seed,
                                                                   qopts);
          },
          {.trials = anchor_trials, .seed_base = 9100});
    };
    util::Stopwatch watch;
    const auto dense = run_backend("dense");
    const auto structured = run_backend("structured");
    const bool agree = dense.accepts == structured.accepts &&
                       dense.not_simulated == 0 &&
                       structured.not_simulated == 0;
    if (!agree) {
      rep.note("anchor mismatch at k=4: dense accepts " +
               std::to_string(dense.accepts) + ", structured accepts " +
               std::to_string(structured.accepts));
      all_hold = false;
    }
    table.add_row({"4", "10", "2^10", "1 (anchor)",
                   std::to_string(structured.trials),
                   util::fmt_f(structured.rate(), 3), "-", "-",
                   "dense=" + util::fmt_f(dense.rate(), 3), "-",
                   agree ? "yes" : "NO"});
    auto m = metric_from_result("k=4 anchor (streamed, both backends)", 4,
                                structured, watch.seconds());
    m.extra.emplace_back("t", 1.0);
    m.extra.emplace_back("dense_accepts", static_cast<double>(dense.accepts));
    m.extra.emplace_back("backends_agree", agree ? 1.0 : 0.0);
    rep.metric(m);
  }

  // The scaling ladder runs on the structured backend by construction (no
  // other backend can hold these registers). A run pinned to a different
  // backend must not emit rows that would be misattributed to it in the
  // JSON (config.backend), so the ladder is skipped with a note instead.
  if (!cfg.backend.empty() && cfg.backend != "auto" &&
      cfg.backend != "structured") {
    rep.table(table);
    rep.note("\nladder skipped: e19's k >= 10 sweep requires the structured "
             "backend, but this run pins --backend " +
             cfg.backend + " (anchor row above still compares both).");
    return all_hold ? 0 : 1;
  }

  // Fixed at 10..16 regardless of --max-k's dense-era meaning (running past
  // the dense wall is this experiment's purpose); --max-k 18/20 extends it.
  std::vector<unsigned> ladder = {10, 12, 14, 16};
  for (unsigned k = 18; k <= std::min(cfg.max_k_or(16), 20u); k += 2) {
    ladder.push_back(k);
  }

  for (unsigned k : ladder) {
    const std::uint64_t m = std::uint64_t{1} << (2 * k);
    for (const std::uint64_t t : {std::uint64_t{0}, std::uint64_t{1},
                                  std::uint64_t{4}}) {
      // The intersection set of this row's virtual instance (the structured
      // evolution depends on x and y only through M; no 2^{2k}-bit vectors
      // are ever materialized).
      util::Rng row_rng(777 + 131 * k + 7 * t);
      std::vector<std::uint64_t> marked;
      while (marked.size() < t) {
        const std::uint64_t idx = row_rng.below(m);
        if (std::find(marked.begin(), marked.end(), idx) == marked.end()) {
          marked.push_back(idx);
        }
      }

      // Row-disjoint seed ranges: the t-stride (2^32) exceeds any legal
      // --trials value, so rows never reuse each other's seeds.
      const std::uint64_t seed_base = 190000 + (std::uint64_t{k} << 40) +
                                      (t << 32);
      util::Stopwatch watch;
      const auto result = engine.run_trials(
          [&](std::uint64_t seed) {
            core::TrialEngine::TrialOutcome out;
            out.accepted = run_structured_trial(k, marked, seed, nullptr);
            out.space.qubits = 2 * k + 2;
            // A3 run alone: its tape head plus its own j and flags.
            out.space.classical_bits =
                lang::StructureValidator::classical_bits_for(k) +
                core::GroverStreamer::classical_bits_for(k);
            return out;
          },
          {.trials = trials, .seed_base = seed_base});
      const double wall = watch.seconds();

      // Instrumented rerun of trial 0 for the cost-model column.
      std::size_t peak_classes = 0;
      run_structured_trial(k, marked, seed_base, &peak_classes);

      const double closed =
          1.0 - grover::a3_rejection_probability(k, t);
      const auto ci = result.wilson();
      // Membership is exact (perfect completeness); intersecting rows must
      // bracket the closed form within the Wilson interval plus slack.
      const bool ok = t == 0 ? result.accepts == result.trials
                             : closed >= ci.lo - 0.05 && closed <= ci.hi + 0.05;
      all_hold = all_hold && ok;

      table.add_row({std::to_string(k), std::to_string(2 * k + 2),
                     "2^" + std::to_string(2 * k + 2), std::to_string(t),
                     std::to_string(result.trials),
                     util::fmt_f(result.rate(), 3), util::fmt_f(ci.lo, 3),
                     util::fmt_f(ci.hi, 3), util::fmt_f(closed, 3),
                     std::to_string(peak_classes), ok ? "yes" : "NO"});

      auto metric = metric_from_result(
          "k=" + std::to_string(k) + " t=" + std::to_string(t), k, result,
          wall);
      metric.extra.emplace_back("t", static_cast<double>(t));
      metric.extra.emplace_back("closed_form", closed);
      metric.extra.emplace_back("peak_classes",
                                static_cast<double>(peak_classes));
      metric.extra.emplace_back("log2_dense_amps",
                                static_cast<double>(2 * k + 2));
      rep.metric(metric);
    }
  }

  rep.table(table);
  rep.note(
      "\nScaling check: at k = 16 the dense register would hold 2^34 "
      "amplitudes (256 GiB); the structured backend needs a handful of "
      "amplitude classes (peak ~4), so each Grover iteration is O(1) and "
      "the measured rates still track the BBHT closed form.");
  return all_hold ? 0 : 1;
}

}  // namespace

void register_e19(Registry& r) {
  r.add({.id = "e19",
         .title = "large-k scaling (structured backend)",
         .claim = "Claim (scaling): the symmetry-aware backend extends the "
                  "measured A3 acceptance statistics to k >= 14 (beyond 30 "
                  "dense qubits), still matching the BBHT closed form.",
         .tags = {"scaling", "backend", "structured", "large-k"}},
        run);
}

}  // namespace qols::bench
