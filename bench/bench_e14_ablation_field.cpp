// E14 (ablation) — why procedure A2 takes its prime from (2^{4k}, 2^{4k+1}).
//
// The per-test collision probability is (m-1)/p with m = 2^{2k}. With the
// paper's q = 4 exponent this is < 2^{-2k}, small enough that a union bound
// over all 3*2^k - 1 tests still vanishes. With q = 2 the per-test bound is
// ~1 and single-bit damage slips through at a measurable rate; q = 3 sits
// in between (union bound ~2^{-k}* const). The sweep measures false-accept
// rates of mutated words for q in {2, 3, 4, 5}.
#include <algorithm>
#include <cmath>
#include <string>

#include "experiments.hpp"
#include "qols/fingerprint/equality_checker.hpp"
#include "qols/lang/ldisj_instance.hpp"
#include "qols/lang/structure_validator.hpp"
#include "qols/util/table.hpp"
#include "registry.hpp"

namespace qols::bench {
namespace {

double false_accept_rate(const std::string& word, unsigned q, int trials) {
  int slipped = 0;
  for (int i = 0; i < trials; ++i) {
    fingerprint::EqualityChecker a2{util::Rng(555 + i), q};
    stream::StringStream s(word);
    lang::StructureValidator tape;  // the head A2 reads through
    while (auto sym = s.next()) tape.feed(*sym, a2);
    if (a2.passed()) ++slipped;
  }
  return slipped / static_cast<double>(trials);
}

int run(Reporter& rep, const RunConfig& cfg) {
  util::Rng rng(14);
  util::Table table({"k", "field exponent q", "prime bits ~", "per-test bound",
                     "measured false-accept", "trials"});
  const unsigned kmax = std::clamp(cfg.max_k_or(3), 2u, 3u);
  for (unsigned k = 2; k <= kmax; ++k) {
    auto inst = lang::LDisjInstance::make_disjoint(k, rng);
    auto mutant =
        lang::make_mutant_stream(inst, lang::MutantKind::kXZMismatch, rng);
    const std::string word = stream::materialize(*mutant);
    const int trials = cfg.trials_or(3000);
    for (unsigned q : {2u, 3u, 4u, 5u}) {
      const double m = std::pow(2.0, 2.0 * k);
      const double per_test = std::min(1.0, (m - 1.0) / std::pow(2.0, q * k));
      const double measured = false_accept_rate(word, q, trials);
      table.add_row({std::to_string(k), std::to_string(q),
                     std::to_string(q * k + 1), util::fmt_f(per_test, 5),
                     util::fmt_f(measured, 5), std::to_string(trials)});
      MetricRecord metric;
      metric.label = "k=" + std::to_string(k) + " q=" + std::to_string(q);
      metric.k = k;
      metric.trials = static_cast<std::uint64_t>(trials);
      metric.extra = {{"field_exponent", static_cast<double>(q)},
                      {"per_test_bound", per_test},
                      {"false_accept_rate", measured}};
      rep.metric(metric);
    }
  }
  rep.table(table, "Single z-block bit flip (x != z), per-field sweep:");
  rep.note(
      "\nReading: at q = 2 the sieve is porous (measured leak tracks the "
      "(m-1)/p bound); from q = 4 (the paper's pick) the measured rate is "
      "effectively zero while the field elements stay O(k) bits — the "
      "smallest exponent with a union bound that still decays like "
      "2^{-2k}.");
  return 0;
}

}  // namespace

void register_e14(Registry& r) {
  r.add({.id = "e14",
         .title = "fingerprint field size (ablation)",
         .claim = "Claim implicit in the proof: the prime interval "
                  "(2^{4k}, 2^{4k+1}) makes A2's total error < 2^{-2k}; "
                  "smaller fields visibly leak.",
         .tags = {"ablation", "fingerprint", "a2"}},
        run);
}

}  // namespace qols::bench
