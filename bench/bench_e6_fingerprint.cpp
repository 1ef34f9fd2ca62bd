// E6 — procedure A2's ingredients: the prime search in (2^{4k}, 2^{4k+1})
// (the paper's "naive strategy ... is sufficient") and the one-sided error
// bound: an inconsistent word slips past A2 with probability < 2^{-2k}.
#include <cmath>
#include <string>

#include "experiments.hpp"
#include "qols/fingerprint/equality_checker.hpp"
#include "qols/lang/ldisj_instance.hpp"
#include "qols/lang/structure_validator.hpp"
#include "qols/util/modmath.hpp"
#include "qols/util/table.hpp"
#include "registry.hpp"

namespace qols::bench {
namespace {

double measured_false_accept(unsigned k, int trials, util::Rng& rng) {
  auto inst = lang::LDisjInstance::make_disjoint(k, rng);
  auto mutant =
      lang::make_mutant_stream(inst, lang::MutantKind::kXZMismatch, rng);
  const std::string word = stream::materialize(*mutant);
  int slipped = 0;
  for (int i = 0; i < trials; ++i) {
    fingerprint::EqualityChecker a2{util::Rng(31337 + i)};
    stream::StringStream s(word);
    lang::StructureValidator tape;  // the head A2 reads through
    while (auto sym = s.next()) tape.feed(*sym, a2);
    if (a2.passed()) ++slipped;
  }
  return slipped / static_cast<double>(trials);
}

int run(Reporter& rep, const RunConfig& cfg) {
  util::Rng rng(6);
  util::Table table({"k", "prime p", "candidates tested", "field bits",
                     "false-accept measured", "bound 2^{-2k}", "trials"});
  const unsigned kmax = cfg.dense_max_k_or(8);
  for (unsigned k = 1; k <= kmax; ++k) {
    const auto stats = util::fingerprint_prime_stats(k);
    const double bound = std::pow(2.0, -2.0 * k);
    MetricRecord metric;
    metric.label = "k=" + std::to_string(k);
    metric.k = k;
    metric.extra = {{"prime", static_cast<double>(stats.prime)},
                    {"candidates_tested",
                     static_cast<double>(stats.candidates_tested)},
                    {"bound", bound}};
    // Measurement cost grows with the word; confine Monte Carlo to k <= 5.
    std::string measured = "-";
    std::string trials_str = "-";
    if (k <= 5) {
      const int trials =
          cfg.trials_or(k <= 3 ? 2000 : (k == 4 ? 400 : 100));
      const double rate = measured_false_accept(k, trials, rng);
      measured = util::fmt_f(rate, 5);
      trials_str = std::to_string(trials);
      metric.trials = static_cast<std::uint64_t>(trials);
      metric.extra.emplace_back("false_accept_rate", rate);
    }
    table.add_row({std::to_string(k), util::fmt_g(stats.prime),
                   std::to_string(stats.candidates_tested),
                   std::to_string(static_cast<int>(std::ceil(
                       std::log2(static_cast<double>(stats.prime))))),
                   measured, util::fmt_f(bound, 5), trials_str});
    rep.metric(metric);
  }
  rep.table(table);
  rep.note(
      "\nShape check: measured false-accept rate sits at or below "
      "the 2^{-2k} bound (0 observed once the field is large); the "
      "prime search never scans more than a few dozen candidates.");
  return 0;
}

}  // namespace

void register_e6(Registry& r) {
  r.add({.id = "e6",
         .title = "fingerprint consistency check (procedure A2)",
         .claim = "Claims: a prime exists in every (2^{4k}, 2^{4k+1}); naive "
                  "search finds it fast; inconsistent words pass with "
                  "probability < 2^{-2k}.",
         .tags = {"fingerprint", "a2", "error"}},
        run);
}

}  // namespace qols::bench
