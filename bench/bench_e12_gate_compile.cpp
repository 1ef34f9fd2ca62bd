// E12 — Definition 2.3 accounting at gate level: the machine's output tape
// (the compiled {H,T,CNOT} circuit) stays polynomial in n and far below the
// definition's 2^{s(|w|)} budget, and the compiler's ancilla use stays O(k).
#include <cmath>
#include <string>

#include "experiments.hpp"
#include "qols/core/grover_streamer.hpp"
#include "qols/gates/builder.hpp"
#include "qols/lang/ldisj_instance.hpp"
#include "qols/lang/structure_validator.hpp"
#include "qols/util/table.hpp"
#include "registry.hpp"

namespace qols::bench {
namespace {

int run(Reporter& rep, const RunConfig& cfg) {
  util::Rng rng(12);
  util::Table table({"k", "n", "gates total", "H", "T", "CNOT",
                     "gates/n", "data+anc qubits", "log2(gates)",
                     "s = total space bits"});
  const unsigned kmax = cfg.dense_max_k_or(6);
  for (unsigned k = 1; k <= kmax; ++k) {
    auto inst = lang::LDisjInstance::make_disjoint(k, rng);
    gates::CountingSink sink;
    core::GroverStreamer::Options opts;
    opts.simulate = false;
    opts.gate_sink = &sink;
    core::GroverStreamer a3{util::Rng(1000 + k), opts};
    auto s = inst.stream();
    while (auto sym = s->next()) a3.feed(*sym);

    const double n = static_cast<double>(inst.word_length());
    // Definition 2.3's budget exponent: the machine's space bound s(|w|).
    // Our machine's total space is Theta(k); even with the tiny constant
    // here, gates ~ poly(n) << 2^{s} once n grows.
    // A3 runs alone here, so its tape head's counters count too.
    const std::uint64_t space_bits =
        lang::StructureValidator::classical_bits_for(k) +
        a3.classical_bits_used() + a3.qubits_used() + a3.ancilla_qubits_used();
    table.add_row(
        {std::to_string(k), util::fmt_g(inst.word_length()),
         util::fmt_g(sink.total()), util::fmt_g(sink.h()),
         util::fmt_g(sink.t()), util::fmt_g(sink.cnot()),
         util::fmt_f(static_cast<double>(sink.total()) / n, 2),
         std::to_string(a3.qubits_used()) + "+" +
             std::to_string(a3.ancilla_qubits_used()),
         util::fmt_f(std::log2(static_cast<double>(sink.total())), 1),
         std::to_string(space_bits)});
    MetricRecord metric;
    metric.label = "k=" + std::to_string(k);
    metric.k = k;
    metric.qubits = a3.qubits_used() + a3.ancilla_qubits_used();
    metric.extra = {{"gates_total", static_cast<double>(sink.total())},
                    {"gates_h", static_cast<double>(sink.h())},
                    {"gates_t", static_cast<double>(sink.t())},
                    {"gates_cnot", static_cast<double>(sink.cnot())},
                    {"gates_per_symbol", static_cast<double>(sink.total()) / n},
                    {"space_bits", static_cast<double>(space_bits)}};
    rep.metric(metric);
  }
  rep.table(table);
  rep.note(
      "\nShape check: gates/n grows ~linearly in k (each input bit "
      "compiles to an O(k)-deep Toffoli ladder), so the tape is "
      "n*polylog(n) overall — comfortably within Definition 2.3's "
      "2^{s} budget, with ancillas pegged at 2k = O(log n).");
  return 0;
}

}  // namespace

void register_e12(Registry& r) {
  r.add({.id = "e12",
         .title = "gate-level lowering of procedure A3",
         .claim = "Definition 2.3: the machine outputs at most 2^{s(|w|)} "
                  "gates over {H,T,CNOT}. We count the emitted tape exactly "
                  "(CountingSink).",
         .tags = {"gates", "compiler", "definition-2.3"}},
        run);
}

}  // namespace qols::bench
