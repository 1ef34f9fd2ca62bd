#include "qols/comm/protocols.hpp"

#include <bit>
#include <cassert>
#include <stdexcept>

#include "qols/quantum/state_vector.hpp"
#include "qols/util/modmath.hpp"

namespace qols::comm {
namespace {

// log2(m) for the index labels exchanged by classical protocols.
std::uint64_t index_bits(std::uint64_t m) {
  return std::bit_width(m - 1);
}

// Derives k from m = 2^{2k}; throws unless m is an even power of two >= 4.
unsigned k_from_m(std::uint64_t m) {
  if (m < 4 || !std::has_single_bit(m)) {
    throw std::invalid_argument("BCW protocol needs m = 2^{2k}, k >= 1");
  }
  const unsigned log2m = static_cast<unsigned>(std::countr_zero(m));
  if (log2m % 2 != 0) {
    throw std::invalid_argument("BCW protocol needs m = 2^{2k} (even log2)");
  }
  return log2m / 2;
}

}  // namespace

DisjOutcome disj_trivial(const util::BitVec& x, const util::BitVec& y,
                         util::Rng& /*rng*/) {
  DisjOutcome out;
  out.cost.add_classical(x.size());  // Alice -> Bob: all of x
  out.declared_disjoint = (x.and_popcount(y) == 0);
  out.cost.add_classical(1);  // Bob -> Alice: the answer bit
  return out;
}

DisjOutcome disj_sampling(const util::BitVec& x, const util::BitVec& y,
                          std::uint64_t samples, util::Rng& rng) {
  DisjOutcome out;
  const std::uint64_t m = x.size();
  assert(y.size() == m);
  bool hit = false;
  for (std::uint64_t s = 0; s < samples; ++s) {
    const std::uint64_t i = rng.below(m);
    if (x.get(i) && y.get(i)) hit = true;
  }
  // Alice's message: `samples` (index, x-bit) pairs.
  out.cost.add_classical(samples * (index_bits(m) + 1));
  out.declared_disjoint = !hit;
  out.cost.add_classical(1);
  return out;
}

DisjOutcome disj_bcw_quantum(const util::BitVec& x, const util::BitVec& y,
                             util::Rng& rng) {
  DisjOutcome out;
  const std::uint64_t m = x.size();
  assert(y.size() == m);
  const unsigned k = k_from_m(m);
  const unsigned data_qubits = 2 * k + 2;  // index register + h + l
  const unsigned h = 2 * k;
  const unsigned l = 2 * k + 1;

  // The register is physically a single simulated state; "sending" it means
  // the other party may now apply its local oracle. Each transfer is
  // metered as data_qubits qubits of communication.
  quantum::StateVector reg(data_qubits);
  reg.apply_h_range(0, 2 * k);

  auto alice_vx = [&] {
    for (std::uint64_t i = 0; i < m; ++i) {
      if (x.get(i)) reg.apply_x_on_index(0, 2 * k, i, h);
    }
  };
  auto bob_wy = [&] {
    for (std::uint64_t i = 0; i < m; ++i) {
      if (y.get(i)) reg.apply_z_on_index(0, 2 * k, i, h);
    }
  };
  auto bob_ry = [&] {
    for (std::uint64_t i = 0; i < m; ++i) {
      if (y.get(i)) reg.apply_cx_on_index(0, 2 * k, i, h, l);
    }
  };
  auto alice_diffusion = [&] { reg.apply_grover_diffusion(0, 2 * k); };

  // BBHT: iteration count j uniform in {0, ..., 2^k - 1}.
  const std::uint64_t j = rng.below(std::uint64_t{1} << k);
  for (std::uint64_t it = 0; it < j; ++it) {
    alice_vx();                            // Alice applies V_x ...
    out.cost.add_quantum(data_qubits);     // ... and sends the register
    bob_wy();                              // Bob applies W_y ...
    out.cost.add_quantum(data_qubits);     // ... and sends it back
    alice_vx();                            // V_x W_y V_x = phase oracle
    alice_diffusion();                     // and the diffusion, locally
  }
  alice_vx();                          // step 4: V_x ...
  out.cost.add_quantum(data_qubits);   // ... send to Bob
  bob_ry();                            // Bob writes x_i AND y_i into l
  const bool found = reg.measure(l, rng);
  out.declared_disjoint = !found;
  out.cost.add_classical(1);  // Bob announces the outcome
  return out;
}

DisjOutcome disj_bcw_amplified(const util::BitVec& x, const util::BitVec& y,
                               unsigned attempts, util::Rng& rng) {
  DisjOutcome total;
  total.declared_disjoint = true;
  for (unsigned a = 0; a < attempts; ++a) {
    DisjOutcome one = disj_bcw_quantum(x, y, rng);
    total.cost.classical_bits += one.cost.classical_bits;
    total.cost.qubits += one.cost.qubits;
    total.cost.messages += one.cost.messages;
    if (!one.declared_disjoint) {
      total.declared_disjoint = false;
      break;  // a witness was found; no need to keep searching
    }
  }
  return total;
}

std::uint64_t bcw_worst_case_qubits(unsigned k) noexcept {
  const std::uint64_t transfers = 3 * (std::uint64_t{1} << k) + 2;
  return transfers * (2 * k + 2);
}

EqOutcome eq_fingerprint(const util::BitVec& x, const util::BitVec& y,
                         util::Rng& rng) {
  EqOutcome out;
  const std::uint64_t m = x.size();
  assert(y.size() == m);
  // Pick p just above m^2 (the paper's 2^{4k} for m = 2^{2k}); for general m
  // use the first prime in (m^2, 2 m^2).
  const auto p_opt = util::first_prime_in_open_interval(m * m, 2 * m * m + 2);
  const std::uint64_t p = p_opt.value();
  const std::uint64_t t = rng.below(p);
  std::uint64_t fx = 0, fy = 0, tp = 1 % p;
  for (std::uint64_t i = 0; i < m; ++i) {
    if (x.get(i)) fx = util::addmod(fx, tp, p);
    if (y.get(i)) fy = util::addmod(fy, tp, p);
    tp = util::mulmod(tp, t, p);
  }
  // Alice -> Bob: p, t, F_x(t) — three field elements.
  const std::uint64_t field_bits = std::bit_width(p);
  out.cost.add_classical(3 * field_bits);
  out.declared_equal = (fx == fy);
  out.cost.add_classical(1);
  return out;
}

}  // namespace qols::comm
