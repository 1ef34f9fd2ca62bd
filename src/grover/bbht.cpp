#include "qols/grover/bbht.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "qols/quantum/state_vector.hpp"

namespace qols::grover {

BbhtResult bbht_search(std::uint64_t n_items,
                       const std::function<bool(std::uint64_t)>& oracle,
                       util::Rng& rng, double lambda) {
  if (n_items < 2 || !std::has_single_bit(n_items)) {
    throw std::invalid_argument("bbht_search: n_items must be a power of two");
  }
  const unsigned index_qubits =
      static_cast<unsigned>(std::countr_zero(n_items));

  // Precompute the marked set once; the "oracle call" accounting below
  // charges Grover iterations, matching the BBHT cost model.
  std::vector<std::uint64_t> marked;
  for (std::uint64_t i = 0; i < n_items; ++i) {
    if (oracle(i)) marked.push_back(i);
  }

  BbhtResult result;
  const double sqrt_n = std::sqrt(static_cast<double>(n_items));
  // Give up after the standard cutoff when nothing has been found; with
  // t >= 1 the expected work is far below this.
  const std::uint64_t max_total_iterations =
      static_cast<std::uint64_t>(std::ceil(9.0 * sqrt_n)) + 8;

  double m = 1.0;
  while (result.oracle_calls < max_total_iterations) {
    ++result.rounds;
    const auto m_int = static_cast<std::uint64_t>(m);
    const std::uint64_t j = m_int <= 1 ? 0 : rng.below(m_int);

    quantum::StateVector reg(index_qubits);
    reg.apply_h_range(0, index_qubits);
    for (std::uint64_t it = 0; it < j; ++it) {
      // Phase oracle: flip the sign of every marked index.
      reg.apply_phase_flip_set(marked);
      reg.apply_grover_diffusion(0, index_qubits);
      ++result.oracle_calls;
    }
    const std::uint64_t outcome = reg.sample_basis(rng);
    ++result.measurements;
    if (oracle(outcome)) {
      result.found = true;
      result.index = outcome;
      return result;
    }
    m = std::min(lambda * m, sqrt_n);
  }
  return result;  // presumed no solution
}

}  // namespace qols::grover
