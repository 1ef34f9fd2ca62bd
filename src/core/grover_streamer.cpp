#include "qols/core/grover_streamer.hpp"

#include <array>
#include <bit>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "qols/backend/registry.hpp"
#include "qols/telemetry/registry.hpp"

namespace qols::core {

using quantum::ControlTerm;
using stream::Symbol;

GroverStreamer::GroverStreamer(util::Rng rng)
    : GroverStreamer(rng, Options{}) {}

GroverStreamer::GroverStreamer(util::Rng rng, Options opts)
    : rng_(rng), opts_(std::move(opts)) {
  // Fail fast on a misspelled backend id instead of mid-stream.
  if (!opts_.backend.empty() && opts_.backend != backend::kAutoBackendId &&
      backend::BackendRegistry::global().find(opts_.backend) == nullptr) {
    throw std::invalid_argument("GroverStreamer: unknown backend '" +
                                opts_.backend + "'");
  }
}

void GroverStreamer::on_prefix(unsigned k) {
  k_ = k;
  std::optional<std::string> backend_id;
  if (opts_.simulate) {
    const std::string requested =
        !opts_.backend.empty()
            ? opts_.backend
            : backend::env_backend_override().value_or(std::string{});
    backend_id = backend::resolve_backend_id(requested, k_, opts_.max_sim_k,
                                             opts_.max_structured_k);
    if (!backend_id) {
      overflow_ = true;  // no backend covers k: explicitly not simulated
      return;
    }
  } else if (k_ > opts_.max_sim_k) {
    // Non-simulating modes keep the historical max_sim_k envelope for
    // counters and the gate compiler.
    overflow_ = true;
    return;
  }
  j_ = rng_.below(std::uint64_t{1} << k_);
  const unsigned data_qubits = 2 * k_ + 2;
  if (backend_id) {
    backend_ = backend::make_backend(*backend_id, data_qubits, 2 * k_,
                                     opts_.precision);
    backend_->apply_h_range(0, 2 * k_);
    ++gates_applied_;
  }
  if (opts_.gate_sink != nullptr) {
    // mcz_pattern over 2k+1 terms needs 2k ancillas.
    builder_ = std::make_unique<gates::CircuitBuilder>(*opts_.gate_sink,
                                                       data_qubits, 2 * k_);
    builder_->h_range(0, 2 * k_);
  }
  active_ = true;
}

namespace {

// First symbol in [p, end) that is not kZero, or end. kZero's byte is 0, so
// eight symbols are tested at once: a zero word is eight zero bits, and in a
// nonzero one the lowest set byte (in memory order) is the run's end.
const Symbol* skip_zero_bits(const Symbol* p, const Symbol* end) {
  static_assert(static_cast<std::uint8_t>(Symbol::kZero) == 0);
  for (; end - p >= 8; p += 8) {
    std::uint64_t w;
    std::memcpy(&w, p, sizeof w);
    if (w == 0) continue;
    if constexpr (std::endian::native == std::endian::little) {
      return p + std::countr_zero(w) / 8;
    } else {
      return p + std::countl_zero(w) / 8;
    }
  }
  while (p < end && *p == Symbol::kZero) ++p;
  return p;
}

}  // namespace

void GroverStreamer::on_run(std::uint64_t rep, unsigned block,
                            std::uint64_t offset, std::span<const Symbol> run) {
  if (!active_ || done_) return;
  // Zero bits only advance the offset, so only the one-bits are visited.
  const bool grover_phase = rep < j_;
  const Symbol* const begin = run.data();
  const Symbol* const end = begin + run.size();
  for (const Symbol* p = skip_zero_bits(begin, end); p != end;
       p = skip_zero_bits(p + 1, end)) {
    on_one(grover_phase, block, offset + static_cast<std::uint64_t>(p - begin));
  }
}

void GroverStreamer::on_one(bool grover_phase, unsigned block,
                            std::uint64_t idx) {
  const unsigned h = 2 * k_;
  const unsigned l = 2 * k_ + 1;
  // The gate-level control pattern: the index register fixed to idx, and
  // optionally h set.
  const auto index_terms = [&](bool with_h) {
    std::vector<ControlTerm> terms;
    terms.reserve(2 * k_ + 1);
    for (unsigned q = 0; q < 2 * k_; ++q) {
      terms.push_back({q, ((idx >> q) & 1) != 0});
    }
    if (with_h) terms.push_back({h, true});
    return terms;
  };
  if (block == 1 && grover_phase) {  // W_y
    if (backend_) backend_->apply_z_on_index(0, 2 * k_, idx, h);
    if (builder_) builder_->mcz_pattern(index_terms(true));
  } else if (block == 1) {  // step 4 (repetition j+1): R_y
    if (backend_) backend_->apply_cx_on_index(0, 2 * k_, idx, h, l);
    if (builder_) builder_->mcx_pattern(index_terms(true), l);
  } else if (block == 0 || grover_phase) {  // V_x, and V_z in the Grover phase
    if (backend_) backend_->apply_x_on_index(0, 2 * k_, idx, h);
    if (builder_) builder_->mcx_pattern(index_terms(false), h);
  } else {
    return;
  }
  if (backend_) ++gates_applied_;
}

void GroverStreamer::on_block_end(std::uint64_t rep, unsigned block) {
  if (!active_ || done_) return;
  const bool grover_phase = rep < j_;
  if (!grover_phase && block == 1) {
    // Step 4 complete: the register now carries sum beta_i |i>|x_i>|x_i&y_i>.
    done_ = true;
    return;
  }
  // A full (x#y#x#) repetition inside the Grover phase ends with the
  // diffusion U_k S_k U_k.
  if (grover_phase && block == 2) apply_diffusion();
}

void GroverStreamer::apply_diffusion() {
  if (backend_) {
    backend_->apply_grover_diffusion(0, 2 * k_);
    ++gates_applied_;
  }
  if (builder_) {
    builder_->h_range(0, 2 * k_);
    builder_->reflect_zero(0, 2 * k_);  // -S_k; global phase, unobservable
    builder_->h_range(0, 2 * k_);
  }
}

double GroverStreamer::probability_output_zero() const {
  if (!backend_) return 0.0;
  return backend_->probability_one(2 * k_ + 1);
}

int GroverStreamer::finish_output() {
  // Flush this run's gate tally into the process-wide counter. Observability
  // only: the measurement below is taken before/independently of the add.
  static telemetry::Counter& gates_total =
      telemetry::MetricsRegistry::global().counter("quantum.gates_total");
  gates_total.add(gates_applied_);
  if (overflow_) return kNotSimulated;  // no backend covered k
  if (!active_ || !backend_) return 1;  // simulation not requested: inert
  const bool b = backend_->measure(2 * k_ + 1, rng_);
  return b ? 0 : 1;
}

std::uint64_t GroverStreamer::ancilla_qubits_used() const noexcept {
  return builder_ ? builder_->ancillas_high_water() : 0;
}

std::uint64_t GroverStreamer::classical_bits_for(unsigned k) noexcept {
  return std::uint64_t{k} + 2;  // j (k bits), done/active flags
}

std::uint64_t GroverStreamer::classical_bits_used() const noexcept {
  return active_ ? classical_bits_for(k_) : 0;
}

std::uint64_t GroverStreamer::gates_emitted() const noexcept {
  return builder_ ? builder_->gates_emitted() : 0;
}

void GroverStreamer::snapshot_to(util::serde::ByteWriter& w) const {
  if (builder_ != nullptr || opts_.gate_sink != nullptr) {
    // The emitted-gate tape lives in the caller's sink; a snapshot that
    // silently dropped it would replay the stream with half the output
    // missing.
    throw backend::UnsupportedOperation("snapshot in gate-level mode");
  }
  for (const std::uint64_t s : rng_.state()) w.u64(s);
  w.u32(k_);
  w.b(active_);
  w.b(overflow_);
  w.u64(j_);
  w.b(done_);
  w.b(backend_ != nullptr);
  if (backend_) {
    const std::string_view id = backend_->id();
    w.u8(static_cast<std::uint8_t>(id.size()));
    for (const char c : id) w.u8(static_cast<std::uint8_t>(c));
    w.u8(static_cast<std::uint8_t>(backend_->precision()));
    backend_->serialize_state(w);
  }
}

void GroverStreamer::restore_from(util::serde::ByteReader& r) {
  if (opts_.gate_sink != nullptr) {
    throw backend::UnsupportedOperation("restore into gate-level mode");
  }
  std::array<std::uint64_t, 4> state;
  for (auto& s : state) s = r.u64();
  rng_.set_state(state);
  k_ = r.u32();
  active_ = r.b();
  overflow_ = r.b();
  j_ = r.u64();
  done_ = r.b();
  backend_.reset();
  builder_.reset();
  if (r.b()) {
    std::string id(r.u8(), '\0');
    for (char& c : id) c = static_cast<char>(r.u8());
    const auto precision = static_cast<quantum::Precision>(r.u8());
    if (k_ == 0 || k_ > 29) {
      throw util::serde::DecodeError("grover streamer: bad k for backend");
    }
    // make_backend validates the id and geometry; a corrupt id string
    // surfaces as invalid_argument, not undefined behavior.
    backend_ = backend::make_backend(id, 2 * k_ + 2, 2 * k_, precision);
    backend_->restore_state(r);
  }
}

}  // namespace qols::core
