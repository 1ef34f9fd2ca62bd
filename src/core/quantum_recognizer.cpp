#include "qols/core/quantum_recognizer.hpp"

namespace qols::core {

QuantumOnlineRecognizer::QuantumOnlineRecognizer(std::uint64_t seed)
    : QuantumOnlineRecognizer(seed, Options{}) {}

QuantumOnlineRecognizer::QuantumOnlineRecognizer(std::uint64_t seed,
                                                 Options opts)
    : opts_(opts) {
  reset(seed);
}

void QuantumOnlineRecognizer::reset(std::uint64_t seed) {
  util::Rng rng(seed);
  a1_ = lang::StructureValidator();
  // Independent child generators: A2's evaluation point and A3's iteration
  // count / measurement must not be correlated.
  a2_ = std::make_unique<fingerprint::EqualityChecker>(rng.split());
  a3_ = std::make_unique<GroverStreamer>(rng.split(), opts_.a3);
  finished_ = false;
}

namespace {

// Hands each tape-head event to A2, then to A3.
struct A2A3 {
  fingerprint::EqualityChecker& a2;
  GroverStreamer& a3;

  void on_prefix(unsigned k) {
    a2.on_prefix(k);
    a3.on_prefix(k);
  }
  void on_run(std::uint64_t rep, unsigned block, std::uint64_t offset,
              std::span<const stream::Symbol> run) {
    a2.on_run(rep, block, offset, run);
    a3.on_run(rep, block, offset, run);
  }
  void on_block_end(std::uint64_t rep, unsigned block) {
    a2.on_block_end(rep, block);
    a3.on_block_end(rep, block);
  }
};

}  // namespace

void QuantumOnlineRecognizer::feed(stream::Symbol s) {
  feed_chunk(std::span<const stream::Symbol>(&s, 1));
}

void QuantumOnlineRecognizer::feed_chunk(
    std::span<const stream::Symbol> chunk) {
  A2A3 sink{*a2_, *a3_};
  a1_.feed_chunk(chunk, sink);
}

bool QuantumOnlineRecognizer::finish() { return verdict() == Verdict::kAccept; }

QuantumOnlineRecognizer::Verdict QuantumOnlineRecognizer::verdict() {
  finished_ = true;
  if (!a1_.finish()) return Verdict::kReject;
  if (!a2_->passed()) return Verdict::kReject;
  const int out = a3_->finish_output();
  if (out == GroverStreamer::kNotSimulated) return Verdict::kNotSimulated;
  return out == 1 ? Verdict::kAccept : Verdict::kReject;
}

double QuantumOnlineRecognizer::exact_acceptance_probability() {
  finished_ = true;
  if (!a1_.finish()) return 0.0;
  if (!a2_->passed()) return 0.0;
  // Consistent with verdict()/finish(): a run whose register could not be
  // simulated contributes no acceptance mass (an un-run A3 must not read as
  // a certain accept).
  if (a3_->not_simulated()) return 0.0;
  return 1.0 - a3_->probability_output_zero();
}

machine::SpaceReport QuantumOnlineRecognizer::space_used() const {
  machine::SpaceReport r;
  r.classical_bits = a1_.classical_bits_used() + a2_->classical_bits_used() +
                     a3_->classical_bits_used();
  r.qubits = a3_->qubits_used() + a3_->ancilla_qubits_used();
  return r;
}

std::vector<std::uint8_t> QuantumOnlineRecognizer::snapshot() const {
  util::serde::ByteWriter w;
  machine::snapshot_header(w, /*kind_tag=*/5);
  try {
    a1_.snapshot_to(w);
    a2_->snapshot_to(w);
    a3_->snapshot_to(w);
  } catch (const backend::UnsupportedOperation& e) {
    // Translate the backend-layer refusal (gate-level mode, or a backend
    // without state serialization) into the recognizer-layer contract.
    throw machine::UnsupportedSnapshot(e.what());
  }
  w.b(finished_);
  return w.take();
}

void QuantumOnlineRecognizer::restore(std::span<const std::uint8_t> bytes) {
  util::serde::ByteReader r(bytes);
  machine::check_snapshot_header(r, /*kind_tag=*/5, "quantum");
  a1_.restore_from(r);
  a2_->restore_from(r);
  try {
    a3_->restore_from(r);
  } catch (const backend::UnsupportedOperation& e) {
    throw machine::UnsupportedSnapshot(e.what());
  }
  finished_ = r.b();
  r.expect_exhausted();
  // A3 addresses its register with the tape head's offsets, so both must
  // agree on k.
  const std::uint64_t qubits = a3_->qubits_used();
  if (qubits != 0 && qubits != 2 * std::uint64_t{a1_.k().value_or(0)} + 2) {
    throw util::serde::DecodeError("quantum: tape head and A3 disagree on k");
  }
}

}  // namespace qols::core
