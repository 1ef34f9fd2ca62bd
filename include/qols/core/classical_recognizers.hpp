#pragma once
// Classical online recognizers for L_DISJ.
//
// ClassicalBlockRecognizer is Proposition 3.7's machine: it is the optimal
// classical strategy, using Theta(2^k) = Theta(n^{1/3}) bits. The others
// bracket it: ClassicalFullRecognizer stores a whole m-bit string
// (Theta(n^{2/3})), and the sampling/Bloom recognizers live below the
// Omega(n^{1/3}) lower bound of Theorem 3.6 — the lower bound predicts they
// must fail, and experiment E10 measures exactly how.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "qols/fingerprint/equality_checker.hpp"
#include "qols/lang/structure_validator.hpp"
#include "qols/machine/online_recognizer.hpp"
#include "qols/util/bitvec.hpp"
#include "qols/util/rng.hpp"

namespace qols::core {

namespace detail {

/// What the four classical machines share: one tape head (A1's cursor,
/// which also drives everything else), A2 beside it, and the verdict "shape
/// (i) holds, A2 passed, and the body found no intersection". `Body` adds its
/// repetition logic as prefix(k), run(rep, block, offset, run) and
/// block_end(rep, block), each called after A2 saw the same event (see
/// lang::StructureValidator for what the events mean).
template <typename Body>
class ClassicalFrame : public machine::OnlineRecognizer {
 public:
  void feed(stream::Symbol s) final {
    feed_chunk(std::span<const stream::Symbol>(&s, 1));
  }
  /// One pass: the cursor scans the chunk once and hands each data run to
  /// A2 and the body in bulk — bit-identical to per-symbol feeding.
  void feed_chunk(std::span<const stream::Symbol> chunk) final {
    a1_.feed_chunk(chunk, *this);
  }
  bool finish() final { return a1_.finish() && a2_->passed() && !found_; }

 protected:
  /// Rearms the tape head and A2 (drawing from `rng`'s next split).
  void reset_frame(util::Rng& rng) {
    a1_ = lang::StructureValidator();
    a2_ = std::make_unique<fingerprint::EqualityChecker>(rng.split());
    found_ = false;
  }
  /// A1's counters, A2's field elements and the found flag.
  std::uint64_t frame_bits() const noexcept {
    return a1_.classical_bits_used() + a2_->classical_bits_used() + 1;
  }
  void frame_to(util::serde::ByteWriter& w) const {
    a1_.snapshot_to(w);
    a2_->snapshot_to(w);
    w.b(found_);
  }
  void frame_from(util::serde::ByteReader& r) {
    a1_.restore_from(r);
    a2_->restore_from(r);
    found_ = r.b();
  }

  lang::StructureValidator a1_;
  std::unique_ptr<fingerprint::EqualityChecker> a2_;
  bool found_ = false;  // the body saw an intersection

 private:
  friend class lang::StructureValidator;
  void on_prefix(unsigned k) {
    a2_->on_prefix(k);
    body().prefix(k);
  }
  void on_run(std::uint64_t rep, unsigned block, std::uint64_t offset,
              std::span<const stream::Symbol> run) {
    a2_->on_run(rep, block, offset, run);
    body().run(rep, block, offset, run);
  }
  void on_block_end(std::uint64_t rep, unsigned block) {
    a2_->on_block_end(rep, block);
    body().block_end(rep, block);
  }
  Body& body() { return static_cast<Body&>(*this); }
};

}  // namespace detail

/// Proposition 3.7: in repetition i the machine buffers block [x]_i (the
/// 2^k bits of x at offsets [i*2^k, (i+1)*2^k)) while streaming the x-block,
/// then matches them against the same offsets of the y-block. Repetition i
/// certifies block i; after all 2^k repetitions every index was checked.
/// Structure/consistency are validated by the same A1/A2 as the quantum
/// machine ("the same classical techniques", per the proof).
///
/// Error: one-sided, <= 2^{-2k} (only A2 can err). Space: Theta(2^k) bits.
class ClassicalBlockRecognizer final
    : public detail::ClassicalFrame<ClassicalBlockRecognizer> {
 public:
  explicit ClassicalBlockRecognizer(std::uint64_t seed);

  void reset(std::uint64_t seed) override;
  machine::SpaceReport space_used() const override;
  std::string name() const override { return "classical-block"; }
  std::vector<std::uint8_t> snapshot() const override;
  void restore(std::span<const std::uint8_t> bytes) override;

  bool intersection_found() const noexcept { return found_; }

 private:
  friend class detail::ClassicalFrame<ClassicalBlockRecognizer>;
  void prefix(unsigned k);
  void run(std::uint64_t rep, unsigned block, std::uint64_t offset,
           std::span<const stream::Symbol> bits);
  void block_end(std::uint64_t, unsigned) {}

  util::BitVec buffer_;  // the 2^k buffered bits of block [x]_rep
};

/// Baseline that stores all of x(1) (m = 2^{2k} bits = Theta(n^{2/3})) and
/// checks y(1) against it directly; A1/A2 still validate the rest.
class ClassicalFullRecognizer final
    : public detail::ClassicalFrame<ClassicalFullRecognizer> {
 public:
  explicit ClassicalFullRecognizer(std::uint64_t seed);

  void reset(std::uint64_t seed) override;
  machine::SpaceReport space_used() const override;
  std::string name() const override { return "classical-full"; }
  std::vector<std::uint8_t> snapshot() const override;
  void restore(std::span<const std::uint8_t> bytes) override;

 private:
  friend class detail::ClassicalFrame<ClassicalFullRecognizer>;
  void prefix(unsigned k);
  void run(std::uint64_t rep, unsigned block, std::uint64_t offset,
           std::span<const stream::Symbol> bits);
  void block_end(std::uint64_t, unsigned) {}

  util::BitVec x_;
};

/// Small-space strategy #1: per repetition, sample `budget` uniformly random
/// indices, remember x's bits there, and compare against y's bits at the
/// same indices. Space O(budget * log m). Misses an intersection of size t
/// with probability about (1 - t/m)^{budget * 2^k} — for budget = O(log m)
/// this tends to 1, as Theorem 3.6 demands of any o(sqrt m)-space machine.
class ClassicalSamplingRecognizer final
    : public detail::ClassicalFrame<ClassicalSamplingRecognizer> {
 public:
  ClassicalSamplingRecognizer(std::uint64_t seed, std::uint64_t budget);

  void reset(std::uint64_t seed) override;
  machine::SpaceReport space_used() const override;
  std::string name() const override { return "classical-sample"; }
  std::vector<std::uint8_t> snapshot() const override;
  void restore(std::span<const std::uint8_t> bytes) override;

 private:
  friend class detail::ClassicalFrame<ClassicalSamplingRecognizer>;
  void prefix(unsigned k);
  void run(std::uint64_t rep, unsigned block, std::uint64_t offset,
           std::span<const stream::Symbol> bits);
  void block_end(std::uint64_t rep, unsigned block);
  void draw_indices();

  util::Rng rng_;
  std::uint64_t budget_;
  std::vector<std::uint64_t> indices_;  // sorted sample for this repetition
  std::vector<bool> xbits_;             // x's bits at those indices
  std::size_t next_sample_ = 0;         // sweep position into indices_
};

/// Small-space strategy #2: a Bloom filter over the 1-positions of x(1);
/// every 1-position of y(1) is tested against it. No false negatives, so
/// intersecting inputs are ALWAYS rejected; but at o(sqrt m) bits the false
/// positive rate approaches 1 and disjoint inputs get rejected too — the
/// machine trades soundness for completeness and still fails the
/// bounded-error requirement, again as the lower bound predicts.
class ClassicalBloomRecognizer final
    : public detail::ClassicalFrame<ClassicalBloomRecognizer> {
 public:
  /// Throws std::invalid_argument when filter_bits == 0 (the hash range
  /// would be empty). num_hashes == 0 is legal but degenerate: the
  /// all-hashes-present probe is vacuously true, so every index reads as
  /// "maybe present" and any y with a 1-bit causes rejection.
  ClassicalBloomRecognizer(std::uint64_t seed, std::uint64_t filter_bits,
                           unsigned num_hashes);

  void reset(std::uint64_t seed) override;
  machine::SpaceReport space_used() const override;
  std::string name() const override { return "classical-bloom"; }
  std::vector<std::uint8_t> snapshot() const override;
  void restore(std::span<const std::uint8_t> bytes) override;

 private:
  friend class detail::ClassicalFrame<ClassicalBloomRecognizer>;
  void prefix(unsigned k);
  void run(std::uint64_t rep, unsigned block, std::uint64_t offset,
           std::span<const stream::Symbol> bits);
  void block_end(std::uint64_t, unsigned) {}
  std::uint64_t hash(std::uint64_t index, unsigned which) const noexcept;

  std::uint64_t seed_ = 0;
  std::uint64_t filter_bits_;
  unsigned num_hashes_;
  util::BitVec filter_;
};

}  // namespace qols::core
