#include "qols/core/classical_recognizers.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace qols::core {

using stream::Symbol;

namespace {

// The k above which a body stays inert (its buffer would not fit).
constexpr unsigned kBodyMaxK = 15;
constexpr unsigned kFullMaxK = 12;

// Snapshot kind tags (see machine/online_recognizer.hpp).
constexpr std::uint8_t kTagBlock = 1;
constexpr std::uint8_t kTagFull = 2;
constexpr std::uint8_t kTagSampling = 3;
constexpr std::uint8_t kTagBloom = 4;

void put_bitvec(util::serde::ByteWriter& w, const util::BitVec& v) {
  w.u64(v.size());
  w.u64_vec(v.words());
}

util::BitVec get_bitvec(util::serde::ByteReader& r) {
  const std::uint64_t n = r.u64();
  std::vector<std::uint64_t> words = r.u64_vec();
  try {
    return util::BitVec::from_words(static_cast<std::size_t>(n),
                                    std::move(words));
  } catch (const std::invalid_argument& e) {
    throw util::serde::DecodeError(e.what());
  }
}

// A body buffer restored from bytes must have the size the tape head's k
// implies (or be empty: not allocated yet, or k past the body's cap).
void check_size(std::uint64_t got, std::uint64_t want, const char* who) {
  if (got != 0 && got != want) {
    throw util::serde::DecodeError(std::string(who) + ": buffer size mismatch");
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// ClassicalBlockRecognizer (Proposition 3.7)
// ---------------------------------------------------------------------------

ClassicalBlockRecognizer::ClassicalBlockRecognizer(std::uint64_t seed) {
  reset(seed);
}

void ClassicalBlockRecognizer::reset(std::uint64_t seed) {
  util::Rng rng(seed);
  reset_frame(rng);
  buffer_ = util::BitVec();
}

void ClassicalBlockRecognizer::prefix(unsigned k) {
  if (k <= kBodyMaxK) buffer_ = util::BitVec(std::uint64_t{1} << k);
}

void ClassicalBlockRecognizer::run(std::uint64_t rep, unsigned block,
                                   std::uint64_t offset,
                                   std::span<const Symbol> bits) {
  // Repetition r owns the index window [r*2^k, (r+1)*2^k): only the run's
  // overlap with it is read or written, and z-blocks touch nothing.
  const std::uint64_t width = buffer_.size();
  if (width == 0 || block == 2) return;
  const std::uint64_t window_lo = rep * width;
  const std::uint64_t lo = std::max(offset, window_lo);
  const std::uint64_t hi = std::min(offset + bits.size(), window_lo + width);
  for (std::uint64_t idx = lo; idx < hi; ++idx) {
    const bool bit = bits[idx - offset] == Symbol::kOne;
    if (block == 0) {
      buffer_.set(idx - window_lo, bit);
    } else if (bit && buffer_.get(idx - window_lo)) {
      found_ = true;
    }
  }
}

machine::SpaceReport ClassicalBlockRecognizer::space_used() const {
  return {.classical_bits = frame_bits() + buffer_.size(), .qubits = 0};
}

std::vector<std::uint8_t> ClassicalBlockRecognizer::snapshot() const {
  util::serde::ByteWriter w;
  machine::snapshot_header(w, kTagBlock);
  frame_to(w);
  put_bitvec(w, buffer_);
  return w.take();
}

void ClassicalBlockRecognizer::restore(std::span<const std::uint8_t> bytes) {
  util::serde::ByteReader r(bytes);
  machine::check_snapshot_header(r, kTagBlock, "classical-block");
  frame_from(r);
  buffer_ = get_bitvec(r);
  r.expect_exhausted();
  check_size(buffer_.size(), std::uint64_t{1} << a1_.k().value_or(0),
             "classical-block");
}

// ---------------------------------------------------------------------------
// ClassicalFullRecognizer
// ---------------------------------------------------------------------------

ClassicalFullRecognizer::ClassicalFullRecognizer(std::uint64_t seed) {
  reset(seed);
}

void ClassicalFullRecognizer::reset(std::uint64_t seed) {
  util::Rng rng(seed);
  reset_frame(rng);
  x_ = util::BitVec();
}

void ClassicalFullRecognizer::prefix(unsigned k) {
  if (k <= kFullMaxK) x_ = util::BitVec(a1_.block_length());
}

void ClassicalFullRecognizer::run(std::uint64_t rep, unsigned block,
                                  std::uint64_t offset,
                                  std::span<const Symbol> bits) {
  // Only repetition 0 reads or writes x; later repetitions cost nothing
  // (A2 carries the consistency burden there).
  if (x_.size() == 0 || rep != 0 || block == 2) return;
  for (std::uint64_t i = 0; i < bits.size(); ++i) {
    const bool bit = bits[i] == Symbol::kOne;
    if (block == 0) {
      x_.set(offset + i, bit);
    } else if (bit && x_.get(offset + i)) {
      found_ = true;
    }
  }
}

machine::SpaceReport ClassicalFullRecognizer::space_used() const {
  return {.classical_bits = frame_bits() + x_.size(), .qubits = 0};
}

std::vector<std::uint8_t> ClassicalFullRecognizer::snapshot() const {
  util::serde::ByteWriter w;
  machine::snapshot_header(w, kTagFull);
  frame_to(w);
  put_bitvec(w, x_);
  return w.take();
}

void ClassicalFullRecognizer::restore(std::span<const std::uint8_t> bytes) {
  util::serde::ByteReader r(bytes);
  machine::check_snapshot_header(r, kTagFull, "classical-full");
  frame_from(r);
  x_ = get_bitvec(r);
  r.expect_exhausted();
  check_size(x_.size(), a1_.block_length(), "classical-full");
}

// ---------------------------------------------------------------------------
// ClassicalSamplingRecognizer
// ---------------------------------------------------------------------------

ClassicalSamplingRecognizer::ClassicalSamplingRecognizer(std::uint64_t seed,
                                                         std::uint64_t budget)
    : rng_(seed), budget_(budget) {
  reset(seed);
}

void ClassicalSamplingRecognizer::reset(std::uint64_t seed) {
  rng_ = util::Rng(seed);
  reset_frame(rng_);
  indices_.clear();
  xbits_.clear();
  next_sample_ = 0;
}

void ClassicalSamplingRecognizer::draw_indices() {
  const std::uint64_t m = a1_.block_length();
  indices_.clear();
  for (std::uint64_t i = 0; i < budget_; ++i) indices_.push_back(rng_.below(m));
  std::sort(indices_.begin(), indices_.end());
  indices_.erase(std::unique(indices_.begin(), indices_.end()), indices_.end());
  xbits_.assign(indices_.size(), false);
  next_sample_ = 0;
}

void ClassicalSamplingRecognizer::prefix(unsigned k) {
  if (k <= kBodyMaxK) draw_indices();
}

void ClassicalSamplingRecognizer::block_end(std::uint64_t, unsigned block) {
  if (block != 2) {
    next_sample_ = 0;
  } else if (*a1_.k() <= kBodyMaxK) {
    draw_indices();  // fresh sample each repetition
  }
}

void ClassicalSamplingRecognizer::run(std::uint64_t, unsigned block,
                                      std::uint64_t offset,
                                      std::span<const Symbol> bits) {
  // The sorted sample turns a run into a cursor sweep: only sampled indices
  // inside [offset, end) are visited.
  if (block == 2) return;
  const std::uint64_t end = offset + bits.size();
  const std::size_t n = indices_.size();
  while (next_sample_ < n && indices_[next_sample_] < offset) ++next_sample_;
  for (; next_sample_ < n && indices_[next_sample_] < end; ++next_sample_) {
    const bool bit = bits[indices_[next_sample_] - offset] == Symbol::kOne;
    if (block == 0) {
      xbits_[next_sample_] = bit;
    } else if (bit && xbits_[next_sample_]) {
      found_ = true;
    }
  }
}

machine::SpaceReport ClassicalSamplingRecognizer::space_used() const {
  // Each sampled index costs 2k bits plus 1 remembered bit of x.
  const std::uint64_t per_sample = 2ULL * a1_.k().value_or(0) + 1;
  return {.classical_bits = frame_bits() + budget_ * per_sample, .qubits = 0};
}

std::vector<std::uint8_t> ClassicalSamplingRecognizer::snapshot() const {
  util::serde::ByteWriter w;
  machine::snapshot_header(w, kTagSampling);
  for (const std::uint64_t s : rng_.state()) w.u64(s);
  w.u64(budget_);
  frame_to(w);
  w.u64_vec(indices_);
  w.u64(xbits_.size());
  for (const bool bit : xbits_) w.b(bit);
  w.u64(next_sample_);
  return w.take();
}

void ClassicalSamplingRecognizer::restore(std::span<const std::uint8_t> bytes) {
  util::serde::ByteReader r(bytes);
  machine::check_snapshot_header(r, kTagSampling, "classical-sample");
  std::array<std::uint64_t, 4> state;
  for (auto& s : state) s = r.u64();
  rng_.set_state(state);
  // budget is construction-time configuration; a snapshot from a
  // differently-budgeted recognizer is a caller error, not a state to adopt.
  if (r.u64() != budget_) {
    throw util::serde::DecodeError("classical-sample: budget mismatch");
  }
  frame_from(r);
  indices_ = r.u64_vec();
  const std::uint64_t nbits = r.u64();
  if (nbits != indices_.size()) {
    throw util::serde::DecodeError("classical-sample: sample size mismatch");
  }
  xbits_.assign(static_cast<std::size_t>(nbits), false);
  for (std::size_t i = 0; i < xbits_.size(); ++i) xbits_[i] = r.b();
  next_sample_ = r.u64();
  if (next_sample_ > indices_.size()) {
    throw util::serde::DecodeError("classical-sample: cursor out of range");
  }
  r.expect_exhausted();
}

// ---------------------------------------------------------------------------
// ClassicalBloomRecognizer
// ---------------------------------------------------------------------------

ClassicalBloomRecognizer::ClassicalBloomRecognizer(std::uint64_t seed,
                                                   std::uint64_t filter_bits,
                                                   unsigned num_hashes)
    : filter_bits_(filter_bits), num_hashes_(num_hashes) {
  // A 0-bit filter has no well-defined hash range (hash() reduces modulo
  // filter_bits_); reject it here instead of dividing by zero mid-stream.
  if (filter_bits_ == 0) {
    throw std::invalid_argument(
        "ClassicalBloomRecognizer: filter_bits must be >= 1");
  }
  reset(seed);
}

void ClassicalBloomRecognizer::reset(std::uint64_t seed) {
  seed_ = seed;
  util::Rng rng(seed);
  reset_frame(rng);
  filter_ = util::BitVec();
}

std::uint64_t ClassicalBloomRecognizer::hash(std::uint64_t index,
                                             unsigned which) const noexcept {
  // Independent hash functions derived from the run seed via SplitMix64.
  util::SplitMix64 h(seed_ ^ (index * 0x9e3779b97f4a7c15ULL) ^
                     (std::uint64_t{which} << 32));
  return h.next() % filter_bits_;
}

void ClassicalBloomRecognizer::prefix(unsigned k) {
  if (k <= kBodyMaxK) filter_ = util::BitVec(filter_bits_);
}

void ClassicalBloomRecognizer::run(std::uint64_t rep, unsigned block,
                                   std::uint64_t offset,
                                   std::span<const Symbol> bits) {
  // The filter is built (block 0) and probed (block 1) in repetition 0
  // only, and only one-bits hash — later repetitions cost nothing.
  if (filter_.size() == 0 || rep != 0 || block == 2) return;
  for (std::uint64_t i = 0; i < bits.size(); ++i) {
    if (bits[i] != Symbol::kOne) continue;
    const std::uint64_t idx = offset + i;
    if (block == 0) {
      for (unsigned h = 0; h < num_hashes_; ++h) filter_.set(hash(idx, h), true);
      continue;
    }
    bool all = true;
    for (unsigned h = 0; h < num_hashes_ && all; ++h) {
      all = filter_.get(hash(idx, h));
    }
    if (all) found_ = true;
  }
}

machine::SpaceReport ClassicalBloomRecognizer::space_used() const {
  return {.classical_bits = frame_bits() + filter_.size(), .qubits = 0};
}

std::vector<std::uint8_t> ClassicalBloomRecognizer::snapshot() const {
  util::serde::ByteWriter w;
  machine::snapshot_header(w, kTagBloom);
  w.u64(seed_);
  w.u64(filter_bits_);
  w.u32(num_hashes_);
  frame_to(w);
  put_bitvec(w, filter_);
  return w.take();
}

void ClassicalBloomRecognizer::restore(std::span<const std::uint8_t> bytes) {
  util::serde::ByteReader r(bytes);
  machine::check_snapshot_header(r, kTagBloom, "classical-bloom");
  // seed_ travels with the snapshot (the filter's contents hash under it);
  // the filter geometry is construction-time configuration and must match.
  const std::uint64_t seed = r.u64();
  if (r.u64() != filter_bits_ || r.u32() != num_hashes_) {
    throw util::serde::DecodeError("classical-bloom: filter geometry mismatch");
  }
  seed_ = seed;
  frame_from(r);
  filter_ = get_bitvec(r);
  r.expect_exhausted();
  check_size(filter_.size(), filter_bits_, "classical-bloom");
}

}  // namespace qols::core
