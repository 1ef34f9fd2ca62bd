#include "qols/fingerprint/equality_checker.hpp"

#include <algorithm>
#include <array>
#include <bit>

namespace qols::fingerprint {

using stream::Symbol;

void EqualityChecker::on_prefix(unsigned k) {
  k = std::min(k, 15u);  // beyond 15 the prime interval leaves 64 bits
  const unsigned q = field_exponent_ < 2 ? 2 : field_exponent_;
  if (q * k > 60) return;  // no field fits: stay inert
  std::uint64_t p;
  if (q == 4) {
    p = util::fingerprint_prime(k);
  } else {
    const std::uint64_t lo = std::uint64_t{1} << (q * k);
    p = util::first_prime_in_open_interval(lo, lo << 1).value();
  }
  current_.emplace(p, rng_.below(p));
}

void EqualityChecker::on_run(std::uint64_t, unsigned, std::uint64_t,
                             std::span<const Symbol> run) {
  if (!current_ || failed_) return;
  // Symbol's underlying values are kZero = 0 and kOne = 1, so the run
  // doubles as the bit array of the batched pass.
  current_->feed_counted_bulk(
      reinterpret_cast<const std::uint8_t*>(run.data()), run.size());
}

void EqualityChecker::on_block_end(std::uint64_t, unsigned block) {
  if (!current_ || failed_) return;
  const std::uint64_t fp = current_->value();
  switch (block) {
    case 0:  // an x-block
      // Condition (ii) across repetitions: x(i) = x(i+1).
      if (prev_x_ && fp != *prev_x_) failed_ = true;
      cur_x_ = fp;
      break;
    case 1:  // a y-block
      // Condition (iii): y(i) = y(i+1).
      if (prev_y_ && fp != *prev_y_) failed_ = true;
      cur_y_ = fp;
      break;
    case 2:  // a z-block
      // Condition (ii) within the repetition: z(i) = x(i).
      if (!cur_x_ || fp != *cur_x_) failed_ = true;
      prev_x_ = cur_x_;
      prev_y_ = cur_y_;
      break;
  }
  current_->reset();
}

namespace {

void put_opt_u64(util::serde::ByteWriter& w,
                 const std::optional<std::uint64_t>& v) {
  w.b(v.has_value());
  w.u64(v.value_or(0));
}

std::optional<std::uint64_t> get_opt_u64(util::serde::ByteReader& r) {
  const bool has = r.b();
  const std::uint64_t v = r.u64();
  return has ? std::optional<std::uint64_t>(v) : std::nullopt;
}

}  // namespace

void EqualityChecker::snapshot_to(util::serde::ByteWriter& w) const {
  for (const std::uint64_t s : rng_.state()) w.u64(s);
  w.u32(field_exponent_);
  w.b(failed_);
  w.b(current_.has_value());
  if (current_) current_->snapshot_to(w);
  put_opt_u64(w, cur_x_);
  put_opt_u64(w, cur_y_);
  put_opt_u64(w, prev_x_);
  put_opt_u64(w, prev_y_);
}

void EqualityChecker::restore_from(util::serde::ByteReader& r) {
  std::array<std::uint64_t, 4> state;
  for (auto& s : state) s = r.u64();
  rng_.set_state(state);
  field_exponent_ = r.u32();
  failed_ = r.b();
  if (r.b()) {
    current_ = PolyFingerprint::restored_from(r);
  } else {
    current_.reset();
  }
  cur_x_ = get_opt_u64(r);
  cur_y_ = get_opt_u64(r);
  prev_x_ = get_opt_u64(r);
  prev_y_ = get_opt_u64(r);
}

std::uint64_t EqualityChecker::classical_bits_used() const noexcept {
  if (!current_) return 0;
  // p lies in (2^{qk}, 2^{qk+1}), so it has qk + 1 bits.
  const std::uint64_t field_bits = std::bit_width(current_->modulus());
  // p, t, t^i, accumulator, cur_x, cur_y, prev_x, prev_y, plus flags.
  return 8 * field_bits + 8;
}

}  // namespace qols::fingerprint
