#include "qols/lang/structure_validator.hpp"

#include <bit>

namespace qols::lang {

void StructureValidator::snapshot_to(util::serde::ByteWriter& w) const {
  w.u8(static_cast<std::uint8_t>(phase_));
  w.u32(k_);
  w.u64(m_);
  w.u64(rep_);
  w.u32(block_);
  w.u64(pos_);
}

void StructureValidator::restore_from(util::serde::ByteReader& r) {
  const std::uint8_t phase = r.u8();
  k_ = r.u32();
  m_ = r.u64();
  rep_ = r.u64();
  block_ = r.u32();
  pos_ = r.u64();
  // Every later event is computed from these fields, so an inconsistent
  // combination is refused instead of steering the procedures off the word.
  phase_ = static_cast<Phase>(phase);
  bool ok = phase <= static_cast<std::uint8_t>(Phase::kDone) && k_ <= kMaxK &&
            block_ <= 2;
  if (m_ != 0) {  // past the prefix
    ok = ok && phase_ != Phase::kPrefix && k_ >= 1 &&
         m_ == std::uint64_t{1} << (2 * k_) &&
         rep_ <= (std::uint64_t{1} << k_) && pos_ <= m_;
  } else {
    ok = ok && (phase_ == Phase::kPrefix || phase_ == Phase::kFailed) &&
         rep_ == 0 && block_ == 0 && pos_ == 0;
  }
  if (!ok) throw util::serde::DecodeError("StructureValidator: bad state");
}

std::uint64_t StructureValidator::classical_bits_for(unsigned k) noexcept {
  // Conceptual OPTM work-tape footprint.
  const std::uint64_t k_counter = std::bit_width(std::uint64_t{k} + 1);
  const std::uint64_t block_counter = k + 2;    // counts to 3*2^k
  const std::uint64_t pos_counter = 2 * k + 1;  // counts to 2^{2k}
  return k_counter + block_counter + pos_counter + 2;  // +2 control state
}

}  // namespace qols::lang
