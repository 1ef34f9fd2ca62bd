#pragma once
// Procedure A1 (proof of Theorem 3.4) and the machine's one input head.
//
// A1 is a deterministic streaming check of shape condition (i) — the word is
// exactly
//
//   1^k # b_1 # b_2 # ... # b_{3*2^k} #      with each b_j in {0,1}^{2^{2k}}
//
// using O(k) = O(log n) bits of work memory: a prefix counter for k, a block
// counter up to 3*2^k (kept as a repetition index and a block id x/y/z), and
// an in-block position counter up to 2^{2k}. The validator never buffers
// input.
//
// Those counters are also the tape head every other procedure reads through.
// Le Gall's machine runs A1 || A2 || A3 over one input head; here A2, A3 and
// the classical recognizers' bodies never parse the word themselves. They
// consume the events this cursor emits while it checks the shape, through
// any Sink type with these three members (inline calls, no virtual
// dispatch):
//
//   on_prefix(k)                     '1^k#' was read, 1 <= k <= kMaxK
//   on_run(rep, block, offset, run)  data symbols `run` sit at offsets
//                                    [offset, offset + |run|) of block
//                                    `block` (0 = x, 1 = y, 2 = z) of
//                                    repetition `rep`
//   on_block_end(rep, block)         the '#' closing a block of exactly m bits
//
// Events stop at the first shape violation. A run never reaches past m: an
// overlong block is cut at m, exactly where per-symbol feeding fails. A
// chunk emits the same events as feeding its symbols one by one, except
// that a run may arrive in several consecutive pieces.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "qols/stream/symbol_stream.hpp"
#include "qols/util/serde.hpp"

namespace qols::lang {

class StructureValidator {
 public:
  /// The largest k this implementation supports: the counters are 64-bit,
  /// so the word length 2^{3k+2} must fit.
  static constexpr unsigned kMaxK = 20;

  /// A sink that ignores every event (A1 on its own).
  struct NoSink {
    void on_prefix(unsigned) {}
    void on_run(std::uint64_t, unsigned, std::uint64_t,
                std::span<const stream::Symbol>) {}
    void on_block_end(std::uint64_t, unsigned) {}
  };

  StructureValidator() = default;

  /// Consumes one symbol. Safe to call after failure (stays failed).
  void feed(stream::Symbol s) {
    NoSink none;
    feed(s, none);
  }
  template <typename Sink>
  void feed(stream::Symbol s, Sink& sink) {
    feed_chunk(std::span<const stream::Symbol>(&s, 1), sink);
  }

  /// Consumes a run of symbols; identical end state to feeding them one by
  /// one. Data bits between separators advance the position counter in one
  /// step and reach the sink as one run, so each chunk is scanned once.
  void feed_chunk(std::span<const stream::Symbol> chunk) {
    NoSink none;
    feed_chunk(chunk, none);
  }
  template <typename Sink>
  void feed_chunk(std::span<const stream::Symbol> chunk, Sink& sink);

  /// True iff the consumed word satisfies shape condition (i) exactly, read
  /// as the verdict once the input has ended.
  bool finish() const noexcept { return phase_ == Phase::kDone; }

  /// True once the word can no longer satisfy (i), regardless of what
  /// follows. (Callers may keep feeding; the flag is sticky.)
  bool failed() const noexcept { return phase_ == Phase::kFailed; }

  /// k, available once the prefix '1^k#' has been consumed.
  std::optional<unsigned> k() const noexcept {
    return m_ != 0 ? std::optional<unsigned>(k_) : std::nullopt;
  }

  /// m = 2^{2k}, the block length; 0 until the prefix has been consumed.
  std::uint64_t block_length() const noexcept { return m_; }

  /// Work-memory footprint in bits: prefix/k counter + block counter (k+2
  /// bits) + position counter (2k+1 bits) + 2 control-state bits. Grows with
  /// k; callable any time.
  std::uint64_t classical_bits_used() const noexcept {
    return classical_bits_for(std::max(k_, 1u));
  }
  /// The same accounting for a tape head at depth k.
  static std::uint64_t classical_bits_for(unsigned k) noexcept;

  /// Serializes the full mid-stream state (recognizer snapshot/restore).
  /// A restored validator is indistinguishable from the snapshotted one.
  void snapshot_to(util::serde::ByteWriter& w) const;
  void restore_from(util::serde::ByteReader& r);

 private:
  enum class Phase : std::uint8_t { kPrefix, kBlock, kFailed, kDone };

  Phase phase_ = Phase::kPrefix;
  unsigned k_ = 0;
  std::uint64_t m_ = 0;    // 2^{2k}, 0 until the prefix ends
  std::uint64_t rep_ = 0;  // 0-based repetition, up to 2^k
  unsigned block_ = 0;     // 0 = x, 1 = y, 2 = z
  std::uint64_t pos_ = 0;  // offset within the current block

  void fail() noexcept { phase_ = Phase::kFailed; }

  template <typename Sink>
  void on_prefix_symbol(stream::Symbol s, Sink& sink);
  template <typename Sink>
  void on_separator(Sink& sink);
};

template <typename Sink>
void StructureValidator::feed_chunk(std::span<const stream::Symbol> chunk,
                                    Sink& sink) {
  const stream::Symbol* const data = chunk.data();
  const std::size_t n = chunk.size();
  std::size_t i = 0;
  while (i < n) {
    switch (phase_) {
      case Phase::kPrefix:
        on_prefix_symbol(data[i++], sink);
        continue;
      case Phase::kBlock:
        break;
      case Phase::kDone:
        fail();  // any symbol after the final '#' breaks the exact shape
        return;
      case Phase::kFailed:
        return;  // sticky; the rest is ignored
    }
    if (data[i] == stream::Symbol::kSep) {
      on_separator(sink);
      ++i;
      continue;
    }
    const std::size_t j = stream::find_sep(data, i + 1, n);
    const std::size_t len =
        static_cast<std::size_t>(std::min<std::uint64_t>(j - i, m_ - pos_));
    if (len > 0) {
      sink.on_run(rep_, block_, pos_, chunk.subspan(i, len));
      pos_ += len;
    }
    if (len < j - i) {
      fail();  // overlong block: the first bit beyond m
      return;
    }
    i = j;
  }
}

template <typename Sink>
void StructureValidator::on_prefix_symbol(stream::Symbol s, Sink& sink) {
  if (s == stream::Symbol::kOne) {
    if (k_ >= kMaxK) {
      fail();
    } else {
      ++k_;
    }
    return;
  }
  if (s != stream::Symbol::kSep || k_ < 1) {
    fail();  // '0' in the prefix, or k = 0
    return;
  }
  m_ = std::uint64_t{1} << (2 * k_);
  phase_ = Phase::kBlock;
  sink.on_prefix(k_);
}

template <typename Sink>
void StructureValidator::on_separator(Sink& sink) {
  if (pos_ != m_) {
    fail();  // short block
    return;
  }
  sink.on_block_end(rep_, block_);
  pos_ = 0;
  if (block_ < 2) {
    ++block_;
    return;
  }
  block_ = 0;
  if (++rep_ == (std::uint64_t{1} << k_)) phase_ = Phase::kDone;
}

}  // namespace qols::lang
