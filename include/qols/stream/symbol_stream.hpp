#pragma once
// One-way input streams over the paper's ternary alphabet {0, 1, #}.
//
// The whole point of online space complexity is that the input is read once,
// left to right, and is too large to store. SymbolStream models exactly the
// one-way input tape: a recognizer may only call next() and can never seek.
// Generator-backed implementations below produce the language's inputs
// lazily so experiments can stream inputs of hundreds of megabits while the
// process allocates only the recognizer's work memory.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>

namespace qols::stream {

/// The paper's tape alphabet Sigma = {0, 1, #}.
enum class Symbol : std::uint8_t { kZero = 0, kOne = 1, kSep = 2 };

/// char <-> Symbol conversions ('0','1','#'); returns nullopt on anything else.
std::optional<Symbol> symbol_from_char(char c) noexcept;
char symbol_to_char(Symbol s) noexcept;

/// Index of the first kSep in data[begin, end), or `end` when there is none.
/// The run-splitter of the one tape head (lang::StructureValidator): Symbol's
/// byte values make this a memchr, so finding block boundaries costs a
/// vectorized scan instead of a branch per symbol.
inline std::size_t find_sep(const Symbol* data, std::size_t begin,
                            std::size_t end) noexcept {
  if (begin >= end) return end;
  const void* hit = std::memchr(data + begin, static_cast<int>(Symbol::kSep),
                                end - begin);
  return hit != nullptr
             ? static_cast<std::size_t>(static_cast<const Symbol*>(hit) - data)
             : end;
}

/// Abstract one-way input tape.
class SymbolStream {
 public:
  virtual ~SymbolStream() = default;
  /// Next symbol, or nullopt at end of input. Never rewinds.
  virtual std::optional<Symbol> next() = 0;
  /// Fills `out` with the next symbols and returns how many were written.
  /// Contract: a return of 0 with a non-empty `out` means end of input —
  /// implementations may return short counts mid-stream but must never
  /// return 0 transiently. Interleaves freely with next(): both advance the
  /// same cursor. The default loops next(); real streams override this with
  /// bulk production so the per-symbol virtual call vanishes from the
  /// ingestion hot path.
  virtual std::size_t next_chunk(std::span<Symbol> out) {
    std::size_t filled = 0;
    while (filled < out.size()) {
      auto s = next();
      if (!s) break;
      out[filled++] = *s;
    }
    return filled;
  }
  /// Zero-copy fast path: lends a read-only view of up to `max` symbols
  /// backed by the stream's own storage, advancing the same cursor as
  /// next()/next_chunk(). Three-way contract:
  ///   - nullopt: this stream cannot lend views (the default); callers fall
  ///     back to next_chunk() and need not ask again;
  ///   - engaged empty span: end of input;
  ///   - engaged non-empty span: borrowed symbols, valid only until the next
  ///     call on this stream.
  /// Only storage-backed streams (MappedFileStream) override this; wrappers
  /// deliberately do not, so failure injection always goes through the
  /// copying path it transforms.
  virtual std::optional<std::span<const Symbol>> view_chunk(std::size_t max) {
    (void)max;
    return std::nullopt;
  }
  /// Total length if known in advance (for reporting only; recognizers must
  /// not rely on it — the paper's machines never know |w| a priori).
  virtual std::optional<std::uint64_t> length_hint() const { return std::nullopt; }
};

/// Stream over an in-memory string of '0'/'1'/'#'. Throws std::invalid_argument
/// at construction if the string contains other characters.
class StringStream final : public SymbolStream {
 public:
  explicit StringStream(std::string text);
  std::optional<Symbol> next() override;
  /// Bulk path: one tight char->Symbol conversion loop (characters were
  /// validated at construction).
  std::size_t next_chunk(std::span<Symbol> out) override;
  std::optional<std::uint64_t> length_hint() const override {
    return text_.size();
  }

 private:
  std::string text_;
  std::size_t pos_ = 0;
};

/// Stream produced by a callable (index -> optional<Symbol>); the callable is
/// consulted with consecutive indices 0,1,2,... until it returns nullopt.
class GeneratorStream final : public SymbolStream {
 public:
  using Fn = std::function<std::optional<Symbol>(std::uint64_t)>;
  explicit GeneratorStream(Fn fn, std::optional<std::uint64_t> length = {})
      : fn_(std::move(fn)), length_(length) {}
  std::optional<Symbol> next() override {
    auto s = fn_(pos_);
    if (s) ++pos_;
    return s;
  }
  /// Bulk path: consults the callable back to back without the per-symbol
  /// virtual dispatch of the default implementation.
  std::size_t next_chunk(std::span<Symbol> out) override {
    std::size_t filled = 0;
    while (filled < out.size()) {
      auto s = fn_(pos_);
      if (!s) break;
      ++pos_;
      out[filled++] = *s;
    }
    return filled;
  }
  std::optional<std::uint64_t> length_hint() const override { return length_; }

 private:
  Fn fn_;
  std::uint64_t pos_ = 0;
  std::optional<std::uint64_t> length_;
};

/// Failure injection: cuts an underlying stream after `keep` symbols
/// (truncated inputs must be rejected by the structure validator).
class TruncatedStream final : public SymbolStream {
 public:
  TruncatedStream(std::unique_ptr<SymbolStream> inner, std::uint64_t keep)
      : inner_(std::move(inner)), keep_(keep), remaining_(keep) {}
  std::optional<Symbol> next() override {
    if (remaining_ == 0) return std::nullopt;
    --remaining_;
    return inner_->next();
  }
  /// Pass-through: clamps the request to the remaining budget, then lets the
  /// inner stream fill the chunk at its own line rate.
  std::size_t next_chunk(std::span<Symbol> out) override {
    const std::size_t want = remaining_ < out.size()
                                 ? static_cast<std::size_t>(remaining_)
                                 : out.size();
    if (want == 0) return 0;
    const std::size_t got = inner_->next_chunk(out.first(want));
    remaining_ -= got;
    return got;
  }
  /// min(keep, inner hint): truncation caps a known inner length; with no
  /// inner hint the true length is min(keep, unknown) — still unknown.
  std::optional<std::uint64_t> length_hint() const override {
    const auto inner = inner_->length_hint();
    if (!inner) return std::nullopt;
    return *inner < keep_ ? *inner : keep_;
  }

 private:
  std::unique_ptr<SymbolStream> inner_;
  std::uint64_t keep_;
  std::uint64_t remaining_;
};

/// Failure injection: replaces the symbol at absolute position `pos` with
/// `replacement` (models single-symbol corruption of a well-formed input).
class CorruptingStream final : public SymbolStream {
 public:
  CorruptingStream(std::unique_ptr<SymbolStream> inner, std::uint64_t pos,
                   Symbol replacement)
      : inner_(std::move(inner)), target_(pos), replacement_(replacement) {}
  std::optional<Symbol> next() override {
    auto s = inner_->next();
    if (s && cursor_++ == target_) s = replacement_;
    return s;
  }
  /// Pass-through: bulk-reads the inner stream and patches the one target
  /// position if it falls inside this chunk.
  std::size_t next_chunk(std::span<Symbol> out) override {
    const std::size_t got = inner_->next_chunk(out);
    if (target_ >= cursor_ && target_ - cursor_ < got) {
      out[static_cast<std::size_t>(target_ - cursor_)] = replacement_;
    }
    cursor_ += got;
    return got;
  }
  /// Corruption replaces one symbol in place; the length is the inner one.
  std::optional<std::uint64_t> length_hint() const override {
    return inner_->length_hint();
  }

 private:
  std::unique_ptr<SymbolStream> inner_;
  std::uint64_t cursor_ = 0;
  std::uint64_t target_;
  Symbol replacement_;
};

/// Appends extra symbols after an underlying stream ends (trailing-garbage
/// failure injection).
class AppendingStream final : public SymbolStream {
 public:
  AppendingStream(std::unique_ptr<SymbolStream> inner, std::string suffix);
  std::optional<Symbol> next() override;
  /// Pass-through: drains the inner stream in bulk, then serves the suffix.
  std::size_t next_chunk(std::span<Symbol> out) override;
  /// inner hint + |suffix| when the inner length is known.
  std::optional<std::uint64_t> length_hint() const override {
    const auto inner = inner_->length_hint();
    if (!inner) return std::nullopt;
    return *inner + suffix_.size();
  }

 private:
  std::unique_ptr<SymbolStream> inner_;
  std::string suffix_;
  std::size_t suffix_pos_ = 0;
  bool inner_done_ = false;
};

/// Drains a stream into a std::string (tests/small inputs only).
std::string materialize(SymbolStream& stream);

}  // namespace qols::stream
