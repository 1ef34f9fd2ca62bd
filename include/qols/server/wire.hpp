#pragma once
// The qols wire protocol: compact, versioned, length-prefixed binary frames
// over a byte stream (TCP, or any in-process byte pipe — the fuzz harness
// drives the same decoder with no socket in sight).
//
// Frame layout (all integers little-endian, serde style):
//
//   u32 payload_length | u8 frame_type | payload_length bytes of payload
//
// payload_length counts the payload only (not the 5-byte header) and is
// bounded by kMaxFramePayload; a larger prefix is hostile by definition and
// the decoder throws util::serde::DecodeError before allocating anything.
// Payloads are encoded with ByteWriter/ByteReader: fixed little-endian
// widths, bounds-checked reads, DecodeError on truncated or trailing bytes.
//
// Conversation shape (client frames left, server frames right):
//
//   HELLO{version, kind_tag}      ->  HELLO_OK{version, spec...} | ERROR
//   OPEN{session, seed}           ->  OPEN_OK{session}           | ERROR
//   FEED{session, symbol bytes}   ->  (no response; errors only)
//   FINISH{session}               ->  VERDICT{session, ...}      | ERROR
//   RESUME{session}               ->  RESUME_OK{session}         | ERROR  (v2)
//   STATS{}                       ->  STATS_TEXT{json}
//   METRICS{}                     ->  METRICS_TEXT{prometheus}
//
// RESUME (protocol v2) re-attaches a connection to a session that survived a
// server restart (or a dropped connection on a durable server): the server
// looks the id up in its recovered RecognizerService table and, when it is
// present and unowned, adopts it onto this connection so FEED/FINISH
// continue exactly where the session left off. Refusals are recoverable:
// kNotResumable (owned by a live connection, or the server is not durable),
// kUnknownSession (the id is not in the table).
//
// FEED payloads carry raw symbol bytes (one byte per stream::Symbol, values
// 0/1/2) after the u64 session id, so a chunk's bytes pass from the receive
// buffer to RecognizerService as one borrowed span — no re-encoding.
//
// Error frames are typed: ERROR{code, session, message}. Codes split into
// recoverable (the connection lives: unknown session, session exists,
// over-limit, draining) and fatal (the server flushes the error frame and
// closes: bad version, spec mismatch, malformed frame, protocol error).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "qols/stream/symbol_stream.hpp"
#include "qols/util/serde.hpp"

namespace qols::server::wire {

/// Bumped on any incompatible frame or payload change. HELLO carries the
/// client's version; the server answers exactly this version in HELLO_OK
/// and refuses any other with kBadVersion.
inline constexpr std::uint32_t kProtocolVersion = 2;

/// Hard ceiling on a single frame's payload. A length prefix above this is
/// rejected before any allocation. Large feeds simply span several frames —
/// the protocol is framing-invariant by construction.
inline constexpr std::size_t kMaxFramePayload = std::size_t{1} << 20;

/// Frame header bytes: u32 length + u8 type.
inline constexpr std::size_t kFrameHeaderSize = 5;

/// HELLO kind_tag wildcard: client accepts whatever family the server runs.
inline constexpr std::uint8_t kAnyKind = 0xff;

enum class FrameType : std::uint8_t {
  // client -> server
  kHello = 0x01,
  kOpen = 0x02,
  kFeed = 0x03,
  kFinish = 0x04,
  kStats = 0x05,
  kMetrics = 0x06,
  kResume = 0x07,
  // server -> client
  kHelloOk = 0x81,
  kOpenOk = 0x82,
  kVerdict = 0x83,
  kStatsText = 0x84,
  kMetricsText = 0x85,
  kResumeOk = 0x87,
  kError = 0xee,
};

enum class ErrorCode : std::uint8_t {
  kBadVersion = 1,     ///< fatal: HELLO version != kProtocolVersion
  kSpecMismatch = 2,   ///< fatal: HELLO kind_tag names another family
  kMalformedFrame = 3, ///< fatal: undecodable payload / oversized length
  kProtocolError = 4,  ///< fatal: frame out of order or unknown type
  kUnknownSession = 5, ///< recoverable: id not open on this connection
  kSessionExists = 6,  ///< recoverable: OPEN of an id already in use
  kOverLimit = 7,      ///< recoverable: session limit reached
  kDraining = 8,       ///< recoverable: server draining, no new sessions
  kNotResumable = 9,   ///< recoverable: RESUME refused (owned / not durable)
};

/// True when the server closes the connection after flushing this error.
bool error_is_fatal(ErrorCode code) noexcept;

const char* frame_type_name(FrameType type) noexcept;
const char* error_code_name(ErrorCode code) noexcept;

// ---------------------------------------------------------------------------
// Typed payloads

struct Hello {
  std::uint32_t version = kProtocolVersion;
  /// Recognizer family the client expects: a service::RecognizerKind value,
  /// or kAnyKind to accept whatever the server serves.
  std::uint8_t kind_tag = kAnyKind;
};

struct HelloOk {
  std::uint32_t version = kProtocolVersion;
  std::uint8_t kind = 0;  ///< the server's service::RecognizerKind
  bool float_amplitudes = false;
  std::uint64_t max_sessions = 0;
};

struct Open {
  std::uint64_t session = 0;  ///< caller-chosen wire id (service open_at)
  std::uint64_t seed = 0;     ///< recognizer construction seed
};

struct OpenOk {
  std::uint64_t session = 0;
};

/// Decoded FEED view: symbols borrow the frame payload (valid as long as the
/// payload span is).
struct FeedView {
  std::uint64_t session = 0;
  std::span<const stream::Symbol> symbols;
};

struct Finish {
  std::uint64_t session = 0;
};

/// RESUME (v2): adopt a recovered/released session onto this connection.
struct Resume {
  std::uint64_t session = 0;
};

struct ResumeOk {
  std::uint64_t session = 0;
};

struct WireVerdict {
  std::uint64_t session = 0;
  bool accepted = false;
  bool fully_simulated = true;
  std::uint64_t classical_bits = 0;
  std::uint64_t qubits = 0;
};

struct Error {
  ErrorCode code = ErrorCode::kProtocolError;
  std::uint64_t session = 0;  ///< 0 when the error is not session-scoped
  std::string message;
};

// ---------------------------------------------------------------------------
// Encoding: append one whole frame (header + payload) to `out`.

void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  std::span<const std::uint8_t> payload);

void append_hello(std::vector<std::uint8_t>& out, const Hello& h);
void append_hello_ok(std::vector<std::uint8_t>& out, const HelloOk& h);
void append_open(std::vector<std::uint8_t>& out, const Open& o);
void append_open_ok(std::vector<std::uint8_t>& out, const OpenOk& o);
void append_feed(std::vector<std::uint8_t>& out, std::uint64_t session,
                 std::span<const stream::Symbol> symbols);
void append_finish(std::vector<std::uint8_t>& out, const Finish& f);
void append_resume(std::vector<std::uint8_t>& out, const Resume& r);
void append_resume_ok(std::vector<std::uint8_t>& out, const ResumeOk& r);
void append_verdict(std::vector<std::uint8_t>& out, const WireVerdict& v);
/// STATS_TEXT / METRICS_TEXT: the payload is the raw UTF-8 text.
void append_text(std::vector<std::uint8_t>& out, FrameType type,
                 std::string_view text);
void append_error(std::vector<std::uint8_t>& out, const Error& e);

// ---------------------------------------------------------------------------
// Decoding: payload -> typed struct. All throw util::serde::DecodeError on
// truncated, oversized, or trailing bytes — callers translate into a typed
// kMalformedFrame error, never UB.

Hello read_hello(std::span<const std::uint8_t> payload);
HelloOk read_hello_ok(std::span<const std::uint8_t> payload);
Open read_open(std::span<const std::uint8_t> payload);
OpenOk read_open_ok(std::span<const std::uint8_t> payload);
/// Validates every symbol byte (<= kSep) and returns a borrowed view.
FeedView read_feed(std::span<const std::uint8_t> payload);
Finish read_finish(std::span<const std::uint8_t> payload);
Resume read_resume(std::span<const std::uint8_t> payload);
ResumeOk read_resume_ok(std::span<const std::uint8_t> payload);
WireVerdict read_verdict(std::span<const std::uint8_t> payload);
std::string read_text(std::span<const std::uint8_t> payload);
Error read_error(std::span<const std::uint8_t> payload);

// ---------------------------------------------------------------------------
// Incremental decoder

/// A complete frame lent out of the decoder's buffer. The payload span is
/// valid until the next append() (which may compact the buffer).
struct Frame {
  FrameType type = FrameType::kHello;
  std::span<const std::uint8_t> payload;
};

/// Reassembles frames from arbitrarily ragged byte arrivals. Hostile-input
/// safe: the length prefix is checked against kMaxFramePayload before any
/// buffering decision, partial frames wait for more bytes, and nothing is
/// ever read past the buffered region.
class FrameDecoder {
 public:
  /// Buffers `bytes`. Invalidates spans returned by earlier next() calls.
  void append(std::span<const std::uint8_t> bytes);

  /// Returns the next complete frame, or nullopt when more bytes are
  /// needed. Throws util::serde::DecodeError when the pending length prefix
  /// exceeds kMaxFramePayload (the connection is unrecoverable: framing is
  /// lost).
  std::optional<Frame> next();

  /// True when a complete frame is buffered and ready (an oversized length
  /// prefix also reports true so the caller reaches the throwing next()).
  bool frame_available() const noexcept;

  /// Bytes buffered but not yet consumed by next().
  std::size_t buffered_bytes() const noexcept { return buf_.size() - pos_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

}  // namespace qols::server::wire
