#pragma once
// The open-loop load generator: one thread, a few TCP connections, every
// frame sent when the plan says it is due, whatever the server is doing.
// Verdict latency runs from a session's FINISH due time to the VERDICT's
// arrival, so a stall is charged to every session due during it.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "qols/server/wire.hpp"
#include "server_process.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace perfbench {

/// Sessions without a correct verdict, by cause. A session counts once.
struct Failures {
  std::uint64_t mismatch = 0;     ///< verdict differs from the direct run
  std::uint64_t error_frame = 0;  ///< the server answered with ERROR
  std::uint64_t missing = 0;      ///< no verdict before the deadline
  std::uint64_t refused = 0;      ///< the connection was refused

  std::uint64_t total() const {
    return mismatch + error_frame + missing + refused;
  }
  Failures& operator+=(const Failures& o) {
    mismatch += o.mismatch;
    error_frame += o.error_frame;
    missing += o.missing;
    refused += o.refused;
    return *this;
  }
};

struct PhaseResult {
  std::vector<double> latency_ms;  ///< one per verdict
  std::vector<double> due_s;       ///< its FINISH due time, from phase start
  std::vector<double> lag_ms;      ///< emit time minus due time, per frame
  double wall_s = 0;
  /// Time the generator spent encoding, sending and receiving. A paced
  /// phase spins between frames, so its thread CPU time is its wall time.
  double gen_busy_s = 0;
  /// Backlog (sessions due but not yet decided) over the plan's steady
  /// window: its mean in the first and the last quarter of that window.
  bool backlog_grew = false;
  double backlog_early = 0;
  double backlog_late = 0;
  std::uint64_t peak_open = 0;     ///< sessions opened and not yet decided
  std::uint64_t peak_rss_kb = 0;
};

class LoadGen {
 public:
  /// Spreads the plan's sessions over kConnections connections.
  LoadGen(const Plan& plan, const Inputs& inputs);
  ~LoadGen();

  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Connects every connection and completes HELLO. On a refused
  /// connection, marks every session of the plan refused and returns false.
  bool connect(std::uint16_t port);

  /// Drives one phase of the plan. `paced` sends each frame at its due time,
  /// spinning in between so that neither a send nor a verdict's arrival
  /// waits for this thread to be woken; otherwise frames go out as fast as
  /// the sockets take them (the ledger replay). `server`, when given, is
  /// sampled for RSS. `spans`, when given, records a span around every
  /// frame encode.
  PhaseResult run_phase(unsigned phase, bool paced,
                        const ServerProcess* server, SpanLog* spans);

  /// One STATS (or METRICS) round trip on the first connection.
  std::string request_text(qols::server::wire::FrameType type);
  /// A STATS round trip on every connection: every frame sent before it has
  /// been handled by the server.
  void settle();
  /// Closes every connection.
  void close();

  const Failures& failures() const noexcept { return failures_; }
  /// The verdict each session received (default-constructed if none).
  const std::vector<qols::server::wire::WireVerdict>& verdicts() const {
    return verdicts_;
  }

 private:
  struct Conn;
  enum State : std::uint8_t { kPending, kDecided, kFailed };

  void emit(const Event& e, SpanLog* spans, std::uint32_t span_name);
  /// Reads and handles every frame available on `c`; false on EOF.
  bool receive(Conn& c, std::uint64_t now, std::uint64_t phase_start);
  void handle(const qols::server::wire::Frame& f, std::uint64_t now,
              std::uint64_t phase_start);
  void fail(std::uint32_t session, std::uint64_t Failures::*kind);
  /// Polls until `done()` or 30 s pass; throws on timeout.
  template <class Done>
  void wait_for(Done done);
  void send_all();

  const Plan& plan_;
  const Inputs& in_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<std::uint8_t> state_;
  std::vector<qols::server::wire::WireVerdict> verdicts_;
  Failures failures_;
  // Counters of the phase in progress.
  bool collect_latency_ = false;
  std::uint64_t decided_ = 0;
  std::uint64_t acks_ = 0;
  std::uint64_t hellos_ = 0;
  std::uint64_t texts_ = 0;
  std::string last_text_;
  PhaseResult* result_ = nullptr;
};

}  // namespace perfbench
