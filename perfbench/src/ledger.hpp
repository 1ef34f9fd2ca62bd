#pragma once
// The per-layer ledger: one replay of a workload's frames through four
// nested stacks, each adding one layer of the serving path.
//
//   L1  the recognizer's feed_chunk / finish, called directly
//   L2  L1 behind RecognizerService (open_at / feed / finish)
//   L3  L2 behind wire encode and SessionBroker::ingest / pump, in memory
//   L4  the full qols_server over loopback
//
// Each stack runs the same sessions, in the same interleaved order, as fast
// as it can; its cost is the CPU time of every thread it used, per session,
// in a pass with no spans. A second pass records spans.
// The difference between adjacent stacks is the added layer's cost. Every
// stack must reach the same verdict for every session.

#include <cstdint>
#include <string>
#include <vector>

#include "server_process.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace perfbench {

struct LedgerResult {
  /// CPU seconds per session of L1..L4, with no spans recorded.
  double cpu_per_session[4] = {};
  /// CPU of the four stacks with spans over their CPU without, minus one.
  double trace_overhead_share = 0;
  bool verdicts_equal = true;
  std::size_t sessions = 0;
  std::size_t client_frames = 0;  ///< OPEN/RESUME/FEED/FINISH frames sent
  std::uint64_t symbols = 0;
  double encode_ns_per_frame = 0;
  double decode_ns_per_frame = 0;
  double finish_us_p50 = 0;
  Tail finish_us;
  // The A3 pass (quantum only; zero otherwise).
  double a3_share = 0;
  double gates_per_session = 0;
  double ns_per_gate = 0;
};

/// Replays `plan` through L1..L4. `work_dir` holds the durable stacks'
/// spill directories.
LedgerResult run_ledger(const Params& params, const Inputs& inputs,
                        const Plan& plan, const ServerSpec& server,
                        const std::string& work_dir, SpanLog& spans);

}  // namespace perfbench
