#pragma once
// Workload parameters, the seeded open-loop session plan, and the memoised
// direct-run verdicts every wire verdict is checked against.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "qols/server/load_client.hpp"
#include "qols/server/wire.hpp"
#include "qols/service/recognizer_service.hpp"

namespace perfbench {

/// Connections the generator (and the L3 stack) spreads sessions over.
constexpr unsigned kConnections = 4;
/// Recognizer seeds cycle through a pool of this many per run.
constexpr unsigned kDistinctSeeds = 64;
/// A step misses when its verdict tail exceeds this.
constexpr double kTailLimitMs = 250;
/// Idle launch/stop/relaunch cycles of an untraced run (setup_s, and the
/// wire workloads' drain_s and recover_s).
constexpr unsigned kSetupCycles = 99;
/// A timed step's arrival window is at least this many session lifetimes,
/// so that most of it runs at full concurrency.
constexpr double kMinWindowLifetimes = 3;
/// Each ladder rung admits sessions for this share of --seconds; they live
/// kRungLifetimeS, short enough for rungs of 3.2 lifetimes at 30 s and long
/// enough to keep 10^4 wire-classical sessions open at its first rung.
constexpr double kRungShare = 0.08;
constexpr double kRungLifetimeS = 0.75;
/// durable-restart: sessions in each persist/restart cycle.
constexpr std::uint64_t kCycleSessions = 10000;
/// Traced quantum runs: sessions in the A3 share pass.
constexpr std::size_t kA3Sessions = 200;

/// One workload's settings, as run.py reads them from workloads.json. A
/// durable workload sets no windows and no ladder.
struct Params {
  std::string kind;              ///< qols_server --kind
  unsigned k = 0;
  std::size_t chunk_min = 0;     ///< FEED symbols per frame, drawn uniformly
  std::size_t chunk_max = 0;
  double lifetime_s = 0;         ///< OPEN to FINISH due time, low and high
  double rate_low = 0;           ///< sessions/s
  double rate_high = 0;
  /// Arrival windows of the low and high steps, as shares of --seconds.
  double low_share = 0;
  double high_share = 0;
  /// Rates above rate_high, ascending (see kRungShare).
  std::vector<double> ladder;
  /// durable-restart: the low and high steps are persist/restart cycles of
  /// kCycleSessions sessions each instead of timed windows, and there is no
  /// ladder.
  bool durable = false;
  std::size_t replay_sessions = 0;  ///< sessions in the traced ledger

  /// Applies one "key=value" override; false on an unknown key.
  bool set(const std::string& key, const std::string& value);
  /// Throws std::invalid_argument when a setting is missing or a timed
  /// window is shorter than kMinWindowLifetimes lifetimes at `seconds`.
  void check(double seconds) const;
  qols::service::RecognizerSpec spec() const;
};

/// The expected verdict of one (word, recognizer seed) pair.
struct Expected {
  bool accepted = false;
  bool fully_simulated = true;
  std::uint64_t classical_bits = 0;
  std::uint64_t qubits = 0;

  bool matches(const qols::server::wire::WireVerdict& v) const noexcept {
    return v.accepted == accepted && v.fully_simulated == fully_simulated &&
           v.classical_bits == classical_bits && v.qubits == qubits;
  }
  bool operator==(const Expected&) const = default;
};

/// Everything derived from --seed: the two words, the recognizer seed pool,
/// and a direct RecognizerService verdict for every (word, seed) pair.
struct Inputs {
  Inputs(const Params& params, std::uint64_t seed);

  const std::vector<qols::stream::Symbol>& word(unsigned parity) const {
    return parity == 0 ? words.member : words.crossing;
  }

  qols::server::LoadWords words;
  std::vector<std::uint64_t> seed_pool;
  /// CPU seconds of the direct runs, per session: a probe of how fast the
  /// host ran this process.
  double reference_cpu_s = 0;
  /// expected[parity][pool index]
  std::vector<Expected> expected[2];
};

enum class Action : std::uint8_t { kOpen, kResume, kFeed, kFinish };

struct Event {
  std::uint64_t due_ns = 0;  ///< from the start of the phase
  std::uint32_t session = 0;
  std::uint16_t chunk = 0;   ///< FEED: index into the session's chunks
  Action action = Action::kOpen;
};

struct SessionSpec {
  std::uint8_t parity = 0;       ///< 0 member word, 1 crossing word
  std::uint32_t pool = 0;        ///< index into Inputs::seed_pool
  std::uint32_t first_cut = 0;   ///< into Plan::cuts
  std::uint16_t chunks = 0;
  std::uint16_t split = 0;       ///< chunks fed before a restart
  std::uint64_t finish_due_ns = 0;  ///< in its phase; 0 = never finished
};

/// A seeded open-loop schedule. Sessions arrive as a Poisson process; each
/// session's FEED frames are spread evenly over its lifetime and its FINISH
/// is due when the lifetime ends. A restart plan has two phases: OPEN and
/// the first half of each word, then RESUME, the rest, and FINISH, each
/// phase over half the lifetime.
struct Plan {
  std::vector<SessionSpec> sessions;
  std::vector<std::uint32_t> cuts;   ///< chunk end offsets, flat
  std::vector<Event> phases[2];      ///< each sorted by due time
  std::uint64_t id_base = 1;         ///< wire id of session 0
  double rate = 0;
  double window_s = 0;               ///< arrival window
  /// FINISH due times (in the last phase) during which sessions arrive,
  /// feed and finish at the full rate: from one lifetime in to the end of
  /// the arrival window. Latency and backlog are judged on these only.
  std::uint64_t steady_begin_ns = 0;
  std::uint64_t steady_end_ns = 0;

  std::uint64_t wire_id(std::uint32_t s) const { return id_base + s; }
  std::size_t chunk_begin(const SessionSpec& s, unsigned j) const {
    return j == 0 ? 0 : cuts[s.first_cut + j - 1];
  }
  std::size_t chunk_end(const SessionSpec& s, unsigned j) const {
    return cuts[s.first_cut + j];
  }
  /// The symbols of chunk `j` of `session`.
  std::span<const qols::stream::Symbol> chunk(const Inputs& in,
                                             std::uint32_t session,
                                             unsigned j) const;
  std::uint64_t symbols(const Inputs& in) const;
};

/// Appends the frame `e` stands for to `out`.
void append_event(std::vector<std::uint8_t>& out, const Plan& plan,
                  const Inputs& in, const Event& e);

/// Sessions living `lifetime_s` arrive at `rate` for `window_s` seconds,
/// or, when `count` is nonzero, until `count` sessions have arrived.
/// `restart` builds the two-phase plan.
Plan make_plan(const Params& p, const Inputs& in, double rate, double window_s,
               double lifetime_s, std::uint64_t count, bool restart,
               std::uint64_t seed);

// ---------------------------------------------------------------------------
// Small statistics helpers shared by the measurement code.

double median(std::vector<double> v);
/// Nearest-rank quantile of a sorted sample, q in [0, 1].
double quantile_sorted(const std::vector<double>& sorted, double q);

/// "Tail": the highest of a fixed set of percentiles (99.99, 99.98, ...,
/// 50) that leaves at least ten samples beyond it.
struct Tail {
  double percentile = 50;
  double value = 0;
  std::size_t samples = 0;
};
Tail tail_of(std::vector<double> v);

}  // namespace perfbench
