#include "qols/service/recognizer_service.hpp"

#include <algorithm>
#include <filesystem>
#include <map>
#include <ostream>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "qols/core/classical_recognizers.hpp"
#include "qols/core/quantum_recognizer.hpp"
#include "qols/telemetry/registry.hpp"
#include "qols/util/stopwatch.hpp"

namespace qols::service {

namespace {

std::uint64_t to_ns(double seconds) {
  return seconds > 0.0 ? static_cast<std::uint64_t>(seconds * 1e9) : 0;
}

}  // namespace

std::string recognizer_kind_name(RecognizerKind kind) {
  switch (kind) {
    case RecognizerKind::kClassicalBlock:
      return "classical-block";
    case RecognizerKind::kClassicalFull:
      return "classical-full";
    case RecognizerKind::kClassicalSampling:
      return "classical-sample";
    case RecognizerKind::kClassicalBloom:
      return "classical-bloom";
    case RecognizerKind::kQuantum:
      return "quantum";
  }
  // Unknown/future values (e.g. a static_cast from a corrupted config) must
  // surface as an error, not as UB-adjacent fallthrough text.
  throw std::invalid_argument("recognizer_kind_name: unknown RecognizerKind " +
                              std::to_string(static_cast<int>(kind)));
}

std::unique_ptr<machine::OnlineRecognizer> RecognizerSpec::make(
    std::uint64_t seed) const {
  switch (kind) {
    case RecognizerKind::kClassicalBlock:
      return std::make_unique<core::ClassicalBlockRecognizer>(seed);
    case RecognizerKind::kClassicalFull:
      return std::make_unique<core::ClassicalFullRecognizer>(seed);
    case RecognizerKind::kClassicalSampling:
      return std::make_unique<core::ClassicalSamplingRecognizer>(
          seed, sampling_budget);
    case RecognizerKind::kClassicalBloom:
      return std::make_unique<core::ClassicalBloomRecognizer>(
          seed, bloom_filter_bits, bloom_num_hashes);
    case RecognizerKind::kQuantum: {
      core::QuantumOnlineRecognizer::Options opts;
      opts.a3.backend = backend;
      opts.a3.precision = float_amplitudes ? quantum::Precision::kSingle
                                           : quantum::Precision::kDouble;
      return std::make_unique<core::QuantumOnlineRecognizer>(seed, opts);
    }
  }
  throw std::invalid_argument("RecognizerSpec: unknown RecognizerKind " +
                              std::to_string(static_cast<int>(kind)));
}

RecognizerService::RecognizerService(Config config)
    : config_(std::move(config)),
      pool_(config_.pool != nullptr ? config_.pool
                                    : &util::ThreadPool::global()),
      shards_(std::max<std::size_t>(pool_->thread_count(), 1)) {
  // Surface a bad backend id at service construction, not first open():
  // the spec is the service's contract with every future session.
  config_.spec.make(0);
  if (config_.durable) {
    if (config_.spill_dir.empty()) {
      throw std::invalid_argument(
          "RecognizerService: durable mode requires a spill_dir — the "
          "directory is the durable identity recover() reattaches to");
    }
    std::error_code ec;
    std::filesystem::create_directories(config_.spill_dir, ec);
    if (ec) {
      throw std::runtime_error(
          "RecognizerService: cannot create spill directory " +
          config_.spill_dir + ": " + ec.message());
    }
    std::error_code sec;
    const auto manifest_size = std::filesystem::file_size(
        SessionTable::path_in(config_.spill_dir), sec);
    if (!sec && manifest_size > 0) {
      // A prior life left a manifest. Nothing is adopted implicitly — the
      // caller must recover() (and see the typed errors) before any session
      // operation; journal() enforces that.
      pending_recovery_ = true;
    } else {
      log_ = std::make_unique<SessionTable>(config_.spill_dir);
    }
  }
}

// The log's own destructor settles it: a durable manifest stays for the
// next incarnation to recover(), a scratch log is removed.
RecognizerService::~RecognizerService() = default;

SessionTable* RecognizerService::journal() {
  if (pending_recovery_) {
    throw std::logic_error(
        "RecognizerService: a prior manifest awaits recover() — session "
        "operations would silently shadow the persisted table");
  }
  return config_.durable ? log_.get() : nullptr;
}

SessionTable& RecognizerService::spill_log() {
  if (SessionTable* t = journal()) return *t;
  if (log_ == nullptr) {
    log_ = SessionTable::scratch(
        config_.spill_dir.empty()
            ? std::filesystem::temp_directory_path().string()
            : config_.spill_dir);
  }
  return *log_;
}

RecognizerService::Session& RecognizerService::session_or_throw(SessionId id) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    throw std::out_of_range("RecognizerService: unknown session " +
                            std::to_string(id));
  }
  return it->second;
}

RecognizerService::SessionId RecognizerService::open(std::uint64_t seed) {
  // Skip over ids claimed by open_at so auto-assignment never collides.
  while (sessions_.contains(next_id_)) ++next_id_;
  return open_at(next_id_++, seed);
}

RecognizerService::SessionId RecognizerService::open_at(SessionId id,
                                                        std::uint64_t seed) {
  if (sessions_.contains(id)) {
    throw std::invalid_argument("RecognizerService: session id " +
                                std::to_string(id) + " is already open");
  }
  // Build the recognizer before journaling: a make() failure must not leave
  // a kOpen record for a session that never existed.
  Session session;
  session.recognizer = config_.spec.make(seed);
  session.shard = id % shards_.size();
  if (SessionTable* t = journal()) {
    t->crash_point();
    t->record_open(id, seed, session.shard);
  }
  sessions_.emplace(id, std::move(session));
  cells_.sessions_opened.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void RecognizerService::feed(SessionId id,
                             std::span<const stream::Symbol> chunk) {
  Session& session = session_or_throw(id);
  if (session.evicted) revive_session(id, session);
  bool over_threshold = false;
  {
    Shard& shard = shards_[session.shard];
    std::lock_guard<std::mutex> lock(shard.mu);
    if (session.pending.empty() && !chunk.empty()) shard.ready.push_back(id);
    session.pending.insert(session.pending.end(), chunk.begin(), chunk.end());
    // Written only under the lock, so load + store needs no RMW.
    const std::uint64_t depth =
        shard.buffered.load(std::memory_order_relaxed) + chunk.size();
    shard.buffered.store(depth, std::memory_order_relaxed);
    over_threshold = depth >= config_.flush_threshold;
  }
  cells_.symbols_ingested.fetch_add(chunk.size(), std::memory_order_relaxed);
  // The shard lock is released first: flush()'s worker re-takes it.
  if (over_threshold) flush();
}

void RecognizerService::feed_borrowed(SessionId id,
                                      std::span<const stream::Symbol> chunk) {
  Session& session = session_or_throw(id);
  if (session.evicted) revive_session(id, session);
  util::Stopwatch watch;
  {
    std::lock_guard<std::mutex> lock(shards_[session.shard].mu);
    // Order within the session must hold: anything already buffered goes
    // first, then the borrowed span — which is consumed before returning,
    // so the caller's view (e.g. a MappedFileStream page) may be
    // invalidated or released afterwards.
    if (!session.pending.empty()) drain_locked(id, session);
    session.recognizer->feed_chunk(chunk);
  }
  cells_.symbols_ingested.fetch_add(chunk.size(), std::memory_order_relaxed);
  cells_.borrowed_chunks.fetch_add(1, std::memory_order_relaxed);
  cells_.busy_ns.fetch_add(to_ns(watch.seconds()), std::memory_order_relaxed);
}

void RecognizerService::drain_inline(SessionId id, Session& session) {
  std::lock_guard<std::mutex> lock(shards_[session.shard].mu);
  drain_locked(id, session);
}

void RecognizerService::drain_locked(SessionId id, Session& session) {
  Shard& shard = shards_[session.shard];
  shard.buffered.store(
      shard.buffered.load(std::memory_order_relaxed) - session.pending.size(),
      std::memory_order_relaxed);
  session.recognizer->feed_chunk(session.pending);
  session.pending.clear();
  std::erase(shard.ready, id);
}

void RecognizerService::flush() {
  // Unlocked relaxed reads: a feed() racing this check is either seen now
  // or drained by the next flush.
  bool any = false;
  for (const Shard& shard : shards_) {
    any = any || shard.buffered.load(std::memory_order_relaxed) > 0;
  }
  if (!any) return;
  util::Stopwatch watch;
  // One task per shard: a session is pinned to its shard for life, so no
  // two workers ever advance the same session, and symbols within a session
  // stay in order (the determinism contract). Shards drain concurrently.
  util::parallel_for(
      *pool_, 0, shards_.size(), 1, [this](std::size_t lo, std::size_t hi) {
        for (std::size_t si = lo; si < hi; ++si) {
          // The worker owns the shard's slot lock for the whole drain, so
          // evict()/evicted()/feed() on a session of this shard serialize
          // against it instead of racing the recognizer state.
          Shard& shard = shards_[si];
          std::lock_guard<std::mutex> lock(shard.mu);
          for (const SessionId id : shard.ready) {
            Session& s = sessions_.find(id)->second;
            s.recognizer->feed_chunk(s.pending);
            s.pending.clear();
          }
          shard.ready.clear();
          shard.buffered.store(0, std::memory_order_relaxed);
        }
      });
  const std::uint64_t ns = to_ns(watch.seconds());
  cells_.busy_ns.fetch_add(ns, std::memory_order_relaxed);
  cells_.flushes.fetch_add(1, std::memory_order_relaxed);
  flush_ns_.record(ns);
}

RecognizerService::Verdict RecognizerService::finish(SessionId id) {
  Session& session = session_or_throw(id);
  if (session.evicted) revive_session(id, session);
  SessionTable* t = journal();
  if (t != nullptr) t->crash_point();
  util::Stopwatch watch;
  if (!session.pending.empty()) drain_inline(id, session);
  Verdict verdict;
  verdict.accepted = session.recognizer->finish();
  verdict.fully_simulated = session.recognizer->fully_simulated();
  verdict.space = session.recognizer->space_used();
  if (t != nullptr) t->record_finish(id);
  const std::uint64_t ns = to_ns(watch.seconds());
  cells_.busy_ns.fetch_add(ns, std::memory_order_relaxed);
  cells_.sessions_finished.fetch_add(1, std::memory_order_relaxed);
  sessions_.erase(id);
  finish_ns_.record(ns);
  return verdict;
}

std::uint64_t RecognizerService::buffered_symbols() const noexcept {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.buffered.load(std::memory_order_relaxed);
  }
  return total;
}

void RecognizerService::evict(SessionId id) {
  Session& session = session_or_throw(id);
  if (session.evicted) return;  // double-evict is a no-op
  // The crash hook fires before ANY side effect — an injected crash must
  // leave exactly n records.
  SessionTable& log = spill_log();
  log.crash_point();
  std::lock_guard<std::mutex> lock(shards_[session.shard].mu);
  // The buffer must reach the recognizer before the state is frozen —
  // snapshotting around unconsumed symbols would replay them out of order.
  if (!session.pending.empty()) drain_locked(id, session);
  const std::vector<std::uint8_t> bytes = session.recognizer->snapshot();
  log.record_evict(id, bytes);
  session.recognizer.reset();  // the point of evicting: free the memory
  session.evicted = true;
  cells_.evictions.fetch_add(1, std::memory_order_relaxed);
  cells_.spill_bytes_written.fetch_add(bytes.size(),
                                       std::memory_order_relaxed);
}

void RecognizerService::revive_session(SessionId id, Session& session) {
  SessionTable& log = spill_log();
  log.crash_point();
  std::lock_guard<std::mutex> lock(shards_[session.shard].mu);
  const std::vector<std::uint8_t> bytes = log.read_snapshot(id);
  // The restore overwrites every bit of recognizer state, seed included, so
  // the construction seed here is immaterial.
  session.recognizer = config_.spec.make(0);
  session.recognizer->restore(bytes);
  log.record_revive(id);
  session.evicted = false;
  cells_.revives.fetch_add(1, std::memory_order_relaxed);
  cells_.spill_bytes_read.fetch_add(bytes.size(), std::memory_order_relaxed);
}

void RecognizerService::revive(SessionId id) {
  Session& session = session_or_throw(id);
  if (session.evicted) revive_session(id, session);
}

bool RecognizerService::evicted(SessionId id) {
  Session& session = session_or_throw(id);
  std::lock_guard<std::mutex> lock(shards_[session.shard].mu);
  return session.evicted;
}

void RecognizerService::migrate(SessionId id, std::size_t target_shard) {
  Session& session = session_or_throw(id);
  if (target_shard >= shards_.size()) {
    throw std::invalid_argument(
        "RecognizerService: migrate target shard " +
        std::to_string(target_shard) + " out of range (" +
        std::to_string(shards_.size()) + " shards)");
  }
  if (target_shard == session.shard) return;  // same-shard move is a no-op
  // A resident session moves by the evict→revive path: spill on the old
  // shard, change the pin, restore on the new one. An evicted session only
  // needs the pin changed — its state is already on disk.
  const bool was_resident = !session.evicted;
  if (was_resident) evict(id);
  if (SessionTable* t = journal()) {
    t->crash_point();
    t->record_migrate(id, target_shard);
  }
  session.shard = target_shard;
  if (was_resident) revive_session(id, session);
  cells_.migrations.fetch_add(1, std::memory_order_relaxed);
}

std::size_t RecognizerService::rebalance(std::size_t max_moves) {
  std::size_t moves = 0;
  while (moves < max_moves) {
    std::vector<std::size_t> load(shards_.size(), 0);
    for (const auto& [id, session] : sessions_) ++load[session.shard];
    const auto max_it = std::max_element(load.begin(), load.end());
    const auto min_it = std::min_element(load.begin(), load.end());
    // Moving one session from max to min only helps while they differ by at
    // least two — at one apart the move just swaps which shard is fuller.
    if (*max_it < *min_it + 2) break;
    const auto from = static_cast<std::size_t>(max_it - load.begin());
    const auto to = static_cast<std::size_t>(min_it - load.begin());
    // Deterministic pick (sessions_ iteration order is not): the smallest
    // id on the hot shard, preferring evicted sessions — migrating those is
    // a pure bookkeeping write, no spill round-trip.
    SessionId pick = 0;
    int pick_rank = -1;  // 1 = evicted (cheap), 0 = resident
    for (const auto& [sid, session] : sessions_) {
      if (session.shard != from) continue;
      const int rank = session.evicted ? 1 : 0;
      if (rank > pick_rank || (rank == pick_rank && sid < pick)) {
        pick = sid;
        pick_rank = rank;
      }
    }
    if (pick_rank < 0) break;  // unreachable: *max_it >= 2 implies a session
    migrate(pick, to);
    ++moves;
  }
  return moves;
}

std::size_t RecognizerService::shard_of(SessionId id) {
  return session_or_throw(id).shard;
}

std::size_t RecognizerService::persist() {
  if (!config_.durable) {
    throw std::logic_error("RecognizerService: persist() requires durable mode");
  }
  SessionTable* t = journal();
  // Evict in id order so the journal (and the kill-point matrix over it) is
  // deterministic — sessions_ iteration order is not.
  std::vector<SessionId> resident;
  resident.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) {
    if (!session.evicted) resident.push_back(id);
  }
  std::sort(resident.begin(), resident.end());
  for (const SessionId id : resident) evict(id);
  t->crash_point();
  t->compact();
  return sessions_.size();
}

RecognizerService::RecoveryReport RecognizerService::recover() {
  if (!config_.durable) {
    throw std::logic_error("RecognizerService: recover() requires durable mode");
  }
  if (!sessions_.empty()) {
    throw std::logic_error(
        "RecognizerService: recover() on a service with open sessions");
  }
  SessionTable::Replay replayed = SessionTable::replay(config_.spill_dir);
  RecoveryReport report;
  report.records_replayed = replayed.records;
  std::map<SessionId, SessionTable::LiveSession> adopted;
  for (auto& [id, s] : replayed.live) {
    if (!s.evicted()) {
      // Resident at the crash: its state lived only in the dead process.
      report.lost.push_back(id);
      continue;
    }
    // A restart may resize the pool; fold the recorded pin into range.
    s.shard %= shards_.size();
    Session session;
    session.shard = s.shard;
    session.evicted = true;
    sessions_.emplace(id, std::move(session));
    if (id >= next_id_) next_id_ = id + 1;
    adopted.emplace(id, s);
  }
  report.sessions_recovered = adopted.size();
  // Opening the journal over the adopted view compacts it at once: lost
  // sessions drop out, and replaying the recovered journal reproduces
  // exactly this table.
  log_ = std::make_unique<SessionTable>(config_.spill_dir, std::move(adopted));
  pending_recovery_ = false;
  cells_.recovered_sessions.fetch_add(report.sessions_recovered,
                                      std::memory_order_relaxed);
  return report;
}

void RecognizerService::persist_abort_after(std::uint64_t n) noexcept {
  if (config_.durable && log_ != nullptr) log_->abort_after(n);
}

std::uint64_t RecognizerService::manifest_records() const noexcept {
  return config_.durable && log_ != nullptr ? log_->records_appended() : 0;
}

RecognizerService::Stats RecognizerService::stats() const noexcept {
  Stats s;
  s.sessions_opened = cells_.sessions_opened.load(std::memory_order_relaxed);
  s.sessions_finished =
      cells_.sessions_finished.load(std::memory_order_relaxed);
  s.symbols_ingested = cells_.symbols_ingested.load(std::memory_order_relaxed);
  s.borrowed_chunks = cells_.borrowed_chunks.load(std::memory_order_relaxed);
  s.flushes = cells_.flushes.load(std::memory_order_relaxed);
  s.busy_seconds =
      static_cast<double>(cells_.busy_ns.load(std::memory_order_relaxed)) /
      1e9;
  s.evictions = cells_.evictions.load(std::memory_order_relaxed);
  s.revives = cells_.revives.load(std::memory_order_relaxed);
  s.spill_bytes_written =
      cells_.spill_bytes_written.load(std::memory_order_relaxed);
  s.spill_bytes_read = cells_.spill_bytes_read.load(std::memory_order_relaxed);
  s.migrations = cells_.migrations.load(std::memory_order_relaxed);
  s.recovered_sessions =
      cells_.recovered_sessions.load(std::memory_order_relaxed);
  return s;
}

void RecognizerService::reset_stats() noexcept {
  cells_.sessions_opened.store(0, std::memory_order_relaxed);
  cells_.sessions_finished.store(0, std::memory_order_relaxed);
  cells_.symbols_ingested.store(0, std::memory_order_relaxed);
  cells_.borrowed_chunks.store(0, std::memory_order_relaxed);
  cells_.flushes.store(0, std::memory_order_relaxed);
  cells_.busy_ns.store(0, std::memory_order_relaxed);
  cells_.evictions.store(0, std::memory_order_relaxed);
  cells_.revives.store(0, std::memory_order_relaxed);
  cells_.spill_bytes_written.store(0, std::memory_order_relaxed);
  cells_.spill_bytes_read.store(0, std::memory_order_relaxed);
  cells_.migrations.store(0, std::memory_order_relaxed);
  cells_.recovered_sessions.store(0, std::memory_order_relaxed);
}

void RecognizerService::render_prometheus(std::ostream& os) const {
  stats().for_each_field([&os](const char* name, auto value) {
    os << "# TYPE qols_service_" << name << " counter\nqols_service_" << name
       << " " << value << "\n";
  });
  os << "# TYPE qols_service_sessions_open gauge\nqols_service_sessions_open "
     << sessions_.size() << "\n";
  os << "# TYPE qols_service_shard_queue_depth gauge\n";
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    os << "qols_service_shard_queue_depth{shard=\"" << i << "\"} "
       << shards_[i].buffered.load(std::memory_order_relaxed) << "\n";
  }
  os << "# TYPE qols_service_manifest_records counter\n"
     << "qols_service_manifest_records " << manifest_records() << "\n"
     << "# TYPE qols_service_compactions counter\n"
     << "qols_service_compactions "
     << (log_ != nullptr ? log_->compactions() : 0) << "\n";
  telemetry::render_prometheus_histogram(os, "qols_service_flush_ns",
                                         flush_ns_.snapshot());
  telemetry::render_prometheus_histogram(os, "qols_service_finish_ns",
                                         finish_ns_.snapshot());
}

}  // namespace qols::service
