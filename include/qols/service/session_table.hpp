#pragma once
// The session table: the one store for evicted sessions. An append-only,
// CRC-framed log whose kEvict records carry the snapshot bytes inline, plus
// an in-memory index from session id to that record.
//
// A session's whole state between input bits is one machine configuration,
// and the snapshot codec already turns it into bytes; the log keeps those
// bytes next to the lifecycle records that say which sessions are open and
// where they are pinned, so the file is the complete restart state:
//
//   file    <spill_dir>/qols-manifest.journal
//   header  8 bytes: 'Q' 'O' 'L' 'S' 'M' 'A' 'N' <version=2>
//   record  u32 payload_len | u32 crc32(payload) | payload
//   payload u8 record type, then little-endian fields (util::serde):
//     kOpen    (1): u64 id, u64 seed, u64 shard
//     kEvict   (2): u64 id, snapshot bytes (the rest of the payload)
//     kRevive  (3): u64 id
//     kFinish  (4): u64 id
//     kMigrate (5): u64 id, u64 shard
//
// Revive is one pread of the session's kEvict record, whose CRC is checked
// on that read (ManifestCorrupt on a mismatch).
//
// Two kinds of log share this format:
//   durable — the manifest above. Every lifecycle record is journaled;
//             records are fsync'd in batches of kSyncEvery, and evict
//             records and compaction force a sync (a spilled session must
//             survive power loss, not just process death).
//   scratch — a non-durable service's spill store: a uniquely named
//             qols-spill-<pid>-<n>.log in the spill directory. It holds
//             kEvict records only, is never fsync'd, is never named like a
//             manifest (so it can never be taken for one), and the
//             destructor removes it.
//
// Compaction: compact() atomically (tmp + rename; durable adds fsync and a
// directory fsync) replaces the log with the minimal record sequence whose
// replay equals the live view — one kOpen per live session (durable only,
// with its CURRENT shard, folding migrations) plus one kEvict per evicted
// session, copied from the old file one record at a time. Appends trigger
// it on their own once the dead bytes (revived and finished payloads,
// spent lifecycle records) exceed kCompactRatio times the live bytes and
// kCompactFloor.
//
// Recovery (replay) is a pure function of the file, read record by record
// (never more than one payload in memory). Typed errors:
//   ManifestMissing — no journal file, or a zero-byte file (a crash before
//                     the header became durable left nothing to recover);
//   ManifestTorn    — the file ends mid-header or mid-record (the classic
//                     torn final append);
//   ManifestCorrupt — bad magic/version, CRC mismatch, a record length of 0
//                     or past kMaxRecordPayload, or a record that
//                     contradicts the replay state (open of a live id,
//                     evict of an unknown id, ...).

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace qols::service {

/// Base of every durability failure. Derives std::runtime_error: recovery
/// errors are environmental (a damaged directory), not programming errors.
class RecoveryError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class ManifestMissing : public RecoveryError {
 public:
  using RecoveryError::RecoveryError;
};

class ManifestTorn : public RecoveryError {
 public:
  using RecoveryError::RecoveryError;
};

class ManifestCorrupt : public RecoveryError {
 public:
  using RecoveryError::RecoveryError;
};

/// Thrown by the test-only abort_after() hook to simulate a crash at a
/// journal record boundary. NOT a RecoveryError: production code never
/// throws or catches it; the kill-point matrix test does both.
class InjectedCrash : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Append-only log plus its index. Single-writer (the service's acceptor
/// thread); replay() is static and touches only the file.
class SessionTable {
 public:
  enum class RecordType : std::uint8_t {
    kOpen = 1,
    kEvict = 2,
    kRevive = 3,
    kFinish = 4,
    kMigrate = 5,
  };

  /// Durable journals fsync after this many unsynced records.
  static constexpr std::uint64_t kSyncEvery = 32;
  /// Automatic compaction: dead bytes must exceed both kCompactRatio times
  /// the live bytes and kCompactFloor.
  static constexpr std::uint64_t kCompactRatio = 1;
  static constexpr std::uint64_t kCompactFloor = std::uint64_t{256} << 10;
  /// Largest record payload: a kEvict of the largest snapshot image.
  static const std::uint32_t kMaxRecordPayload;

  /// One live session as the log describes it.
  struct LiveSession {
    std::uint64_t seed = 0;
    std::uint64_t shard = 0;
    /// The session's kEvict record: file offset of its frame and its
    /// payload length (0 while the session is resident).
    std::uint64_t offset = 0;
    std::uint32_t length = 0;
    bool evicted() const noexcept { return length != 0; }
  };

  /// The replayed manifest: every session opened and not yet finished, in
  /// id order, plus the record count (the kill-point matrix coordinate).
  struct Replay {
    std::map<std::uint64_t, LiveSession> live;
    std::uint64_t records = 0;
  };

  /// Journal file name under the spill directory.
  static const char* file_name() noexcept { return "qols-manifest.journal"; }
  static std::string path_in(const std::string& dir);

  /// Opens the durable journal in `dir` for appending; a missing or empty
  /// file gets the header. `live` is what the existing records describe
  /// (replay()'s view, as recover() adopts it); a journal that already
  /// holds records is compacted to it at once, so the handle never appends
  /// after records it has not accounted for. Throws std::runtime_error on
  /// I/O failure.
  explicit SessionTable(std::string dir,
                        std::map<std::uint64_t, LiveSession> live = {});
  /// A scratch log in `dir` (created if absent) for a non-durable service.
  static std::unique_ptr<SessionTable> scratch(const std::string& dir);
  ~SessionTable();

  SessionTable(const SessionTable&) = delete;
  SessionTable& operator=(const SessionTable&) = delete;

  /// The injected-crash hook. The service calls this at the START of every
  /// journaled operation, before the append, so abort_after(n) leaves
  /// exactly n records: a consistent crash image. No-op unless armed;
  /// throws InjectedCrash when the budget runs out and marks the table dead
  /// (all later writes throw too, the way a crashed process stays crashed).
  void crash_point();

  // One append per call. Appends do NOT consume the crash budget themselves
  // (the caller's crash_point() already did); a dead table refuses them.
  // A scratch log only ever sees record_evict and record_revive.
  void record_open(std::uint64_t id, std::uint64_t seed, std::uint64_t shard);
  /// Appends the session's snapshot. Throws std::length_error past
  /// kMaxRecordPayload (replay would refuse the record).
  void record_evict(std::uint64_t id, std::span<const std::uint8_t> snapshot);
  /// Drops the session's snapshot from the index; a durable journal also
  /// appends kRevive.
  void record_revive(std::uint64_t id);
  void record_finish(std::uint64_t id);
  void record_migrate(std::uint64_t id, std::uint64_t shard);

  /// The evicted session's snapshot, read with one pread. Throws
  /// ManifestCorrupt when the record fails its CRC or frame check, and
  /// std::out_of_range when the session is not evicted here.
  std::vector<std::uint8_t> read_snapshot(std::uint64_t id) const;

  /// Forces the journal to disk now (no-op for a scratch log).
  void sync();

  /// Rewrites the log to the minimal equivalent of the live view (see the
  /// compaction note above); a durable journal is synced.
  void compact();

  /// Records appended through this handle (compaction resets the file but
  /// not this counter; it counts operations, the matrix coordinate).
  std::uint64_t records_appended() const noexcept { return appended_; }
  std::uint64_t syncs() const noexcept { return syncs_; }
  std::uint64_t compactions() const noexcept { return compactions_; }

  /// Test-only: arm crash_point() to throw on its (n+1)-th subsequent call
  /// (n = 0 crashes the very next journaled operation).
  void abort_after(std::uint64_t n) noexcept;

  /// Replays <dir>/qols-manifest.journal. Pure read; throws the typed
  /// errors documented above.
  static Replay replay(const std::string& dir);

 private:
  SessionTable(std::string dir, std::string path, bool durable,
               std::map<std::uint64_t, LiveSession> live);
  void ensure_alive() const;
  void append(RecordType type, const std::vector<std::uint8_t>& record);
  /// Appends `s`'s kEvict record (frame + payload), checked, to `out`.
  void read_record(std::uint64_t id, const LiveSession& s,
                   std::vector<std::uint8_t>& out) const;
  /// Bytes a compaction would keep for `s`.
  std::uint64_t live_size(const LiveSession& s) const noexcept;
  void maybe_compact();

  std::string dir_;
  std::string path_;
  bool durable_ = true;
  int fd_ = -1;
  std::map<std::uint64_t, LiveSession> live_;
  std::uint64_t size_ = 0;        ///< file bytes, header included
  std::uint64_t live_bytes_ = 0;  ///< what compaction would keep
  std::uint64_t appended_ = 0;
  std::uint64_t unsynced_ = 0;
  std::uint64_t syncs_ = 0;
  std::uint64_t compactions_ = 0;
  bool armed_ = false;
  std::uint64_t remaining_ = 0;
  bool dead_ = false;
};

}  // namespace qols::service
