#include "qols/service/session_table.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <utility>

#include "qols/core/grover_streamer.hpp"
#include "qols/util/crc32.hpp"
#include "qols/util/serde.hpp"

namespace qols::service {

namespace {

constexpr std::uint8_t kMagic[8] = {'Q', 'O', 'L', 'S', 'M', 'A', 'N', 2};
constexpr std::size_t kHeaderSize = sizeof(kMagic);
constexpr std::size_t kRecordFrame = 8;  // u32 len + u32 crc
constexpr std::size_t kEvictPrefix = 9;  // u8 type + u64 id
constexpr std::uint64_t kOpenRecord = kRecordFrame + 25;
/// Compaction writes in pieces of about this size.
constexpr std::size_t kCopyChunk = std::size_t{1} << 20;

[[noreturn]] void throw_io(const std::string& what, const std::string& path) {
  throw std::runtime_error("SessionTable: " + what + " " + path + ": " +
                           std::strerror(errno));
}

void write_all(int fd, const std::uint8_t* data, std::size_t n,
               const std::string& path) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t w = ::write(fd, data + done, n - done);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw_io("cannot write", path);
    }
    done += static_cast<std::size_t>(w);
  }
}

void fsync_or_throw(int fd, const std::string& path) {
  if (::fsync(fd) != 0) throw_io("cannot fsync", path);
}

/// Syncs the directory entry so a rename/create is durable, not just the
/// file contents. Best effort on filesystems that refuse O_DIRECTORY fsync.
void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

void store_u32(std::uint8_t* at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) at[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// One framed record: the type byte, the id, `fields`, then `tail` (a
/// kEvict's snapshot bytes).
std::vector<std::uint8_t> make_record(
    SessionTable::RecordType type, std::uint64_t id,
    std::initializer_list<std::uint64_t> fields = {},
    std::span<const std::uint8_t> tail = {}) {
  util::serde::ByteWriter w;
  w.u32(0);  // the frame, filled in below
  w.u32(0);
  w.u8(static_cast<std::uint8_t>(type));
  w.u64(id);
  for (const std::uint64_t f : fields) w.u64(f);
  std::vector<std::uint8_t> rec = w.take();
  rec.insert(rec.end(), tail.begin(), tail.end());
  const std::span<const std::uint8_t> payload(rec.data() + kRecordFrame,
                                              rec.size() - kRecordFrame);
  store_u32(rec.data(), static_cast<std::uint32_t>(payload.size()));
  store_u32(rec.data() + 4, util::crc32(payload));
  return rec;
}

[[noreturn]] void corrupt(std::uint64_t record, const std::string& why) {
  throw ManifestCorrupt("manifest record " + std::to_string(record) + ": " +
                        why);
}

/// Applies one decoded record, found at file offset `pos`, to the replay
/// state, enforcing the lifecycle state machine — a record that contradicts
/// the state is file damage the CRC happened not to catch, and recovery
/// must refuse it.
void apply_record(SessionTable::Replay& state,
                  std::span<const std::uint8_t> payload, std::uint64_t record,
                  std::uint64_t pos) {
  util::serde::ByteReader r(payload);
  const auto type = static_cast<SessionTable::RecordType>(r.u8());
  const std::uint64_t id = r.u64();
  const auto it = state.live.find(id);
  const auto live = [&](const char* op) -> SessionTable::LiveSession& {
    if (it == state.live.end()) {
      corrupt(record, std::string(op) + " of unknown session " +
                          std::to_string(id));
    }
    return it->second;
  };
  switch (type) {
    case SessionTable::RecordType::kOpen: {
      SessionTable::LiveSession s;
      s.seed = r.u64();
      s.shard = r.u64();
      r.expect_exhausted();
      if (it != state.live.end()) {
        corrupt(record, "open of already-open session " + std::to_string(id));
      }
      state.live.emplace(id, s);
      return;
    }
    case SessionTable::RecordType::kEvict: {
      // The rest of the payload is the snapshot, checked by its codec on
      // revive.
      SessionTable::LiveSession& s = live("evict");
      if (s.evicted()) {
        corrupt(record, "evict of evicted session " + std::to_string(id));
      }
      s.offset = pos;
      s.length = static_cast<std::uint32_t>(payload.size());
      return;
    }
    case SessionTable::RecordType::kRevive: {
      r.expect_exhausted();
      SessionTable::LiveSession& s = live("revive");
      if (!s.evicted()) {
        corrupt(record, "revive of resident session " + std::to_string(id));
      }
      s.length = 0;
      return;
    }
    case SessionTable::RecordType::kFinish: {
      r.expect_exhausted();
      live("finish");
      state.live.erase(it);
      return;
    }
    case SessionTable::RecordType::kMigrate: {
      const std::uint64_t shard = r.u64();
      r.expect_exhausted();
      live("migrate").shard = shard;
      return;
    }
  }
  corrupt(record, "unknown record type " +
                      std::to_string(static_cast<unsigned>(payload[0])));
}

void read_exact(std::ifstream& in, std::uint8_t* out, std::size_t n,
                const std::string& path) {
  in.read(reinterpret_cast<char*>(out), static_cast<std::streamsize>(n));
  if (!in) throw std::runtime_error("SessionTable: cannot read " + path);
}

}  // namespace

const std::uint32_t SessionTable::kMaxRecordPayload =
    static_cast<std::uint32_t>(kEvictPrefix + core::kMaxSnapshotBytes);

std::string SessionTable::path_in(const std::string& dir) {
  return (std::filesystem::path(dir) / file_name()).string();
}

SessionTable::SessionTable(std::string dir,
                           std::map<std::uint64_t, LiveSession> live)
    : SessionTable(dir, path_in(dir), /*durable=*/true, std::move(live)) {}

std::unique_ptr<SessionTable> SessionTable::scratch(const std::string& dir) {
  std::filesystem::create_directories(dir);
  static std::atomic<std::uint64_t> next{0};
  for (;;) {
    const std::string path =
        (std::filesystem::path(dir) /
         ("qols-spill-" + std::to_string(::getpid()) + "-" +
          std::to_string(next.fetch_add(1)) + ".log"))
            .string();
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC,
                          0600);
    if (fd >= 0) {
      ::close(fd);
      return std::unique_ptr<SessionTable>(
          new SessionTable(dir, path, /*durable=*/false, {}));
    }
    if (errno != EEXIST) throw_io("cannot create", path);
  }
}

SessionTable::SessionTable(std::string dir, std::string path, bool durable,
                           std::map<std::uint64_t, LiveSession> live)
    : dir_(std::move(dir)),
      path_(std::move(path)),
      durable_(durable),
      live_(std::move(live)) {
  fd_ = ::open(path_.c_str(), O_RDWR | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) throw_io("cannot open", path_);
  struct ::stat st{};
  if (::fstat(fd_, &st) != 0) {
    ::close(fd_);
    throw_io("cannot stat", path_);
  }
  size_ = static_cast<std::uint64_t>(st.st_size);
  live_bytes_ = kHeaderSize;
  for (const auto& [id, s] : live_) live_bytes_ += live_size(s);
  try {
    if (size_ == 0) {
      write_all(fd_, kMagic, kHeaderSize, path_);
      size_ = kHeaderSize;
      if (durable_) {
        fsync_or_throw(fd_, path_);
        fsync_dir(dir_);
      }
    }
    if (size_ != kHeaderSize) compact();
  } catch (...) {
    ::close(fd_);
    throw;
  }
}

SessionTable::~SessionTable() {
  if (durable_) ::fsync(fd_);  // best effort — the dtor cannot throw
  ::close(fd_);
  if (!durable_) ::unlink(path_.c_str());
}

void SessionTable::crash_point() {
  ensure_alive();
  if (!armed_) return;
  if (remaining_ == 0) {
    dead_ = true;
    throw InjectedCrash("SessionTable: injected crash after " +
                        std::to_string(appended_) + " records");
  }
  --remaining_;
}

void SessionTable::ensure_alive() const {
  if (dead_) {
    throw InjectedCrash("SessionTable: operating on a crashed table");
  }
}

void SessionTable::abort_after(std::uint64_t n) noexcept {
  armed_ = true;
  remaining_ = n;
}

std::uint64_t SessionTable::live_size(const LiveSession& s) const noexcept {
  return (durable_ ? kOpenRecord : 0) +
         (s.evicted() ? kRecordFrame + s.length : 0);
}

void SessionTable::append(RecordType type,
                          const std::vector<std::uint8_t>& record) {
  ensure_alive();
  write_all(fd_, record.data(), record.size(), path_);
  size_ += record.size();
  ++appended_;
  if (!durable_) return;
  if (type == RecordType::kEvict || ++unsynced_ >= kSyncEvery) {
    fsync_or_throw(fd_, path_);
    unsynced_ = 0;
    ++syncs_;
  }
}

void SessionTable::maybe_compact() {
  const std::uint64_t dead = size_ - live_bytes_;
  if (dead > kCompactFloor && dead > kCompactRatio * live_bytes_) compact();
}

void SessionTable::record_open(std::uint64_t id, std::uint64_t seed,
                               std::uint64_t shard) {
  append(RecordType::kOpen, make_record(RecordType::kOpen, id, {seed, shard}));
  live_[id] = LiveSession{seed, shard};
  live_bytes_ += kOpenRecord;
}

void SessionTable::record_evict(std::uint64_t id,
                                std::span<const std::uint8_t> snapshot) {
  if (snapshot.size() > kMaxRecordPayload - kEvictPrefix) {
    throw std::length_error("SessionTable: a " +
                            std::to_string(snapshot.size()) +
                            "-byte snapshot exceeds the record limit");
  }
  const std::uint64_t at = size_;
  const std::vector<std::uint8_t> record =
      make_record(RecordType::kEvict, id, {}, snapshot);
  append(RecordType::kEvict, record);
  LiveSession& s = live_[id];
  s.offset = at;
  s.length = static_cast<std::uint32_t>(record.size() - kRecordFrame);
  live_bytes_ += record.size();
}

void SessionTable::record_revive(std::uint64_t id) {
  const auto it = live_.find(id);
  if (it == live_.end() || !it->second.evicted()) {
    throw std::out_of_range("SessionTable: session " + std::to_string(id) +
                            " is not evicted");
  }
  if (durable_) {
    append(RecordType::kRevive, make_record(RecordType::kRevive, id));
  }
  live_bytes_ -= kRecordFrame + it->second.length;
  if (durable_) {
    it->second.length = 0;
  } else {
    live_.erase(it);
  }
  maybe_compact();
}

void SessionTable::record_finish(std::uint64_t id) {
  append(RecordType::kFinish, make_record(RecordType::kFinish, id));
  const auto it = live_.find(id);
  if (it != live_.end()) {
    live_bytes_ -= live_size(it->second);
    live_.erase(it);
  }
  maybe_compact();
}

void SessionTable::record_migrate(std::uint64_t id, std::uint64_t shard) {
  append(RecordType::kMigrate,
         make_record(RecordType::kMigrate, id, {shard}));
  live_[id].shard = shard;
  maybe_compact();
}

void SessionTable::read_record(std::uint64_t id, const LiveSession& s,
                               std::vector<std::uint8_t>& out) const {
  const std::size_t at = out.size();
  const std::size_t n = kRecordFrame + s.length;
  out.resize(at + n);
  // A regular file reads short only at its end: a record cut off there
  // fails the check like any other damage.
  const ssize_t got =
      ::pread(fd_, out.data() + at, n, static_cast<off_t>(s.offset));
  if (got < 0) throw_io("cannot read", path_);
  const std::span<const std::uint8_t> rec(out.data() + at, n);
  bool ok = static_cast<std::size_t>(got) == n;
  if (ok) {
    util::serde::ByteReader r(rec);
    const std::uint32_t len = r.u32();
    const std::uint32_t crc = r.u32();
    ok = len == s.length && util::crc32(rec.subspan(kRecordFrame)) == crc &&
         r.u8() == static_cast<std::uint8_t>(RecordType::kEvict) &&
         r.u64() == id;
  }
  if (!ok) {
    throw ManifestCorrupt("session " + std::to_string(id) +
                          ": snapshot record at byte " +
                          std::to_string(s.offset) + " of " + path_ +
                          " fails its check");
  }
}

std::vector<std::uint8_t> SessionTable::read_snapshot(std::uint64_t id) const {
  const auto it = live_.find(id);
  if (it == live_.end() || !it->second.evicted()) {
    throw std::out_of_range("SessionTable: session " + std::to_string(id) +
                            " is not evicted");
  }
  std::vector<std::uint8_t> bytes;
  read_record(id, it->second, bytes);
  bytes.erase(bytes.begin(), bytes.begin() + kRecordFrame + kEvictPrefix);
  return bytes;
}

void SessionTable::sync() {
  ensure_alive();
  if (unsynced_ == 0) return;
  fsync_or_throw(fd_, path_);
  unsynced_ = 0;
  ++syncs_;
}

void SessionTable::compact() {
  ensure_alive();
  const std::string tmp = path_ + ".tmp";
  const int fd = ::open(
      tmp.c_str(), O_RDWR | O_APPEND | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) throw_io("cannot open", tmp);
  std::map<std::uint64_t, LiveSession> next = live_;
  std::vector<std::uint8_t> buf(kMagic, kMagic + kHeaderSize);
  std::uint64_t written = 0;
  const auto flush = [&] {
    write_all(fd, buf.data(), buf.size(), tmp);
    written += buf.size();
    buf.clear();
  };
  try {
    for (auto& [id, s] : next) {
      if (durable_) {
        const auto open = make_record(RecordType::kOpen, id, {s.seed, s.shard});
        buf.insert(buf.end(), open.begin(), open.end());
      }
      if (s.evicted()) {
        const std::uint64_t at = written + buf.size();
        read_record(id, s, buf);
        s.offset = at;
      }
      if (buf.size() >= kCopyChunk) flush();
    }
    flush();
    if (durable_) fsync_or_throw(fd, tmp);
    // The rename is the commit point: either the old log or the compacted
    // one is fully in place, never a mixture.
    if (::rename(tmp.c_str(), path_.c_str()) != 0) {
      throw_io("cannot rename", tmp);
    }
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  if (durable_) fsync_dir(dir_);
  ::close(fd_);
  fd_ = fd;
  live_ = std::move(next);
  size_ = live_bytes_ = written;
  unsynced_ = 0;
  ++compactions_;
}

SessionTable::Replay SessionTable::replay(const std::string& dir) {
  const std::string path = path_in(dir);
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.is_open()) {
    throw ManifestMissing("no session manifest at " + path);
  }
  const auto size = static_cast<std::uint64_t>(in.tellg());
  if (size == 0) {
    // A crash before the header became durable: indistinguishable from a
    // never-written manifest, and treated the same way.
    throw ManifestMissing("empty session manifest at " + path);
  }
  if (size < kHeaderSize) {
    throw ManifestTorn("manifest header torn at " + std::to_string(size) +
                       " bytes: " + path);
  }
  in.seekg(0);
  std::uint8_t header[kHeaderSize];
  read_exact(in, header, kHeaderSize, path);
  if (std::memcmp(header, kMagic, kHeaderSize) != 0) {
    throw ManifestCorrupt("bad manifest magic/version: " + path);
  }

  // Record by record: only the current payload is ever in memory, and a
  // damaged length is refused before anything is allocated for it.
  Replay state;
  std::vector<std::uint8_t> payload;
  std::uint64_t pos = kHeaderSize;
  while (pos < size) {
    if (size - pos < kRecordFrame) {
      throw ManifestTorn("record " + std::to_string(state.records) +
                         " frame torn at byte " + std::to_string(pos));
    }
    std::uint8_t frame[kRecordFrame];
    read_exact(in, frame, kRecordFrame, path);
    util::serde::ByteReader fr({frame, kRecordFrame});
    const std::uint32_t len = fr.u32();
    const std::uint32_t crc = fr.u32();
    if (len == 0 || len > kMaxRecordPayload) {
      corrupt(state.records,
              "implausible payload length " + std::to_string(len));
    }
    if (size - pos - kRecordFrame < len) {
      throw ManifestTorn("record " + std::to_string(state.records) +
                         " payload torn at byte " + std::to_string(pos));
    }
    payload.resize(len);
    read_exact(in, payload.data(), len, path);
    if (util::crc32(payload) != crc) {
      corrupt(state.records, "CRC mismatch");
    }
    try {
      apply_record(state, payload, state.records, pos);
    } catch (const util::serde::DecodeError& e) {
      corrupt(state.records, e.what());
    }
    pos += kRecordFrame + len;
    ++state.records;
  }
  return state;
}

}  // namespace qols::service
