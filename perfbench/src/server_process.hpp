#pragma once
// qols_server as a child process: launch it, learn its port from its
// listening line, read its /proc counters, and stop it.

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// CPU time of a process, split into its first (event-loop) thread and the
/// rest (the service's pool), in seconds.
struct TaskCpu {
  double main_s = 0;
  double others_s = 0;
  unsigned others = 0;  ///< how many non-main threads

  /// The CPU time spent between `earlier` and this reading.
  TaskCpu since(const TaskCpu& earlier) const {
    return {main_s - earlier.main_s, others_s - earlier.others_s, others};
  }
};

/// /proc/<pid>/io write-side counters.
struct ProcIo {
  std::uint64_t syscw = 0;
  std::uint64_t wchar = 0;
};

class ServerProcess {
 public:
  /// Starts `binary args...`, with `preload` (if not empty) as LD_PRELOAD,
  /// and waits for its listening line. Throws std::runtime_error when it
  /// exits or stays silent for 30 s.
  ServerProcess(const std::string& binary, const std::vector<std::string>& args,
                const std::string& preload = {});
  /// Kills a server that was not stopped, and reaps it.
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  std::uint16_t port() const noexcept { return port_; }
  pid_t pid() const noexcept { return pid_; }
  /// Seconds from fork to the listening line.
  double startup_s() const noexcept { return startup_s_; }

  std::uint64_t rss_kb() const;
  TaskCpu cpu() const;
  ProcIo io() const;

  /// What stop() saw: seconds from SIGTERM to the exit, and the process's
  /// write counters and total CPU seconds, read just before it is reaped.
  struct ExitInfo {
    double seconds = 0;
    ProcIo io;
    double cpu_s = 0;
  };
  /// SIGTERM, then waits for the exit. Throws when the server exits
  /// non-zero.
  ExitInfo stop();

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
  double startup_s_ = 0;
};

/// How to launch the server under test.
struct ServerSpec {
  std::string binary;
  std::string kind;
  bool durable = false;  ///< --durable --persist-on-shutdown
  std::string preload;   ///< LD_PRELOAD for the server, or empty

  std::vector<std::string> args(const std::string& spill_dir) const {
    std::vector<std::string> a{"--kind", kind, "--port", "0"};
    if (durable) {
      a.insert(a.end(), {"--durable", "--persist-on-shutdown", "--spill-dir",
                         spill_dir});
    }
    return a;
  }
};

/// The load generator and the server do not share a core: on a machine of
/// n >= 3 CPUs every server runs on the first n-1 and the generator on the
/// last. Applies to the calling thread.
void pin_generator_cpu();

/// Launches `spec` on `spill_dir`.
inline std::unique_ptr<ServerProcess> launch(const ServerSpec& spec,
                                             const std::string& spill_dir) {
  return std::make_unique<ServerProcess>(spec.binary, spec.args(spill_dir),
                                         spec.preload);
}

/// Empties (or creates) `dir` and returns it.
std::string fresh_dir(const std::string& dir);

/// Filesystem type name of `path` ("ext4", "tmpfs", ...).
std::string filesystem_type(const std::string& path);

}  // namespace perfbench
