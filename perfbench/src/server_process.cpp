#include "server_process.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// utime + stime of one /proc/.../stat file, in clock ticks.
std::uint64_t stat_ticks(const std::string& path) {
  std::ifstream f(path);
  std::string line;
  if (!std::getline(f, line)) return 0;
  const auto close = line.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  std::uint64_t utime = 0, stime = 0;
  // Fields after the command: state is field 3, utime 14, stime 15.
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return utime + stime;
}

}  // namespace

namespace {

int online_cpus() { return static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN)); }

/// CPUs [first, last) as a set.
cpu_set_t cpu_range(int first, int last) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c = first; c < last; ++c) CPU_SET(c, &set);
  return set;
}

cpu_set_t server_cpu_set() {
  const int n = online_cpus();
  return cpu_range(0, n >= 3 ? n - 1 : n);
}

}  // namespace

void pin_generator_cpu() {
  const int n = online_cpus();
  if (n < 3) return;
  const cpu_set_t set = cpu_range(n - 1, n);
  ::sched_setaffinity(0, sizeof(set), &set);
}

ServerProcess::ServerProcess(const std::string& binary,
                             const std::vector<std::string>& args,
                             const std::string& preload) {
  // Everything the child needs is built before vfork(): the child shares
  // this process's memory until it execs, so it only makes system calls.
  // vfork() rather than fork(): fork's cost grows with this process's
  // memory, which grows over a run, and it was charged to setup_s.
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  std::vector<std::string> env_strings;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "LD_PRELOAD=", 11) != 0) env_strings.emplace_back(*e);
  }
  if (!preload.empty()) env_strings.push_back("LD_PRELOAD=" + preload);
  std::vector<char*> envp;
  for (auto& e : env_strings) envp.push_back(e.data());
  envp.push_back(nullptr);
  const cpu_set_t server_cpus = server_cpu_set();

  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  const auto t0 = Clock::now();
  const pid_t parent = ::getpid();
  const pid_t pid = ::vfork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    // Die with the benchmark, so no server outlives a killed run.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(fds[1], STDOUT_FILENO);
    ::sched_setaffinity(0, sizeof(server_cpus), &server_cpus);
    ::execve(binary.c_str(), argv.data(), envp.data());
    ::_exit(127);
  }
  pid_ = pid;
  ::close(fds[1]);
  out_fd_ = fds[0];

  std::string text;
  const std::string marker = "listening on ";
  while (true) {
    const auto at = text.find(marker);
    const auto nl =
        at == std::string::npos ? std::string::npos : text.find('\n', at);
    if (nl != std::string::npos) {
      const std::string addr = text.substr(at + marker.size(),
                                           nl - at - marker.size());
      port_ = static_cast<std::uint16_t>(
          std::stoul(addr.substr(addr.rfind(':') + 1)));
      break;
    }
    // Spin rather than sleep: the time to the listening line is measured,
    // and waking this thread would add the host's wake-up latency to it.
    pollfd p{out_fd_, POLLIN, 0};
    if (::poll(&p, 1, 0) <= 0) {
      if (since(t0) > 30.0) {
        throw std::runtime_error("qols_server printed no listening line");
      }
      continue;
    }
    char buf[512];
    const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
    if (n <= 0) throw std::runtime_error("qols_server exited at startup");
    text.append(buf, static_cast<std::size_t>(n));
  }
  startup_s_ = since(t0);
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  if (out_fd_ >= 0) ::close(out_fd_);
}

std::uint64_t ServerProcess::rss_kb() const {
  std::ifstream f("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (f >> key) {
    if (key == "VmRSS:") {
      std::uint64_t kb = 0;
      f >> kb;
      return kb;
    }
    f.ignore(1 << 12, '\n');
  }
  return 0;
}

TaskCpu ServerProcess::cpu() const {
  static const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
  TaskCpu c;
  const std::string dir = "/proc/" + std::to_string(pid_) + "/task";
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return c;
  while (const dirent* e = ::readdir(d)) {
    if (e->d_name[0] == '.') continue;
    const double s = static_cast<double>(
                         stat_ticks(dir + "/" + e->d_name + "/stat")) /
                     tick;
    if (std::to_string(pid_) == e->d_name) {
      c.main_s = s;
    } else {
      c.others_s += s;
      ++c.others;
    }
  }
  ::closedir(d);
  return c;
}

ProcIo ServerProcess::io() const {
  std::ifstream f("/proc/" + std::to_string(pid_) + "/io");
  ProcIo io;
  std::string key;
  std::uint64_t value = 0;
  while (f >> key >> value) {
    if (key == "syscw:") io.syscw = value;
    if (key == "wchar:") io.wchar = value;
  }
  return io;
}

ServerProcess::ExitInfo ServerProcess::stop() {
  const auto t0 = Clock::now();
  ::kill(pid_, SIGTERM);
  // WNOWAIT leaves the exited process unreaped, so its /proc/<pid>/io still
  // holds the totals of the whole run. WNOHANG: spin, as in the constructor.
  for (;;) {
    siginfo_t info{};
    if (::waitid(P_PID, static_cast<id_t>(pid_), &info,
                 WEXITED | WNOWAIT | WNOHANG) != 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("waitid failed");
    }
    if (info.si_pid == pid_) break;
  }
  ExitInfo exit;
  exit.seconds = since(t0);
  exit.io = io();
  exit.cpu_s = static_cast<double>(stat_ticks("/proc/" + std::to_string(pid_) +
                                              "/stat")) /
               static_cast<double>(::sysconf(_SC_CLK_TCK));
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("qols_server did not exit cleanly");
  }
  return exit;
}

std::string fresh_dir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string filesystem_type(const std::string& path) {
  struct statfs s {};
  if (::statfs(path.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    default: {
      std::ostringstream os;
      os << "0x" << std::hex << static_cast<unsigned long>(s.f_type);
      return os.str();
    }
  }
}

}  // namespace perfbench
