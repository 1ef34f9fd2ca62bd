// perfbench: the serving benchmark. Launches the real qols_server and loads
// it over loopback from an open-loop generator in this process, checks every
// verdict against a direct RecognizerService run, and prints one JSON line
// of metrics last.
//
//   perfbench --workload wire-classical --seed 1 --seconds 30 --trace 0
//             --server PATH/qols_server --preload PATH/libnofsync.so
//             --work-dir DIR [--set key=value]...
//
// Untraced runs (--trace 0) measure what users of the server see: the time
// to start the server, its memory and CPU per session, and (printed only)
// verdict latency at two fixed offered rates, the highest rate on a fixed
// ladder that meets the tail limit, and the time to stop and restart the
// server. Traced runs
// (--trace 1) serve the workload once more, then replay its frames through
// the L1..L4 ledger (ledger.hpp) and report per-layer metrics.

#include <fcntl.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ledger.hpp"
#include "loadgen.hpp"
#include "server_process.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

namespace wire = qols::server::wire;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string server;
  std::string work_dir;
  std::string preload;  ///< durable servers run with fsync made a no-op
  Params params;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string v = argv[++i];
    if (arg == "--workload") {
      a.workload = v;
    } else if (arg == "--seed") {
      a.seed = std::stoull(v);
    } else if (arg == "--seconds") {
      a.seconds = std::stod(v);
    } else if (arg == "--trace") {
      a.trace = v == "1";
    } else if (arg == "--server") {
      a.server = v;
    } else if (arg == "--work-dir") {
      a.work_dir = v;
    } else if (arg == "--preload") {
      a.preload = v;
    } else if (arg == "--set") {
      const auto eq = v.find('=');
      if (eq == std::string::npos ||
          !a.params.set(v.substr(0, eq), v.substr(eq + 1))) {
        usage("bad --set " + v);
      }
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (a.workload.empty() || a.server.empty() || a.work_dir.empty()) {
    usage("--workload, --server and --work-dir are required");
  }
  return a;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(10);
  os << v;
  return os.str();
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("perfbench: metric %s = %s %s\n", m.name.c_str(),
                fmt(m.value).c_str(), m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            fmt(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::string cpu_model(bool& avx2, bool& avx512f) {
  std::ifstream f("/proc/cpuinfo");
  std::string line, model = "unknown";
  avx2 = avx512f = false;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0 && model == "unknown") {
      model = line.substr(line.find(':') + 2);
    }
    if (line.rfind("flags", 0) == 0) {
      avx2 = avx2 || line.find(" avx2") != std::string::npos;
      avx512f = avx512f || line.find(" avx512f") != std::string::npos;
    }
  }
  return model;
}

void print_fingerprint(const Args& a) {
  bool avx2 = false, avx512f = false;
  const std::string model = cpu_model(avx2, avx512f);
  utsname u{};
  ::uname(&u);
  std::printf(
      "perfbench: fingerprint workload=%s seed=%llu seconds=%g trace=%d "
      "cpu=\"%s\" avx2=%d avx512f=%d nproc=%ld kernel=%s build=%s "
      "spill_fs=%s\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
      a.trace ? 1 : 0, model.c_str(), avx2 ? 1 : 0, avx512f ? 1 : 0,
      ::sysconf(_SC_NPROCESSORS_ONLN), u.release, PERFBENCH_BUILD_TYPE,
      filesystem_type(a.work_dir).c_str());
}

/// (steal, total) jiffies of all CPUs, from /proc/stat.
std::pair<double, double> cpu_steal_jiffies() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  double v[8] = {};
  f >> cpu;
  for (double& x : v) f >> x;
  double total = 0;
  for (const double x : v) total += x;
  return {v[7], total};
}

/// Pulls a number out of a flat JSON or Prometheus text by key.
double number_after(const std::string& text, const std::string& key) {
  const auto at = text.find(key);
  if (at == std::string::npos) return 0;
  std::size_t i = at + key.size();
  while (i < text.size() &&
         (text[i] == '"' || text[i] == ':' || text[i] == ' ')) {
    ++i;
  }
  return std::strtod(text.c_str() + i, nullptr);
}

/// Quantile of a Prometheus histogram `name` (cumulative le buckets), as
/// the upper bound of the bucket holding it.
double prometheus_quantile(const std::string& text, const std::string& name,
                           double q) {
  std::vector<std::pair<double, double>> buckets;  // (le, cumulative)
  std::istringstream in(text);
  std::string line;
  const std::string prefix = name + "_bucket{le=\"";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    const std::size_t end = line.find('"', prefix.size());
    const std::string le = line.substr(prefix.size(), end - prefix.size());
    if (le == "+Inf") continue;
    buckets.emplace_back(std::stod(le),
                         std::stod(line.substr(line.rfind(' ') + 1)));
  }
  if (buckets.empty() || buckets.back().second <= 0) return 0;
  const double rank = q * buckets.back().second;
  for (const auto& [le, cum] : buckets) {
    if (cum >= rank) return le;
  }
  return buckets.back().first;
}

// ---------------------------------------------------------------------------
// Measurement

struct Totals {
  Failures failures;
  std::uint64_t attempted = 0;

  void add(const LoadGen& gen, const Plan& plan) {
    failures += gen.failures();
    attempted += plan.sessions.size();
  }
};

/// One offered rate's verdict latencies and the checks that decide whether
/// it counts on the ladder.
struct Step {
  std::string name;
  double rate = 0;
  double realized_rate = 0;  ///< sessions scheduled / arrival window
  double lifetime_s = 0;
  std::size_t sessions = 0;
  std::size_t steady = 0;    ///< verdicts due in the steady window
  double p50_ms = 0;
  Tail tail;                 ///< median over buckets; percentile per bucket
  int buckets = 1;
  PhaseResult r;
  std::uint64_t idle_rss_kb = 0;
  TaskCpu server_cpu;
  double start_s = 0;  ///< the step's server: launch to listening line
  double stop_s = 0;   ///< and SIGTERM to exit
  bool valid = true;
  bool pass = false;
};

/// Latency is judged on the verdicts whose FINISH fell due in the plan's
/// steady window, summarised per bucket of at least kBucketSamples of them,
/// consecutive in due time, then by the median over the buckets: a
/// scheduling hiccup of the shared host then moves a few buckets, not the
/// step. Each bucket's tail is its 99th percentile, the highest with ten
/// samples beyond it.
constexpr int kMaxBuckets = 64;
constexpr double kBucketSamples = 1000;

void judge(Step& s, const Plan& plan, std::uint64_t failed) {
  const auto& lat = s.r.latency_ms;
  const auto& due = s.r.due_s;
  const double from = static_cast<double>(plan.steady_begin_ns) / 1e9;
  const double to = static_cast<double>(plan.steady_end_ns) / 1e9;
  // Equal-count buckets of the steady verdicts in order of due time; every
  // verdict when the window has none (a short restart cycle).
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < lat.size(); ++i) {
    if (due[i] >= from && due[i] <= to) order.push_back(i);
  }
  if (order.empty()) {
    for (std::size_t i = 0; i < lat.size(); ++i) order.push_back(i);
  }
  s.steady = order.size();
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return due[a] < due[b]; });
  const int n_buckets = std::clamp(
      static_cast<int>(static_cast<double>(order.size()) / kBucketSamples), 1,
      kMaxBuckets);
  std::vector<std::vector<double>> buckets(n_buckets);
  for (std::size_t r = 0; r < order.size(); ++r) {
    buckets[r * n_buckets / order.size()].push_back(lat[order[r]]);
  }
  s.buckets = n_buckets;
  std::vector<double> p50s, tails;
  for (const auto& b : buckets) {
    if (b.empty()) continue;
    p50s.push_back(median(b));
    const Tail t = tail_of(b);
    tails.push_back(t.value);
    s.tail.percentile = t.percentile;
    s.tail.samples = std::min(s.tail.samples == 0 ? t.samples : s.tail.samples,
                              t.samples);
  }
  s.p50_ms = median(p50s);
  s.tail.value = median(tails);
  std::vector<double> lag = s.r.lag_ms;
  std::sort(lag.begin(), lag.end());
  const double lag_p99 = quantile_sorted(lag, 0.99);
  const double lag_max = lag.empty() ? 0 : lag.back();
  const double cpu_share = s.r.wall_s > 0 ? s.r.gen_busy_s / s.r.wall_s : 0;
  // The generator fell behind its own schedule, or ran out of CPU: the step
  // measured the generator, not the server, and may not count on the
  // ladder. Lateness small against the tail limit is scheduling jitter; it
  // is charged to the server's latency anyway, since latency runs from the
  // due time.
  s.valid = lag_p99 <= 0.1 * kTailLimitMs && cpu_share <= 0.9;
  s.pass = s.valid && failed == 0 && !s.r.backlog_grew &&
           s.tail.value <= kTailLimitMs;
  std::printf(
      "perfbench: step %s rate=%g/s lifetime=%g s window=%g s sessions=%zu "
      "verdicts=%zu steady=%zu p50=%.4f ms "
      "tail=p%g:%.4f ms (%d buckets of >=%zu) backlog=%.1f->%.1f%s "
      "lag_p50=%.4f ms lag_p99=%.3f ms lag_max=%.3f ms loadgen_busy=%.3f "
      "peak_open=%llu peak_rss_kb=%llu "
      "server_loop_cpu=%.3f server_pool_cpu=%.3f server_cpu_us/session=%.2f "
      "failed=%llu valid=%s "
      "pass=%s\n",
      s.name.c_str(), s.rate, s.lifetime_s, plan.window_s, s.sessions,
      s.r.latency_ms.size(), s.steady, s.p50_ms,
      s.tail.percentile, s.tail.value, s.buckets, s.tail.samples,
      s.r.backlog_early, s.r.backlog_late, s.r.backlog_grew ? " (grows)" : "",
      median(s.r.lag_ms), lag_p99, lag_max, cpu_share,
      static_cast<unsigned long long>(s.r.peak_open),
      static_cast<unsigned long long>(s.r.peak_rss_kb),
      s.server_cpu.main_s / std::max(1e-9, s.r.wall_s),
      s.server_cpu.others_s / std::max(1e-9, s.r.wall_s),
      (s.server_cpu.main_s + s.server_cpu.others_s) * 1e6 /
          std::max<double>(1, static_cast<double>(s.sessions)),
      static_cast<unsigned long long>(failed), s.valid ? "yes" : "NO",
      s.pass ? "yes" : "no");
}

class Bench {
 public:
  explicit Bench(const Args& a)
      : a_(a),
        p_(a.params),
        in_(a.params, a.seed),
        server_{a.server, a.params.kind, a.params.durable,
                a.params.durable ? a.preload : std::string()} {
    std::printf("perfbench: reference direct runs cpu_us/session=%.3f "
                "(a probe of the host's speed)\n",
                in_.reference_cpu_s * 1e6);
  }

  int run_untraced();
  int run_traced();

 private:
  std::string dir(const std::string& leaf) const {
    return a_.work_dir + "/" + leaf;
  }
  std::uint64_t step_seed(unsigned i) const {
    return a_.seed * 1'000'003ULL + i * 7919ULL + 17;
  }

  /// A timed open-loop window at `rate` on a fresh server, of sessions
  /// living `lifetime` seconds.
  Step wire_step(const std::string& name, double rate, double window,
                 double lifetime, unsigned index, std::string* stats = nullptr,
                 std::string* metrics = nullptr, ProcIo* io = nullptr);
  /// A persist/restart cycle of kCycleSessions sessions at `rate`.
  struct Cycle {
    Step step;
    double drain_s = 0;
    double recover_s = 0;
    double server_cpu_s = 0;  ///< both servers, launch to exit
    /// Both servers while the open and the resume phase ran: no start-up,
    /// persist or recovery.
    double phase_cpu_s = 0;
    double gen_busy_s = 0;
    ProcIo drain_io;
    std::size_t spill_files = 0;
    std::uint64_t manifest_bytes = 0;
    std::string stats;    ///< STATS and METRICS of the relaunched server
    std::string metrics;
  };
  Cycle restart_cycle(const std::string& name, double rate, unsigned index);

  /// Launch, stop and relaunch an idle server `n` times.
  void setup_samples(unsigned n);
  std::vector<double> setup_, drain_, recover_;
  /// Prints the failure tally, `reported` by name, and `metrics` by name
  /// and as the closing JSON line.
  int finish(const std::vector<Metric>& metrics,
             const std::vector<Metric>& reported = {});

  const Args& a_;
  const Params& p_;
  Inputs in_;
  ServerSpec server_;
  Totals totals_;
  std::pair<double, double> steal0_ = cpu_steal_jiffies();
};

void Bench::setup_samples(unsigned n) {
  for (unsigned i = 0; i < n; ++i) {
    const std::string d = fresh_dir(dir("setup"));
    const auto first = launch(server_, d);
    setup_.push_back(first->startup_s());
    drain_.push_back(first->stop().seconds);
    const auto again = launch(server_, d);
    recover_.push_back(again->startup_s());
    again->stop();
  }
}

Step Bench::wire_step(const std::string& name, double rate, double window,
                      double lifetime, unsigned index, std::string* stats,
                      std::string* metrics, ProcIo* io) {
  const Plan plan =
      make_plan(p_, in_, rate, window, lifetime, 0, false, step_seed(index));
  Step s;
  s.name = name;
  s.rate = rate;
  s.lifetime_s = lifetime;
  s.sessions = plan.sessions.size();
  s.realized_rate = static_cast<double>(plan.sessions.size()) / plan.window_s;
  const auto server = launch(server_, fresh_dir(dir("wire")));
  ServerProcess& srv = *server;
  LoadGen gen(plan, in_);
  if (gen.connect(srv.port())) {
    s.idle_rss_kb = srv.rss_kb();
    const TaskCpu cpu0 = srv.cpu();
    s.r = gen.run_phase(0, true, &srv, nullptr);
    s.server_cpu = srv.cpu().since(cpu0);
    if (stats != nullptr) *stats = gen.request_text(wire::FrameType::kStats);
    if (metrics != nullptr) {
      *metrics = gen.request_text(wire::FrameType::kMetrics);
    }
    if (io != nullptr) *io = srv.io();
  }
  gen.close();
  s.start_s = srv.startup_s();
  s.stop_s = srv.stop().seconds;
  totals_.add(gen, plan);
  judge(s, plan, gen.failures().total());
  return s;
}

Bench::Cycle Bench::restart_cycle(const std::string& name, double rate,
                                  unsigned index) {
  const Plan plan = make_plan(p_, in_, rate, 0, p_.lifetime_s,
                              kCycleSessions, true, step_seed(index));
  Cycle c;
  c.step.name = name;
  c.step.rate = rate;
  c.step.lifetime_s = p_.lifetime_s;
  c.step.sessions = plan.sessions.size();
  c.step.realized_rate =
      static_cast<double>(plan.sessions.size()) / plan.window_s;
  // A new directory per cycle: unlinking the last cycle's 10^4 spill files
  // just before this one would leave the filesystem busy during its persist.
  // The run's directories are removed when it ends.
  const std::string d = fresh_dir(dir("durable") + "/" + name);
  // Start every cycle with nothing left to write back from the last one, so
  // the persist below does not compete with an earlier cycle's writeback.
  if (const int fd = ::open(d.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
      fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
  LoadGen gen(plan, in_);
  PhaseResult opened;
  {
    const auto server = launch(server_, d);
    ServerProcess& a = *server;
    if (gen.connect(a.port())) {
      c.step.idle_rss_kb = a.rss_kb();
      const TaskCpu cpu0 = a.cpu();
      opened = gen.run_phase(0, true, &a, nullptr);
      gen.settle();  // every FEED has reached the service
      const TaskCpu used = a.cpu().since(cpu0);
      c.phase_cpu_s += used.main_s + used.others_s;
    }
    const auto exit = a.stop();
    gen.close();
    c.drain_s = exit.seconds;
    c.drain_io = exit.io;
    c.server_cpu_s += exit.cpu_s;
  }
  for (const auto& e : std::filesystem::directory_iterator(d)) {
    const std::string f = e.path().filename().string();
    if (f.rfind("qols-session-", 0) == 0) ++c.spill_files;
    if (f == "qols-manifest.journal") c.manifest_bytes = e.file_size();
  }
  {
    const auto server = launch(server_, d);
    ServerProcess& b = *server;
    c.recover_s = b.startup_s();
    if (gen.connect(b.port())) {
      const TaskCpu cpu0 = b.cpu();
      c.step.r = gen.run_phase(1, true, &b, nullptr);
      c.step.server_cpu = b.cpu().since(cpu0);
      c.phase_cpu_s += c.step.server_cpu.main_s + c.step.server_cpu.others_s;
      c.stats = gen.request_text(wire::FrameType::kStats);
      c.metrics = gen.request_text(wire::FrameType::kMetrics);
    }
    gen.close();
    c.server_cpu_s += b.stop().cpu_s;
  }
  // Memory is charged at the peak of the open phase: every session open.
  c.step.r.peak_open = opened.peak_open;
  c.step.r.peak_rss_kb = opened.peak_rss_kb;
  c.gen_busy_s = opened.gen_busy_s + c.step.r.gen_busy_s;
  // The generator's self-check covers both phases.
  c.step.r.lag_ms.insert(c.step.r.lag_ms.end(), opened.lag_ms.begin(),
                         opened.lag_ms.end());
  totals_.add(gen, plan);
  judge(c.step, plan, gen.failures().total());
  std::printf("perfbench: restart %s drain_s=%.4f recover_s=%.4f "
              "spill_files=%zu manifest_bytes=%llu\n",
              name.c_str(), c.drain_s, c.recover_s, c.spill_files,
              static_cast<unsigned long long>(c.manifest_bytes));
  return c;
}

int Bench::finish(const std::vector<Metric>& metrics,
                  const std::vector<Metric>& reported) {
  const auto [steal, total] = cpu_steal_jiffies();
  // CPU time the hypervisor gave to other guests while this run wanted it:
  // runs with a high share were measured on a crowded host.
  std::printf("perfbench: host steal_share=%.4f during the run\n",
              (steal - steal0_.first) /
                  std::max(1.0, total - steal0_.second));
  const Failures& f = totals_.failures;
  std::printf("perfbench: failures mismatch=%llu\n",
              static_cast<unsigned long long>(f.mismatch));
  std::printf("perfbench: failures error_frame=%llu\n",
              static_cast<unsigned long long>(f.error_frame));
  std::printf("perfbench: failures missing_verdict=%llu\n",
              static_cast<unsigned long long>(f.missing));
  std::printf("perfbench: failures refused_connection=%llu\n",
              static_cast<unsigned long long>(f.refused));
  const double share = totals_.attempted > 0
                           ? static_cast<double>(f.total()) /
                                 static_cast<double>(totals_.attempted)
                           : 0;
  std::printf("perfbench: failed_share = %s (%llu of %llu sessions)\n",
              fmt(share).c_str(), static_cast<unsigned long long>(f.total()),
              static_cast<unsigned long long>(totals_.attempted));
  const bool correct = f.mismatch == 0;
  for (const auto& m : reported) {
    std::printf("perfbench: metric %s = %s %s\n", m.name.c_str(),
                fmt(m.value).c_str(), m.unit.c_str());
  }
  print_result(correct, totals_.attempted, f.total(), metrics);
  return correct ? 0 : 1;
}

double rss_per_session(const Step& s) {
  if (s.r.peak_open == 0) return 0;
  const double rise = static_cast<double>(s.r.peak_rss_kb) -
                      static_cast<double>(s.idle_rss_kb);
  return std::max(0.0, rise) / static_cast<double>(s.r.peak_open);
}

void print_tail(const char* metric, const Step& s) {
  std::printf("perfbench: tail %s percentile=p%g samples=%zu "
              "(median of %d buckets of >=%zu samples each)\n",
              metric, s.tail.percentile, s.steady, s.buckets, s.tail.samples);
}

/// Server CPU microseconds per session, from (CPU seconds, sessions) pairs.
double cpu_us_per_session(
    const std::vector<std::pair<double, std::size_t>>& cpu_and_sessions) {
  double cpu = 0, sessions = 0;
  for (const auto& [c, n] : cpu_and_sessions) {
    cpu += c;
    sessions += static_cast<double>(n);
  }
  return sessions > 0 ? cpu * 1e6 / sessions : 0;
}

int Bench::run_untraced() {
  // The idle cycles are spread over the run, a third before each of the
  // first two steps and a third after them, so that they meet the host in
  // more than one state.
  const unsigned cycles = kSetupCycles / 3;
  setup_samples(cycles);

  std::vector<Step> ladder;
  double rss_kb = 0, cpu_us = 0;
  double drain_s = 0, recover_s = 0;
  if (p_.durable) {
    const Cycle low = restart_cycle("low", p_.rate_low, 0);
    setup_samples(cycles);
    const Cycle high = restart_cycle("high", p_.rate_high, 1);
    setup_samples(cycles);
    ladder = {low.step, high.step};
    drain_s = median({low.drain_s, high.drain_s});
    recover_s = median({low.recover_s, high.recover_s});
    rss_kb = rss_per_session(high.step);
    // Serving only, as on the wire workloads: persisting and recovering
    // spend most of their CPU in the filesystem, whose cost on a shared
    // disk swung 0.45-4.8 s per persist; drain_s and recover_s show them.
    cpu_us = cpu_us_per_session({{low.phase_cpu_s, low.step.sessions},
                                 {high.phase_cpu_s, high.step.sessions}});
  } else {
    ladder.push_back(wire_step("low", p_.rate_low, a_.seconds * p_.low_share,
                               p_.lifetime_s, 0));
    setup_samples(cycles);
    ladder.push_back(wire_step("high", p_.rate_high,
                               a_.seconds * p_.high_share, p_.lifetime_s, 1));
    setup_samples(cycles);
    // A wire server stops and restarts idle, in under a millisecond and a
    // few milliseconds, and host noise only ever adds to that: its drain_s
    // and recover_s are the fastest of the idle cycles.
    drain_s = *std::min_element(drain_.begin(), drain_.end());
    recover_s = *std::min_element(recover_.begin(), recover_.end());
    rss_kb = rss_per_session(ladder.back());
    const auto busy = [](const Step& s) {
      return std::pair{s.server_cpu.main_s + s.server_cpu.others_s,
                       s.sessions};
    };
    cpu_us = cpu_us_per_session({busy(ladder[0]), busy(ladder[1])});
    if (ladder.back().pass) {
      for (std::size_t i = 0; i < p_.ladder.size(); ++i) {
        ladder.push_back(wire_step("rung" + std::to_string(i + 1), p_.ladder[i],
                                   a_.seconds * kRungShare, kRungLifetimeS,
                                   static_cast<unsigned>(i + 2)));
        if (!ladder.back().pass) break;
      }
    }
  }
  const Step& low = ladder[0];
  const Step& high = ladder[1];
  print_tail("verdict_tail_ms.low", low);
  print_tail("verdict_tail_ms.high", high);
  std::vector<Metric> reported = {
      {"verdict_p50_ms.low", low.p50_ms, "ms"},
      {"verdict_tail_ms.low", low.tail.value, "ms"},
      {"verdict_p50_ms.high", high.p50_ms, "ms"},
      {"verdict_tail_ms.high", high.tail.value, "ms"},
      {"drain_s", drain_s, "s"},
      {"recover_s", recover_s, "s"}};
  if (p_.durable) {
    std::printf("perfbench: max_sessions_per_s not measured: each rung of "
                "this workload would be a persist/restart cycle\n");
  } else {
    // The highest rate that met the limit: walking up from `high` until the
    // first miss, or `low` when `high` missed.
    double max_rate = 0;
    for (std::size_t i = 1; i < ladder.size() && ladder[i].pass; ++i) {
      max_rate = ladder[i].realized_rate;
    }
    if (max_rate == 0 && low.pass) max_rate = low.realized_rate;
    if (ladder.size() == 2 + p_.ladder.size() && ladder.back().pass) {
      std::printf("perfbench: every rung passed: max_sessions_per_s is the "
                  "ladder's top, not the server's capacity\n");
    }
    reported.push_back({"max_sessions_per_s", max_rate, "1/s"});
  }
  // Verdict latency, capacity and the stop/restart times are printed but
  // left out of the JSON line: on a shared host their run-to-run spread
  // (IQR/median over 10 seeds) was too wide for a bound to mean anything.
  return finish({{"setup_s", median(setup_), "s"},
                 {"server_rss_kb_per_session", rss_kb, "kB"},
                 {"server_cpu_us_per_session", cpu_us, "us"}},
                reported);
}

int Bench::run_traced() {
  // The served run the ledger is checked against, with tracing off.
  Step served;
  std::string stats, metrics;
  ProcIo io;
  double full_cpu_s = 0;
  std::size_t spill_files = 0;
  std::uint64_t manifest_bytes = 0;
  double sessions = 0;
  double drain_s = 0, recover_s = 0;
  if (p_.durable) {
    const Cycle c = restart_cycle("served", p_.rate_low, 0);
    served = c.step;
    drain_s = c.drain_s;
    recover_s = c.recover_s;
    stats = c.stats;
    metrics = c.metrics;
    io = c.drain_io;
    spill_files = c.spill_files;
    manifest_bytes = c.manifest_bytes;
    full_cpu_s = c.server_cpu_s + c.gen_busy_s;
    sessions = static_cast<double>(c.step.sessions);
  } else {
    served = wire_step("served", p_.rate_high, a_.seconds * p_.high_share,
                       p_.lifetime_s, 1, &stats, &metrics, &io);
    sessions = static_cast<double>(served.sessions);
    full_cpu_s = served.server_cpu.main_s + served.server_cpu.others_s +
                 served.r.gen_busy_s;
    drain_s = served.stop_s;
    recover_s = served.start_s;
  }
  const TaskCpu& cpu = served.server_cpu;

  SpanLog spans;
  const Plan replay =
      make_plan(p_, in_, p_.rate_high, 0, p_.lifetime_s, p_.replay_sessions,
                p_.durable, step_seed(90));
  const LedgerResult l =
      run_ledger(p_, in_, replay, server_, dir("ledger"), spans);
  const std::string span_file =
      dir("spans-" + a_.workload + ".csv");
  if (!spans.write_csv(span_file)) {
    std::fprintf(stderr, "perfbench: could not write %s\n", span_file.c_str());
  }

  const double full = full_cpu_s / sessions;
  const double frames_per_session =
      static_cast<double>(l.client_frames) / static_cast<double>(l.sessions);
  const double symbols_per_session =
      static_cast<double>(l.symbols) / static_cast<double>(l.sessions);
  const double* c = l.cpu_per_session;
  const double residual = (full - c[3]) / full;
  std::printf("perfbench: ledger sessions=%zu frames/session=%.2f "
              "symbols/session=%.1f verdicts_equal=%s\n",
              l.sessions, frames_per_session, symbols_per_session,
              l.verdicts_equal ? "yes" : "NO");
  const char* names[] = {"L1 recognizer", "L2 +service", "L3 +wire+broker",
                         "L4 +server"};
  for (int i = 0; i < 4; ++i) {
    std::printf("perfbench: ledger %-16s cpu_us/session=%.3f "
                "marginal_us=%.3f\n",
                names[i], c[i] * 1e6, (i == 0 ? c[0] : c[i] - c[i - 1]) * 1e6);
  }
  std::printf("perfbench: ledger served (untraced) cpu_us/session=%.3f "
              "sum_of_marginals=%.3f residual_share=%.4f %s\n",
              full * 1e6, c[3] * 1e6, residual,
              std::abs(residual) <= 0.10 ? "(within 10%)" : "(OUTSIDE 10%)");
  std::printf("perfbench: ledger L1..L4 with spans vs without "
              "trace_overhead_share=%.4f\n",
              l.trace_overhead_share);
  std::printf("perfbench: spans written to %s\n", span_file.c_str());

  std::vector<double> lag = served.r.lag_ms;
  std::sort(lag.begin(), lag.end());
  const double wall = std::max(1e-9, served.r.wall_s);
  const double pool_threads = std::max(1u, cpu.others);
  const double flushes = number_after(stats, "\"flushes\"");
  const double ingested = number_after(stats, "\"symbols_ingested\"");
  const double per_frame = 1e9 / frames_per_session;
  const auto server_ns = [&](const char* histogram, double q) {
    return prometheus_quantile(metrics, histogram, q);
  };
  const std::vector<Metric> m = {
      {"loadgen.lag_p50_ms", median(served.r.lag_ms), "ms"},
      {"loadgen.lag_max_ms", lag.empty() ? 0 : lag.back(), "ms"},
      {"loadgen.cpu_share", served.r.gen_busy_s / wall, "share"},
      {"server.loop_cpu_share", cpu.main_s / wall, "share"},
      {"server.transport_ns_per_frame", (c[3] - c[2]) * per_frame, "ns"},
      {"server.frames_in_per_session",
       number_after(metrics, "\nqols_server_frames_in ") / sessions, "count"},
      {"server.backpressure_pauses",
       number_after(stats, "\"backpressure_pauses\""), "count"},
      {"server.feed_frame_ns.p50", server_ns("qols_server_feed_frame_ns", 0.50),
       "ns"},
      {"server.feed_frame_ns.p99", server_ns("qols_server_feed_frame_ns", 0.99),
       "ns"},
      {"wire.encode_ns_per_frame", l.encode_ns_per_frame, "ns"},
      {"wire.decode_ns_per_frame", l.decode_ns_per_frame, "ns"},
      {"broker.self_ns_per_frame", (c[2] - c[1]) * per_frame, "ns"},
      {"service.feed_ns_per_symbol",
       (c[1] - c[0]) * 1e9 / symbols_per_session, "ns"},
      {"service.finish_us.p50", l.finish_us_p50, "us"},
      {"service.finish_us.tail", l.finish_us.value, "us"},
      {"service.pool_cpu_share", cpu.others_s / (wall * pool_threads),
       "share"},
      {"service.symbols_per_flush", flushes > 0 ? ingested / flushes : 0,
       "count"},
      {"core.ns_per_symbol", c[0] * 1e9 / symbols_per_session, "ns"},
      {"backend.a3_share", l.a3_share, "share"},
      {"backend.gates_per_session", l.gates_per_session, "count"},
      {"backend.ns_per_gate", l.ns_per_gate, "ns"},
      {"session_table.spill_files", static_cast<double>(spill_files), "count"},
      {"session_table.manifest_bytes", static_cast<double>(manifest_bytes),
       "bytes"},
      {"session_table.write_syscalls_per_session",
       static_cast<double>(io.syscw) / sessions, "count"},
      {"session_table.bytes_written_per_session",
       static_cast<double>(io.wchar) / sessions, "bytes"},
      {"service.spill_bytes_read_per_session",
       number_after(stats, "\"spill_bytes_read\"") / sessions, "bytes"},
      {"service.revives", number_after(stats, "\"revives\""), "count"},
      {"drain_s", drain_s, "s"},
      {"recover_s", recover_s, "s"},
      {"ladder.residual_share", residual, "share"},
      {"trace.overhead_share", l.trace_overhead_share, "share"},
  };
  std::printf("perfbench: tail service.finish_us.tail percentile=p%g "
              "samples=%zu\n",
              l.finish_us.percentile, l.finish_us.samples);
  if (!l.verdicts_equal) {
    std::printf("perfbench: LEDGER VERDICTS DIFFER across L1..L4\n");
    totals_.failures.mismatch += 1;
  }
  return finish(m);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = perfbench::parse(argc, argv);
    args.params.check(args.seconds);
    std::filesystem::create_directories(args.work_dir);
    perfbench::print_fingerprint(args);
    perfbench::Bench bench(args);
    // From here on this thread, which generates the load and spins while it
    // waits on a server, keeps off the servers' CPUs. The thread pool the
    // reference runs started keeps every CPU.
    perfbench::pin_generator_cpu();
    const int rc = args.trace ? bench.run_traced() : bench.run_untraced();
    // Spill directories of the last run are not kept; spans are.
    for (const char* leaf : {"setup", "wire", "durable", "ledger"}) {
      std::filesystem::remove_all(args.work_dir + "/" + leaf);
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
