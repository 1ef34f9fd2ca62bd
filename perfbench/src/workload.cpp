#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "qols/util/rng.hpp"
#include "spans.hpp"

namespace perfbench {

using qols::service::RecognizerKind;
using qols::service::RecognizerService;

bool Params::set(const std::string& key, const std::string& value) {
  const auto num = [&] { return std::stod(value); };
  const auto whole = [&] {
    return static_cast<std::uint64_t>(std::stoull(value));
  };
  if (key == "kind") {
    kind = value;
  } else if (key == "k") {
    k = static_cast<unsigned>(whole());
  } else if (key == "chunk_min") {
    chunk_min = whole();
  } else if (key == "chunk_max") {
    chunk_max = whole();
  } else if (key == "lifetime_s") {
    lifetime_s = num();
  } else if (key == "rate_low") {
    rate_low = num();
  } else if (key == "rate_high") {
    rate_high = num();
  } else if (key == "ladder") {
    ladder.clear();
    std::size_t at = 0;
    while (at < value.size()) {
      const std::size_t comma = value.find(',', at);
      const std::size_t end = comma == std::string::npos ? value.size() : comma;
      ladder.push_back(std::stod(value.substr(at, end - at)));
      at = end + 1;
    }
  } else if (key == "low_share") {
    low_share = num();
  } else if (key == "high_share") {
    high_share = num();
  } else if (key == "durable") {
    durable = value == "1" || value == "true";
  } else if (key == "replay_sessions") {
    replay_sessions = whole();
  } else {
    return false;
  }
  return true;
}

void Params::check(double seconds) const {
  const auto need = [](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(std::string("workload: ") + what);
  };
  need(k > 0 && chunk_min > 0 && chunk_max >= chunk_min,
       "k, chunk_min and chunk_max must be set");
  need(lifetime_s > 0 && rate_low > 0 && rate_high > rate_low,
       "lifetime_s, rate_low and rate_high must be set");
  need(replay_sessions > 0, "replay_sessions must be set");
  if (durable) return;
  const auto long_enough = [&](double share, double life) {
    return share * seconds >= kMinWindowLifetimes * life;
  };
  need(long_enough(low_share, lifetime_s) &&
           long_enough(high_share, lifetime_s),
       "low and high windows must be >= 3 lifetimes");
  need(!ladder.empty(), "ladder must be set");
  need(long_enough(kRungShare, kRungLifetimeS),
       "rung windows must be >= 3 rung lifetimes (--seconds too short)");
}

qols::service::RecognizerSpec Params::spec() const {
  qols::service::RecognizerSpec s;
  if (kind == "classical-block") {
    s.kind = RecognizerKind::kClassicalBlock;
  } else if (kind == "quantum") {
    s.kind = RecognizerKind::kQuantum;
  } else {
    throw std::invalid_argument("unsupported kind " + kind);
  }
  return s;
}

Inputs::Inputs(const Params& params, std::uint64_t seed)
    : words(qols::server::make_load_words(params.k, seed)) {
  qols::util::Rng rng(seed ^ 0x5eed'9001'cafe'f00dULL);
  seed_pool.resize(kDistinctSeeds);
  for (auto& s : seed_pool) s = rng.next();
  RecognizerService::Config cfg;
  cfg.spec = params.spec();
  RecognizerService svc(cfg);
  const double cpu0 = cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID);
  for (unsigned parity = 0; parity < 2; ++parity) {
    for (const std::uint64_t s : seed_pool) {
      const auto id = svc.open(s);
      svc.feed(id, word(parity));
      const auto v = svc.finish(id);
      expected[parity].push_back({v.accepted, v.fully_simulated,
                                  v.space.classical_bits, v.space.qubits});
    }
  }
  reference_cpu_s = (cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID) - cpu0) /
                    (2.0 * static_cast<double>(seed_pool.size()));
}

std::uint64_t Plan::symbols(const Inputs& in) const {
  std::uint64_t n = 0;
  for (const auto& s : sessions) n += in.word(s.parity).size();
  return n;
}

std::span<const qols::stream::Symbol> Plan::chunk(const Inputs& in,
                                                  std::uint32_t session,
                                                  unsigned j) const {
  const SessionSpec& s = sessions[session];
  const std::size_t b = chunk_begin(s, j);
  return {in.word(s.parity).data() + b, chunk_end(s, j) - b};
}

void append_event(std::vector<std::uint8_t>& out, const Plan& plan,
                  const Inputs& in, const Event& e) {
  namespace wire = qols::server::wire;
  const std::uint64_t id = plan.wire_id(e.session);
  switch (e.action) {
    case Action::kOpen:
      wire::append_open(out,
                        {id, in.seed_pool[plan.sessions[e.session].pool]});
      break;
    case Action::kResume:
      wire::append_resume(out, {id});
      break;
    case Action::kFeed:
      wire::append_feed(out, id, plan.chunk(in, e.session, e.chunk));
      break;
    case Action::kFinish:
      wire::append_finish(out, {id});
      break;
  }
}

namespace {

std::uint64_t to_ns(double s) { return static_cast<std::uint64_t>(s * 1e9); }

/// Appends ragged chunk ends covering [begin, end); returns how many.
std::uint16_t cut_range(std::vector<std::uint32_t>& cuts, std::size_t begin,
                        std::size_t end, const Params& p,
                        qols::util::Rng& rng) {
  std::uint16_t n = 0;
  while (begin < end) {
    const std::size_t size =
        p.chunk_min + rng.below(p.chunk_max - p.chunk_min + 1);
    begin = std::min(end, begin + size);
    cuts.push_back(static_cast<std::uint32_t>(begin));
    ++n;
  }
  return n;
}

/// FEED events for chunks [from, to) spread over (start, start + span).
void spread_feeds(std::vector<Event>& out, std::uint32_t session,
                  unsigned from, unsigned to, double start, double span) {
  const unsigned n = to - from;
  for (unsigned j = 0; j < n; ++j) {
    out.push_back({to_ns(start + span * (j + 1) / (n + 1)), session,
                   static_cast<std::uint16_t>(from + j), Action::kFeed});
  }
}

}  // namespace

Plan make_plan(const Params& p, const Inputs& in, double rate, double window_s,
               double lifetime_s, std::uint64_t count, bool restart,
               std::uint64_t seed) {
  Plan plan;
  plan.rate = rate;
  qols::util::Rng rng(seed);
  double t = 0;
  const double life = lifetime_s;
  for (std::uint32_t i = 0;; ++i) {
    t += -std::log1p(-rng.uniform01()) / rate;
    if (count > 0 ? i >= count : t >= window_s) break;
    SessionSpec s;
    s.parity = static_cast<std::uint8_t>(i % 2);
    s.pool = static_cast<std::uint32_t>((i / 2) % in.seed_pool.size());
    s.first_cut = static_cast<std::uint32_t>(plan.cuts.size());
    const std::size_t n = in.word(s.parity).size();
    if (restart) {
      s.split = cut_range(plan.cuts, 0, n / 2, p, rng);
      s.chunks = static_cast<std::uint16_t>(
          s.split + cut_range(plan.cuts, n / 2, n, p, rng));
      plan.phases[0].push_back({to_ns(t), i, 0, Action::kOpen});
      spread_feeds(plan.phases[0], i, 0, s.split, t, life / 2);
      plan.phases[1].push_back({to_ns(t), i, 0, Action::kResume});
      spread_feeds(plan.phases[1], i, s.split, s.chunks, t, life / 2);
      s.finish_due_ns = to_ns(t + life / 2);
      plan.phases[1].push_back({s.finish_due_ns, i, 0, Action::kFinish});
    } else {
      s.chunks = cut_range(plan.cuts, 0, n, p, rng);
      s.split = s.chunks;
      plan.phases[0].push_back({to_ns(t), i, 0, Action::kOpen});
      spread_feeds(plan.phases[0], i, 0, s.chunks, t, life);
      s.finish_due_ns = to_ns(t + life);
      plan.phases[0].push_back({s.finish_due_ns, i, 0, Action::kFinish});
    }
    plan.sessions.push_back(s);
  }
  plan.window_s = count > 0 ? t : window_s;
  // A session's FINISH falls due one phase lifetime after it arrived.
  plan.steady_begin_ns = to_ns(restart ? life / 2 : life);
  plan.steady_end_ns = to_ns(plan.window_s);
  for (auto& phase : plan.phases) {
    std::stable_sort(phase.begin(), phase.end(),
                     [](const Event& a, const Event& b) {
                       return a.due_ns < b.due_ns;
                     });
  }
  return plan;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t idx =
      rank < 1 ? 0
               : std::min(sorted.size() - 1, static_cast<std::size_t>(rank) - 1);
  return sorted[idx];
}

namespace {
constexpr double kPercentiles[] = {99.99, 99.98, 99.95, 99.9, 99.8, 99.5,
                                   99,    98,    95,    90,   75,   50};

bool leaves_ten(double samples, double percentile) {
  return samples * (100.0 - percentile) / 100.0 >= 10.0;
}
}  // namespace

Tail tail_of(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  for (const double p : kPercentiles) {
    if (leaves_ten(static_cast<double>(v.size()), p)) {
      t.percentile = p;
      break;
    }
  }
  std::sort(v.begin(), v.end());
  t.value = quantile_sorted(v, t.percentile / 100.0);
  return t;
}

}  // namespace perfbench
