#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <stdexcept>

namespace perfbench {

namespace wire = qols::server::wire;
using wire::FrameType;

namespace {

/// Replay flow control: stop queueing on a connection above this backlog.
constexpr std::size_t kReplayQueueCap = std::size_t{1} << 20;

}  // namespace

struct LoadGen::Conn {
  int fd = -1;
  std::vector<std::uint8_t> out;
  std::size_t out_pos = 0;
  wire::FrameDecoder dec;
  bool eof = false;

  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
  std::size_t pending() const { return out.size() - out_pos; }

  void send_some() {
    while (pending() > 0) {
      const ssize_t n =
          ::send(fd, out.data() + out_pos, pending(), MSG_NOSIGNAL);
      if (n > 0) {
        out_pos += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      // The peer is gone; what is left can never be delivered.
      out.clear();
      out_pos = 0;
      return;
    }
    if (out_pos == out.size()) {
      out.clear();
      out_pos = 0;
    } else if (out_pos > (std::size_t{1} << 20)) {
      out.erase(out.begin(),
                out.begin() + static_cast<std::ptrdiff_t>(out_pos));
      out_pos = 0;
    }
  }
};

LoadGen::LoadGen(const Plan& plan, const Inputs& inputs)
    : plan_(plan),
      in_(inputs),
      state_(plan.sessions.size(), kPending),
      verdicts_(plan.sessions.size()) {
  for (unsigned i = 0; i < kConnections; ++i) {
    conns_.push_back(std::make_unique<Conn>());
  }
}

LoadGen::~LoadGen() = default;

void LoadGen::fail(std::uint32_t session, std::uint64_t Failures::*kind) {
  if (state_[session] != kPending) return;
  state_[session] = kFailed;
  ++(failures_.*kind);
}

bool LoadGen::connect(std::uint16_t port) {
  for (auto& c : conns_) c = std::make_unique<Conn>();
  for (auto& c : conns_) {
    c->fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (c->fd < 0 || ::connect(c->fd, reinterpret_cast<const sockaddr*>(&addr),
                               sizeof(addr)) != 0) {
      for (std::uint32_t s = 0; s < state_.size(); ++s) {
        fail(s, &Failures::refused);
      }
      return false;
    }
    const int one = 1;
    ::setsockopt(c->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(c->fd, F_SETFL, ::fcntl(c->fd, F_GETFL, 0) | O_NONBLOCK);
    wire::append_hello(c->out, {wire::kProtocolVersion, wire::kAnyKind});
  }
  const std::uint64_t want = hellos_ + conns_.size();
  wait_for([&] { return hellos_ >= want; });
  return true;
}

void LoadGen::close() {
  for (auto& c : conns_) {
    if (c->fd >= 0) ::close(c->fd);
    c->fd = -1;
  }
}

void LoadGen::send_all() {
  for (auto& c : conns_) {
    if (c->fd >= 0 && !c->eof && c->pending() > 0) c->send_some();
  }
}

template <class Done>
void LoadGen::wait_for(Done done) {
  const std::uint64_t start = now_ns();
  while (!done()) {
    send_all();
    std::vector<pollfd> fds;
    for (auto& c : conns_) {
      fds.push_back({c->fd, static_cast<short>(
                                POLLIN | (c->pending() > 0 ? POLLOUT : 0)),
                     0});
    }
    ::poll(fds.data(), fds.size(), 10);
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        receive(*conns_[i], now_ns(), 0);
      }
    }
    if (now_ns() - start > 30'000'000'000ULL) {
      throw std::runtime_error("no reply from qols_server within 30 s");
    }
  }
}

std::string LoadGen::request_text(FrameType type) {
  wire::append_frame(conns_[0]->out, type, {});
  const std::uint64_t want = texts_ + 1;
  wait_for([&] { return texts_ >= want; });
  return last_text_;
}

void LoadGen::settle() {
  for (auto& c : conns_) wire::append_frame(c->out, FrameType::kStats, {});
  const std::uint64_t want = texts_ + conns_.size();
  wait_for([&] { return texts_ >= want; });
}

void LoadGen::emit(const Event& e, SpanLog* spans, std::uint32_t span_name) {
  Conn& c = *conns_[e.session % conns_.size()];
  const std::uint64_t t0 = spans != nullptr ? now_ns() : 0;
  append_event(c.out, plan_, in_, e);
  if (spans != nullptr) spans->add(span_name, e.session, t0, now_ns());
}

bool LoadGen::receive(Conn& c, std::uint64_t now, std::uint64_t phase_start) {
  static thread_local std::vector<std::uint8_t> buf(std::size_t{1} << 18);
  for (;;) {
    const ssize_t n = ::recv(c.fd, buf.data(), buf.size(), 0);
    if (n > 0) {
      c.dec.append({buf.data(), static_cast<std::size_t>(n)});
      while (auto f = c.dec.next()) handle(*f, now, phase_start);
      continue;
    }
    if (n == 0) {
      c.eof = true;
      return false;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    c.eof = true;
    return false;
  }
}

void LoadGen::handle(const wire::Frame& f, std::uint64_t now,
                     std::uint64_t phase_start) {
  const auto session_of = [&](std::uint64_t id) -> std::int64_t {
    if (id < plan_.id_base || id - plan_.id_base >= plan_.sessions.size()) {
      return -1;
    }
    return static_cast<std::int64_t>(id - plan_.id_base);
  };
  switch (f.type) {
    case FrameType::kHelloOk:
      ++hellos_;
      return;
    case FrameType::kOpenOk:
    case FrameType::kResumeOk:
      ++acks_;
      return;
    case FrameType::kStatsText:
    case FrameType::kMetricsText:
      last_text_ = wire::read_text(f.payload);
      ++texts_;
      return;
    case FrameType::kVerdict: {
      const auto v = wire::read_verdict(f.payload);
      const auto s = session_of(v.session);
      if (s < 0 || state_[s] != kPending) return;
      const SessionSpec& spec = plan_.sessions[s];
      verdicts_[s] = v;
      ++decided_;
      if (!in_.expected[spec.parity][spec.pool].matches(v)) {
        fail(static_cast<std::uint32_t>(s), &Failures::mismatch);
        return;
      }
      state_[s] = kDecided;
      if (collect_latency_ && result_ != nullptr) {
        const double due =
            static_cast<double>(phase_start + spec.finish_due_ns);
        result_->latency_ms.push_back((static_cast<double>(now) - due) / 1e6);
        result_->due_s.push_back(static_cast<double>(spec.finish_due_ns) / 1e9);
      }
      return;
    }
    case FrameType::kError: {
      const auto e = wire::read_error(f.payload);
      const auto s = session_of(e.session);
      if (s >= 0 && state_[s] == kPending) {
        fail(static_cast<std::uint32_t>(s), &Failures::error_frame);
        ++decided_;
        ++acks_;
      } else if (s < 0) {
        ++failures_.error_frame;
      }
      return;
    }
    default:
      ++failures_.error_frame;  // a client frame type from the server
      return;
  }
}

PhaseResult LoadGen::run_phase(unsigned phase, bool paced,
                               const ServerProcess* server, SpanLog* spans) {
  PhaseResult r;
  const auto& events = plan_.phases[phase];
  const std::uint32_t span_name =
      spans != nullptr ? spans->name("loadgen.encode") : 0;
  // Sessions whose FINISH falls in this phase, by due time (the backlog).
  std::vector<std::uint64_t> finish_dues;
  std::uint64_t want_acks = 0;
  for (const auto& e : events) {
    if (e.action == Action::kFinish && state_[e.session] == kPending) {
      finish_dues.push_back(e.due_ns);
    }
    if (e.action == Action::kOpen || e.action == Action::kResume) ++want_acks;
  }
  const std::uint64_t last_due = events.empty() ? 0 : events.back().due_ns;
  const std::uint64_t deadline = last_due + (paced ? 20'000'000'000ULL
                                                   : 120'000'000'000ULL);

  // Growing these mid-phase would copy megabytes inside the timed loop.
  if (paced) {
    r.lag_ms.reserve(events.size());
    r.latency_ms.reserve(finish_dues.size());
    r.due_s.reserve(finish_dues.size());
  }
  decided_ = 0;
  acks_ = 0;
  collect_latency_ = paced;
  result_ = &r;
  std::vector<std::pair<std::uint64_t, double>> backlog;
  std::size_t cursor = 0;
  std::size_t due_seen = 0;
  std::uint64_t opened = 0;
  std::uint64_t next_sample = 0;
  std::vector<pollfd> fds(conns_.size());

  const std::uint64_t start = now_ns();
  std::uint64_t busy_ns = 0;
  for (;;) {
    const std::uint64_t iteration = now_ns();
    std::uint64_t now = iteration - start;
    const std::size_t cursor_before = cursor;
    bool received = false;
    bool blocked = false;
    while (cursor < events.size()) {
      const Event& e = events[cursor];
      if (paced && e.due_ns > now) break;
      if (!paced && conns_[e.session % conns_.size()]->pending() >
                        kReplayQueueCap) {
        blocked = true;
        break;
      }
      if (state_[e.session] == kPending) {
        emit(e, spans, span_name);
        if (e.action == Action::kOpen || e.action == Action::kResume) ++opened;
      } else if (e.action == Action::kOpen || e.action == Action::kResume) {
        ++acks_;  // nothing to send for a session that already failed
      }
      if (paced) r.lag_ms.push_back(static_cast<double>(now - e.due_ns) / 1e6);
      ++cursor;
    }
    send_all();

    if (paced && now >= next_sample) {
      while (due_seen < finish_dues.size() && finish_dues[due_seen] <= now) {
        ++due_seen;
      }
      backlog.emplace_back(
          now, static_cast<double>(due_seen -
                                   std::min<std::uint64_t>(decided_, due_seen)));
      r.peak_open = std::max<std::uint64_t>(
          r.peak_open, opened > decided_ ? opened - decided_ : 0);
      next_sample = now + 10'000'000;
      if (server != nullptr) {
        r.peak_rss_kb = std::max(r.peak_rss_kb, server->rss_kb());
      }
    }

    bool all_eof = true;
    for (auto& c : conns_) all_eof = all_eof && c->eof;
    const bool done = cursor == events.size() &&
                      decided_ >= finish_dues.size() && acks_ >= want_acks;
    if (done || all_eof || now > deadline) break;

    std::uint64_t wait_ns = 5'000'000;
    if (cursor < events.size() && !blocked) {
      wait_ns = paced ? std::min<std::uint64_t>(
                            wait_ns, events[cursor].due_ns > now
                                         ? events[cursor].due_ns - now
                                         : 0)
                      : 0;
    }
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      fds[i] = {conns_[i]->eof ? -1 : conns_[i]->fd,
                static_cast<short>(POLLIN |
                                   (conns_[i]->pending() > 0 ? POLLOUT : 0)),
                0};
    }
    if (paced) wait_ns = 0;
    const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000ULL),
                      static_cast<long>(wait_ns % 1'000'000'000ULL)};
    ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    now = now_ns();
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        receive(*conns_[i], now, start);
        received = true;
      }
    }
    if (received || cursor != cursor_before) busy_ns += now_ns() - iteration;
  }
  r.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  r.gen_busy_s = static_cast<double>(busy_ns) / 1e9;
  result_ = nullptr;

  // Sessions still undecided at the deadline never got a verdict.
  for (const auto& e : events) {
    if (e.action == Action::kFinish) fail(e.session, &Failures::missing);
  }

  // Backlog growth: compare the first and last quarters of the steady
  // window, where arrivals and FINISH frames both run at the full rate.
  const std::uint64_t lo = plan_.steady_begin_ns;
  const std::uint64_t hi = plan_.steady_end_ns;
  if (paced && hi > lo) {
    const double span = static_cast<double>(hi - lo);
    const auto mean_in = [&](double from, double to) {
      double sum = 0;
      std::size_t n = 0;
      for (const auto& [t, v] : backlog) {
        const double x = t < lo ? -1 : static_cast<double>(t - lo) / span;
        if (x >= from && x < to) {
          sum += v;
          ++n;
        }
      }
      return n > 0 ? sum / static_cast<double>(n) : 0.0;
    };
    r.backlog_early = mean_in(0.0, 0.25);
    r.backlog_late = mean_in(0.75, 1.0);
    // Slack: 5 ms worth of arrivals, so a flat backlog of a few sessions
    // never reads as growth.
    r.backlog_grew =
        r.backlog_late > 2.0 * r.backlog_early + plan_.rate * 0.005;
  }
  return r;
}

}  // namespace perfbench
