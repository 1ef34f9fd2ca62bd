#include "ledger.hpp"

#include <memory>
#include <stdexcept>

#include "loadgen.hpp"
#include "qols/core/grover_streamer.hpp"
#include "qols/core/quantum_recognizer.hpp"
#include "qols/server/session_broker.hpp"
#include "qols/service/recognizer_service.hpp"
#include "qols/util/rng.hpp"

namespace perfbench {

namespace wire = qols::server::wire;
using qols::service::RecognizerService;

namespace {

double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }

/// Span name `n`, or 0 when not tracing.
std::uint32_t span_name(SpanLog* spans, const char* n) {
  return spans != nullptr ? spans->name(n) : 0;
}

/// Runs `f`, recorded as span `name` of `request` when tracing.
template <class F>
void traced(SpanLog* spans, std::uint32_t name, std::uint64_t request, F&& f) {
  if (spans == nullptr) {
    f();
    return;
  }
  const std::uint64_t t0 = now_ns();
  f();
  spans->add(name, request, t0, now_ns());
}


/// The server's recv() size: L3 hands the broker bytes in pieces this big.
constexpr std::size_t kIngestBytes = std::size_t{1} << 16;
constexpr std::size_t kOutBudget = std::size_t{1} << 20;

struct Level {
  double cpu_s = 0;
  std::vector<Expected> verdicts;
};

Expected from_service(const RecognizerService::Verdict& v) {
  return {v.accepted, v.fully_simulated, v.space.classical_bits,
          v.space.qubits};
}

RecognizerService::Config service_config(const Params& p,
                                         const std::string& dir) {
  RecognizerService::Config cfg;
  cfg.spec = p.spec();
  if (p.durable) {
    cfg.durable = true;
    cfg.spill_dir = fresh_dir(dir);
  }
  return cfg;
}

/// Durable stacks restart between the phases the way the server does:
/// persist every session, drop the service, recover a new one.
std::unique_ptr<RecognizerService> restart(
    std::unique_ptr<RecognizerService> svc) {
  svc->persist();
  const auto cfg = svc->config();
  svc.reset();
  auto next = std::make_unique<RecognizerService>(cfg);
  next->recover();
  return next;
}

Level level1(const Params& p, const Inputs& in, const Plan& plan,
             SpanLog* spans, std::vector<std::uint64_t>& gates) {
  const auto spec = p.spec();
  const auto feed_span = span_name(spans, "core.feed_chunk");
  const auto finish_span = span_name(spans, "core.finish");
  Level out;
  out.verdicts.resize(plan.sessions.size());
  gates.assign(plan.sessions.size(), 0);
  std::vector<std::unique_ptr<qols::machine::OnlineRecognizer>> recs(
      plan.sessions.size());
  const double cpu0 = process_cpu_s();
  for (const auto& phase : plan.phases) {
    for (const Event& e : phase) {
      const SessionSpec& s = plan.sessions[e.session];
      switch (e.action) {
        case Action::kOpen:
          recs[e.session] = spec.make(in.seed_pool[s.pool]);
          break;
        case Action::kResume:
          break;
        case Action::kFeed:
          traced(spans, feed_span, e.session, [&] {
            recs[e.session]->feed_chunk(plan.chunk(in, e.session, e.chunk));
          });
          break;
        case Action::kFinish: {
          auto& rec = *recs[e.session];
          Expected v;
          traced(spans, finish_span, e.session, [&] {
            v.accepted = rec.finish();
            v.fully_simulated = rec.fully_simulated();
            const auto space = rec.space_used();
            v.classical_bits = space.classical_bits;
            v.qubits = space.qubits;
          });
          out.verdicts[e.session] = v;
          if (const auto* q = dynamic_cast<
                  const qols::core::QuantumOnlineRecognizer*>(&rec)) {
            gates[e.session] = q->a3().gates_applied();
          }
          recs[e.session].reset();
          break;
        }
      }
    }
  }
  out.cpu_s = process_cpu_s() - cpu0;
  return out;
}

Level level2(const Params& p, const Inputs& in, const Plan& plan,
             const std::string& dir, SpanLog* spans) {
  const auto feed_span = span_name(spans, "service.feed");
  const auto finish_span = span_name(spans, "service.finish");
  Level out;
  out.verdicts.resize(plan.sessions.size());
  const double cpu0 = process_cpu_s();
  auto svc = std::make_unique<RecognizerService>(service_config(p, dir));
  for (unsigned ph = 0; ph < 2; ++ph) {
    if (ph == 1 && p.durable) svc = restart(std::move(svc));
    for (const Event& e : plan.phases[ph]) {
      const std::uint64_t id = plan.wire_id(e.session);
      switch (e.action) {
        case Action::kOpen:
          svc->open_at(id, in.seed_pool[plan.sessions[e.session].pool]);
          break;
        case Action::kResume:
          break;
        case Action::kFeed:
          traced(spans, feed_span, e.session, [&] {
            svc->feed(id, plan.chunk(in, e.session, e.chunk));
          });
          break;
        case Action::kFinish:
          traced(spans, finish_span, e.session, [&] {
            out.verdicts[e.session] = from_service(svc->finish(id));
          });
          break;
      }
    }
  }
  svc.reset();
  out.cpu_s = process_cpu_s() - cpu0;
  return out;
}

/// L3: one SessionBroker per connection, fed the bytes the load generator
/// would send, in recv()-sized pieces.
class BrokerStack {
 public:
  BrokerStack(const Params& p, const Inputs& in, const Plan& plan,
              const std::string& dir, SpanLog* spans, Level& out)
      : p_(p), in_(in), plan_(plan), spans_(spans), out_(out),
        encode_span_(span_name(spans, "wire.encode")),
        pump_span_(span_name(spans, "broker.ingest_pump")),
        svc_(std::make_unique<RecognizerService>(service_config(p, dir))) {
    connect();
  }

  void run() {
    for (unsigned ph = 0; ph < 2; ++ph) {
      if (ph == 1 && p_.durable) {
        flush_all();
        conns_.clear();  // disconnect: the brokers release their sessions
        shared_.reset();
        svc_ = restart(std::move(svc_));
        connect();
      }
      for (const Event& e : plan_.phases[ph]) {
        Conn& c = conns_[e.session % conns_.size()];
        traced(spans_, encode_span_, e.session,
               [&] { append_event(c.in, plan_, in_, e); });
        if (c.in.size() >= kIngestBytes) flush(c);
      }
      flush_all();
    }
    conns_.clear();
    shared_.reset();
    svc_.reset();
  }

 private:
  struct Conn {
    std::unique_ptr<qols::server::SessionBroker> broker;
    std::vector<std::uint8_t> in;
    std::vector<std::uint8_t> out;
    wire::FrameDecoder replies;
  };

  void connect() {
    qols::server::BrokerShared::Options opts;
    opts.preserve_on_disconnect = p_.durable;
    shared_ = std::make_unique<qols::server::BrokerShared>(*svc_, opts);
    conns_.clear();
    conns_.resize(kConnections);
    for (auto& c : conns_) {
      c.broker = std::make_unique<qols::server::SessionBroker>(*shared_);
      wire::append_hello(c.in, {wire::kProtocolVersion, wire::kAnyKind});
    }
  }

  void flush_all() {
    for (auto& c : conns_) flush(c);
  }

  void flush(Conn& c) {
    traced(spans_, pump_span_, 0, [&] { ingest_pump(c); });
  }

  void ingest_pump(Conn& c) {
    c.broker->ingest(c.in);
    c.in.clear();
    do {
      c.broker->pump(c.out, kOutBudget);
      c.replies.append(c.out);
      c.out.clear();
      while (auto f = c.replies.next()) {
        if (f->type == wire::FrameType::kVerdict) {
          const auto v = wire::read_verdict(f->payload);
          out_.verdicts[v.session - plan_.id_base] = {
              v.accepted, v.fully_simulated, v.classical_bits, v.qubits};
        } else if (f->type == wire::FrameType::kError) {
          throw std::runtime_error("L3 broker answered ERROR: " +
                                   wire::read_error(f->payload).message);
        }
      }
    } while (c.broker->has_buffered_frames());
  }

  const Params& p_;
  const Inputs& in_;
  const Plan& plan_;
  SpanLog* spans_;
  Level& out_;
  std::uint32_t encode_span_;
  std::uint32_t pump_span_;
  std::unique_ptr<RecognizerService> svc_;
  std::unique_ptr<qols::server::BrokerShared> shared_;
  std::vector<Conn> conns_;
};

Level level3(const Params& p, const Inputs& in, const Plan& plan,
             const std::string& dir, SpanLog* spans) {
  Level out;
  out.verdicts.resize(plan.sessions.size());
  const double cpu0 = process_cpu_s();
  BrokerStack(p, in, plan, dir, spans, out).run();
  out.cpu_s = process_cpu_s() - cpu0;
  return out;
}

/// L4: the real server. Its CPU is read at exit; the CPU an idle server
/// spends starting and stopping is subtracted.
Level level4(const Params& p, const Inputs& in, const Plan& plan,
             const ServerSpec& server, const std::string& dir,
             SpanLog* spans) {
  double idle_cpu = 0;
  {
    launch(server, fresh_dir(dir))->stop();
    idle_cpu = launch(server, dir)->stop().cpu_s;
  }
  Level out;
  LoadGen gen(plan, in);
  double server_cpu = 0;
  double gen_cpu = 0;
  {
    const auto a = launch(server, fresh_dir(dir));
    if (!gen.connect(a->port())) throw std::runtime_error("L4 connect refused");
    double t0 = thread_cpu_s();
    gen.run_phase(0, false, nullptr, spans);
    if (p.durable) gen.settle();
    gen_cpu += thread_cpu_s() - t0;
    gen.close();
    server_cpu += a->stop().cpu_s - idle_cpu;
    if (p.durable) {
      const auto b = launch(server, dir);
      if (!gen.connect(b->port())) {
        throw std::runtime_error("L4 connect refused");
      }
      t0 = thread_cpu_s();
      gen.run_phase(1, false, nullptr, spans);
      gen_cpu += thread_cpu_s() - t0;
      gen.close();
      server_cpu += b->stop().cpu_s - idle_cpu;
    }
  }
  if (gen.failures().total() != 0) {
    throw std::runtime_error("L4 replay had failed sessions");
  }
  for (const auto& v : gen.verdicts()) {
    out.verdicts.push_back(
        {v.accepted, v.fully_simulated, v.classical_bits, v.qubits});
  }
  out.cpu_s = server_cpu + gen_cpu;
  return out;
}

/// wire decode cost: the frames of the plan's first phase, encoded and
/// decoded again in recv()-sized batches.
double decode_ns_per_frame(const Plan& plan, const Inputs& in,
                           SpanLog& spans) {
  const auto span = spans.name("wire.decode");
  std::vector<std::uint8_t> bytes;
  std::size_t frames = 0;
  double total = 0;
  wire::FrameDecoder dec;
  const auto decode = [&] {
    const std::uint64_t t0 = now_ns();
    dec.append(bytes);
    while (auto f = dec.next()) {
      if (f->type == wire::FrameType::kFeed) {
        const auto feed = wire::read_feed(f->payload);
        if (feed.symbols.empty()) throw std::runtime_error("empty FEED");
      }
      ++frames;
    }
    const std::uint64_t t1 = now_ns();
    spans.add(span, 0, t0, t1);
    total += static_cast<double>(t1 - t0);
    bytes.clear();
  };
  for (const Event& e : plan.phases[0]) {
    append_event(bytes, plan, in, e);
    if (bytes.size() >= kIngestBytes) decode();
  }
  decode();
  return frames > 0 ? total / static_cast<double>(frames) : 0;
}

/// A3's share: the same words and seeds through the whole recognizer and
/// through a GroverStreamer built exactly as the recognizer builds its own.
void a3_pass(const Params& p, const Inputs& in, const Plan& plan,
             SpanLog& spans, LedgerResult& r) {
  const auto spec = p.spec();
  const auto full_span = spans.name("core.full_feed");
  const auto a3_span = spans.name("backend.a3_feed_chunk");
  const std::size_t n = std::min(kA3Sessions, plan.sessions.size());
  double full_ns = 0, a3_ns = 0;
  std::uint64_t gates = 0;
  for (std::uint32_t s = 0; s < n; ++s) {
    const SessionSpec& ss = plan.sessions[s];
    const std::uint64_t seed = in.seed_pool[ss.pool];
    auto rec = spec.make(seed);
    std::uint64_t t0 = now_ns();
    for (unsigned j = 0; j < ss.chunks; ++j) {
      rec->feed_chunk(plan.chunk(in, s, j));
    }
    std::uint64_t t1 = now_ns();
    spans.add(full_span, s, t0, t1);
    full_ns += static_cast<double>(t1 - t0);

    qols::util::Rng rng(seed);
    rng.split();  // the recognizer's A2 generator
    qols::core::GroverStreamer::Options opts;
    opts.backend = spec.backend;
    qols::core::GroverStreamer a3(rng.split(), opts);
    t0 = now_ns();
    for (unsigned j = 0; j < ss.chunks; ++j) {
      a3.feed_chunk(plan.chunk(in, s, j));
    }
    t1 = now_ns();
    spans.add(a3_span, s, t0, t1);
    a3_ns += static_cast<double>(t1 - t0);
    gates += a3.gates_applied();
  }
  if (full_ns > 0) r.a3_share = a3_ns / full_ns;
  if (gates > 0) r.ns_per_gate = a3_ns / static_cast<double>(gates);
}

}  // namespace

LedgerResult run_ledger(const Params& params, const Inputs& inputs,
                        const Plan& plan, const ServerSpec& server,
                        const std::string& work_dir, SpanLog& spans) {
  LedgerResult r;
  r.sessions = plan.sessions.size();
  r.symbols = plan.symbols(inputs);
  for (const auto& phase : plan.phases) r.client_frames += phase.size();
  const double n = static_cast<double>(r.sessions);

  // Every stack runs twice: with spans, for the per-layer timings, and
  // without, for the CPU ledger and the tracing overhead's base.
  std::vector<std::uint64_t> gates;
  const auto stacks = [&](SpanLog* s) {
    const std::string d = work_dir + (s != nullptr ? "/traced" : "/plain");
    return std::vector<Level>{
        level1(params, inputs, plan, s, gates),
        level2(params, inputs, plan, d + "/l2", s),
        level3(params, inputs, plan, d + "/l3", s),
        level4(params, inputs, plan, server, d + "/l4", s)};
  };
  const std::vector<Level> with_spans = stacks(&spans);
  const std::vector<Level> plain = stacks(nullptr);
  double traced_cpu = 0, plain_cpu = 0;
  for (int i = 0; i < 4; ++i) {
    r.cpu_per_session[i] = plain[i].cpu_s / n;
    traced_cpu += with_spans[i].cpu_s;
    plain_cpu += plain[i].cpu_s;
    r.verdicts_equal = r.verdicts_equal &&
                       plain[i].verdicts == plain[0].verdicts &&
                       with_spans[i].verdicts == plain[0].verdicts;
  }
  r.trace_overhead_share = (traced_cpu - plain_cpu) / plain_cpu;

  double gate_sum = 0;
  for (const auto g : gates) gate_sum += static_cast<double>(g);
  r.gates_per_session = gate_sum / n;

  const auto encode = spans.durations_ns("wire.encode");
  double encode_sum = 0;
  for (const double d : encode) encode_sum += d;
  r.encode_ns_per_frame =
      encode.empty() ? 0 : encode_sum / static_cast<double>(encode.size());
  r.decode_ns_per_frame = decode_ns_per_frame(plan, inputs, spans);

  std::vector<double> finish_us = spans.durations_ns("service.finish");
  for (double& d : finish_us) d /= 1e3;
  r.finish_us_p50 = median(finish_us);
  r.finish_us = tail_of(finish_us);

  if (params.kind == "quantum") a3_pass(params, inputs, plan, spans, r);
  return r;
}

}  // namespace perfbench
