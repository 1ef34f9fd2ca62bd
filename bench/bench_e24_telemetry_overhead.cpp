// E24 — telemetry overhead: what the observability layer costs where it
// matters, measured as throughput ratios against an uninstrumented baseline.
//
// Two legs, both on the classical block machine (the highest symbols/sec in
// the repo, i.e. the layer where a per-op tax would show first):
//
//   - block-machine leg: one k=8 member word driven three ways —
//       raw:      a hand-inlined next_chunk/feed_chunk loop with NO
//                 telemetry call sites at all (the pre-PR transport);
//       disabled: machine::run_stream with telemetry::set_enabled(false) —
//                 every hook present, each reduced to one relaxed load +
//                 branch;
//       enabled:  run_stream with recording on (counters move).
//     Passes are interleaved raw/disabled/enabled and individually timed,
//     best-of-N per mode (the E22 discipline: on a shared machine a single
//     aggregate window is one preemption away from deciding the ratio).
//   - service leg: RecognizerService serving interleaved sessions, enabled
//     vs runtime-disabled, same interleaving and seeds. The service's
//     counters are its own Stats cells and count in both modes; the switch
//     gates only its flush/finish latency histograms.
//
// Claims (NDEBUG only; unoptimized builds report without enforcing):
//   disabled >= 0.99x raw   (runtime-disabled tax <= 1%)
//   enabled  >= 0.95x raw   (recording tax <= 5%)
//   service enabled >= 0.95x service disabled
//
// The hooks make these bars structural, not aspirational: run_stream
// records per CHUNK (4096 symbols on the copy path), never per symbol, and
// the service records per flush()/finish() call.
//
// The runtime switch is the only one: these ratios (runtime-disabled
// within ~1% of raw) are why there is no compile-time off build.
//
// Correctness rides along: every pass's decision must agree across modes —
// the telemetry-never-touches-verdict-state invariant measured rather than
// assumed (the differential suite proves it exhaustively; here it guards
// the exact registers this experiment timed).
#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "experiments.hpp"
#include "qols/core/classical_recognizers.hpp"
#include "qols/lang/ldisj_instance.hpp"
#include "qols/machine/online_recognizer.hpp"
#include "qols/service/recognizer_service.hpp"
#include "qols/stream/symbol_stream.hpp"
#include "qols/telemetry/registry.hpp"
#include "qols/util/stopwatch.hpp"
#include "qols/util/table.hpp"
#include "registry.hpp"

namespace qols::bench {
namespace {

using stream::Symbol;

struct Pass {
  bool accepted = false;
  double seconds = 0.0;
};

/// The uninstrumented baseline: byte-for-byte the transport loop run_stream
/// used before telemetry existed (StringStream has no view path, so
/// run_stream's copy loop is the honest comparison).
Pass drive_raw(const std::string& word, machine::OnlineRecognizer& rec) {
  stream::StringStream s(word);
  util::Stopwatch watch;
  std::array<Symbol, machine::kRunStreamChunk> buffer;
  Pass pass;
  while (true) {
    const std::size_t n = s.next_chunk(buffer);
    if (n == 0) break;
    rec.feed_chunk(std::span<const Symbol>(buffer.data(), n));
  }
  pass.accepted = rec.finish();
  pass.seconds = watch.seconds();
  return pass;
}

/// The instrumented transport, under whatever telemetry::enabled() state
/// the caller has set.
Pass drive_hooked(const std::string& word, machine::OnlineRecognizer& rec) {
  stream::StringStream s(word);
  util::Stopwatch watch;
  Pass pass;
  pass.accepted = machine::run_stream(s, rec);
  pass.seconds = watch.seconds();
  return pass;
}

double rate_of(std::uint64_t symbols, double seconds) {
  return seconds > 0.0 ? static_cast<double>(symbols) / seconds : 0.0;
}

/// One timed service pass: `sessions` block-machine sessions fed the same
/// word in interleaved slices, flushed, finished. Returns wall seconds; the
/// verdicts append to `decisions`.
double service_pass(const std::string& word, unsigned sessions,
                    std::vector<bool>& decisions) {
  std::vector<Symbol> symbols;
  symbols.reserve(word.size());
  for (const char c : word) symbols.push_back(*stream::symbol_from_char(c));

  service::RecognizerService svc(
      {.spec = {.kind = service::RecognizerKind::kClassicalBlock}});
  util::Stopwatch watch;
  std::vector<service::RecognizerService::SessionId> ids;
  ids.reserve(sessions);
  for (unsigned i = 0; i < sessions; ++i) ids.push_back(svc.open(900 + i));
  constexpr std::size_t kSlice = 1 << 14;
  for (std::size_t at = 0; at < symbols.size(); at += kSlice) {
    const std::size_t n = std::min(kSlice, symbols.size() - at);
    const std::span<const Symbol> slice(symbols.data() + at, n);
    for (const auto id : ids) svc.feed(id, slice);
  }
  svc.flush();
  for (const auto id : ids) decisions.push_back(svc.finish(id).accepted);
  return watch.seconds();
}

int run(Reporter& rep, const RunConfig& cfg) {
  const unsigned k = 8;  // the E20 throughput point: ~1.7e7-symbol word
  const int reps = std::max(3, cfg.trials_or(6));
  util::Rng rng(24'000 + k);
  const auto inst = lang::LDisjInstance::make_disjoint(k, rng);
  const std::string word = inst.render();
  const std::uint64_t n = word.size();

  const bool was_enabled = telemetry::enabled();
  bool decisions_agree = true;

  // --- Block-machine leg: raw / disabled / enabled, interleaved. ----------
  double raw_rate = 0.0, disabled_rate = 0.0, enabled_rate = 0.0;
  for (int r = 0; r < reps; ++r) {
    core::ClassicalBlockRecognizer rec(500 + k);
    const Pass raw = drive_raw(word, rec);
    raw_rate = std::max(raw_rate, rate_of(n, raw.seconds));

    telemetry::set_enabled(false);
    rec.reset(500 + k);
    const Pass off = drive_hooked(word, rec);
    disabled_rate = std::max(disabled_rate, rate_of(n, off.seconds));

    telemetry::set_enabled(true);
    rec.reset(500 + k);
    const Pass on = drive_hooked(word, rec);
    enabled_rate = std::max(enabled_rate, rate_of(n, on.seconds));

    decisions_agree = decisions_agree && raw.accepted == off.accepted &&
                      raw.accepted == on.accepted;
  }
  const double disabled_ratio = disabled_rate / std::max(raw_rate, 1e-9);
  const double enabled_ratio = enabled_rate / std::max(raw_rate, 1e-9);

  // --- Service leg: enabled vs runtime-disabled. --------------------------
  const unsigned sessions = 8;
  double svc_on_secs = 1e300, svc_off_secs = 1e300;
  {
    std::vector<bool> on_decisions, off_decisions;
    for (int r = 0; r < std::max(2, reps / 2); ++r) {
      telemetry::set_enabled(true);
      svc_on_secs = std::min(svc_on_secs,
                             service_pass(word, sessions, on_decisions));
      telemetry::set_enabled(false);
      svc_off_secs = std::min(svc_off_secs,
                              service_pass(word, sessions, off_decisions));
    }
    decisions_agree = decisions_agree && on_decisions == off_decisions;
  }
  telemetry::set_enabled(was_enabled);
  const std::uint64_t svc_symbols = n * sessions;
  const double svc_on_rate = rate_of(svc_symbols, svc_on_secs);
  const double svc_off_rate = rate_of(svc_symbols, svc_off_secs);
  const double svc_ratio = svc_on_rate / std::max(svc_off_rate, 1e-9);

  util::Table table({"leg", "mode", "symbols/sec", "vs baseline", "ok?"});
  const auto fmt_rate = [](double r) {
    return util::fmt_g(static_cast<std::uint64_t>(r));
  };
#ifdef NDEBUG
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  const bool disabled_ok = !optimized || disabled_ratio >= 0.99;
  const bool enabled_ok = !optimized || enabled_ratio >= 0.95;
  const bool svc_ok = !optimized || svc_ratio >= 0.95;

  table.add_row({"block-machine", "raw (no hooks)", fmt_rate(raw_rate),
                 "1.00", "-"});
  table.add_row({"block-machine", "runtime-disabled", fmt_rate(disabled_rate),
                 util::fmt_f(disabled_ratio, 3), disabled_ok ? "yes" : "NO"});
  table.add_row({"block-machine", "enabled", fmt_rate(enabled_rate),
                 util::fmt_f(enabled_ratio, 3), enabled_ok ? "yes" : "NO"});
  table.add_row({"service x" + std::to_string(sessions), "runtime-disabled",
                 fmt_rate(svc_off_rate), "1.00", "-"});
  table.add_row({"service x" + std::to_string(sessions), "enabled",
                 fmt_rate(svc_on_rate), util::fmt_f(svc_ratio, 3),
                 svc_ok ? "yes" : "NO"});
  rep.table(table);

  MetricRecord m;
  m.label = "telemetry-overhead";
  m.k = static_cast<std::int64_t>(k);
  m.trials = static_cast<std::uint64_t>(reps);
  m.extra.emplace_back("raw_symbols_per_sec", raw_rate);
  m.extra.emplace_back("disabled_symbols_per_sec", disabled_rate);
  m.extra.emplace_back("enabled_symbols_per_sec", enabled_rate);
  m.extra.emplace_back("disabled_ratio", disabled_ratio);
  m.extra.emplace_back("enabled_ratio", enabled_ratio);
  m.extra.emplace_back("service_enabled_ratio", svc_ratio);
  rep.metric(m);

  if (!decisions_agree) {
    rep.note("DECISIONS DIVERGED across telemetry modes — the "
             "never-touches-verdict-state invariant is broken.");
  }
  if (optimized) {
    rep.note("Overhead: runtime-disabled " + util::fmt_f(disabled_ratio, 3) +
             "x raw (claim >= 0.99), enabled " +
             util::fmt_f(enabled_ratio, 3) + "x raw (claim >= 0.95), service "
             "enabled " + util::fmt_f(svc_ratio, 3) +
             "x disabled (claim >= 0.95).");
  } else {
    rep.note("overhead claims not enforced on an unoptimized build (rows "
             "above are still the tracked series).");
  }
  rep.note(
      "\nReading: the hooks are per-chunk and per-call, never per-symbol, "
      "so the disabled path pays one relaxed-atomic branch per 4096 symbols "
      "and the enabled path a handful of relaxed fetch_adds — both bounded "
      "claims, not measurements of luck. The same instruments feed "
      "extra.telemetry in this report's JSON document.");
  return decisions_agree && disabled_ok && enabled_ok && svc_ok ? 0 : 1;
}

}  // namespace

void register_e24(Registry& r) {
  r.add({.id = "e24",
         .title = "telemetry overhead (enabled / disabled / raw)",
         .claim = "Claim (engineering): telemetry instrumentation costs "
                  "<= 1% throughput runtime-disabled and <= 5% enabled on "
                  "the block-machine ingest path (NDEBUG), with decisions "
                  "bit-identical across all telemetry modes.",
         .tags = {"telemetry", "overhead", "service", "throughput"}},
        run);
}

}  // namespace qols::bench
