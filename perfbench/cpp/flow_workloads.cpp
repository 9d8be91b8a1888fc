// The two flow-engine workloads, both driven through
// experiments::ScenarioRuntime:
//
//   flow20k_attack  20,000 BA peers, 1,000 agents (5%) attacking from
//                   minute 2, DD-POLICE, churn on, up to 4 flow workers;
//                   ends with one checkpoint save and restore. The working
//                   set is far beyond cache, so sharding, the shard merge,
//                   the defense rounds and snapshot size show here.
//   paper2k         paper_scenario(2000, 100, DD-POLICE) run serially with
//                   the paper's attack start: the per-trial inner loop of
//                   every figure bench. It fits in cache and has no shards.
//
// The set-up samples are builds of a ScenarioRuntime taken before the first
// trial. A trial builds a fresh runtime and advances it one simulated minute
// per run_to_minute call; the operation is one simulated minute. The trial
// is repeated on the run's own seed until the budget is spent (see
// another_repeat): the repeats do identical work and must agree exactly.

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"
#include "experiments/runtime.hpp"
#include "experiments/scenario.hpp"
#include "flow/flow_port.hpp"
#include "topology/bandwidth.hpp"
#include "topology/generators.hpp"
#include "workload/content.hpp"

namespace perfbench {
namespace {

using ddp::experiments::ScenarioConfig;
using ddp::experiments::ScenarioResult;
using ddp::experiments::ScenarioRuntime;

unsigned default_jobs() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

/// Range checks on one minute report: every field finite and
/// non-negative, S(t) a fraction, and the drop split summing to the total.
bool report_sane(const ddp::flow::MinuteReport& r, std::string* why) {
  const double fields[] = {r.minute,          r.traffic_messages,
                           r.attack_messages, r.good_issued,
                           r.attack_issued,   r.dropped,
                           r.reach_per_query, r.success_rate,
                           r.response_time,   r.mean_utilization,
                           r.overhead_messages, r.transport_lost,
                           r.dropped_good,    r.dropped_attack};
  for (const double v : fields) {
    if (!finite_nonneg(v)) {
      *why = "a field is negative or not finite";
      return false;
    }
  }
  if (r.success_rate > 1.0 + 1e-9) {
    *why = "success rate above 1";
    return false;
  }
  const double split = r.dropped_good + r.dropped_attack;
  if (std::abs(split - r.dropped) > 1e-6 * std::max(1.0, r.dropped)) {
    *why = "drop split does not sum to the total";
    return false;
  }
  return true;
}

std::string result_digest(const ScenarioResult& r) {
  Digest d;
  d.u(r.history.size());
  for (const auto& h : r.history) {
    for (const double v :
         {h.minute, h.traffic_messages, h.attack_messages, h.good_issued,
          h.attack_issued, h.dropped, h.reach_per_query, h.success_rate,
          h.response_time, h.mean_utilization, h.overhead_messages,
          h.transport_lost, h.dropped_good, h.dropped_attack}) {
      d.f(v);
    }
  }
  digest_decisions(d, r.decisions);
  return d.hex();
}

double phase_ms(const ddp::obs::PhaseProfiler& p, const std::string& name) {
  for (const auto& ph : p.phases()) {
    if (ph.name == name) return static_cast<double>(ph.wall_nanos) * 1e-6;
  }
  throw std::runtime_error("the runtime's profile has no phase " + name);
}

/// Time the layer constructors one by one through their public entry
/// points, on the workload's own topology and engine configuration (the
/// runtime's constructor builds them all in one call).
void time_builds(const ScenarioConfig& cfg, SpanTrace& tr, Metrics& layers) {
  ddp::util::Rng master(cfg.seed);
  ddp::util::Rng topo_rng = master.fork("topology");
  ddp::topology::Graph g = tr.span("topology.build", [&] {
    return ddp::topology::generate(cfg.topo, topo_rng);
  });
  ddp::util::Rng bw_rng = master.fork("bandwidth");
  const ddp::topology::BandwidthMap bw(g.node_count(), bw_rng);
  const ddp::workload::ContentModel content(cfg.content, g.node_count());
  auto net = tr.span("flow.build", [&] {
    return std::make_unique<ddp::flow::FlowNetwork>(g, bw, content, cfg.flow,
                                                    master.fork("flow"));
  });
  ddp::flow::FlowPort port(*net);
  auto police = tr.span("core.build", [&] {
    return std::make_unique<ddp::core::DdPolice>(port, cfg.ddpolice,
                                                 master.fork("defense"));
  });
  layers.push_back({"topology.build_ms", tr.wall_ms("topology.build"), "ms"});
  layers.push_back({"flow.build_ms", tr.wall_ms("flow.build"), "ms"});
  layers.push_back({"core.build_ms", tr.wall_ms("core.build"), "ms"});
  layers.push_back(
      {"flow.shards", static_cast<double>(net->shard_spans().size()), "count"});
}

void guard_trial(const ScenarioResult& res, const ScenarioConfig& cfg,
                 Checks& checks) {
  double attack_issued = 0.0;
  for (const auto& h : res.history) {
    std::string why;
    checks.op(report_sane(h, &why),
              "minute " + std::to_string(static_cast<int>(h.minute)) + ": " + why);
    attack_issued += h.attack_issued;
  }
  if (cfg.attack.agents > 0) {
    checks.op(attack_issued > 0.0, "the attack never issued a query");
    checks.op(!res.decisions.empty(), "DD-POLICE reached no decision");
  }
}

void flow_layers(const ScenarioRuntime& rt, const ScenarioResult& res,
                 const ScenarioConfig& cfg, Metrics& layers) {
  const double minutes = cfg.total_minutes;
  const ddp::obs::PhaseProfiler& p = *res.profile;
  const auto view = rt.view();
  layers.push_back({"flow.tick_ms", phase_ms(p, "flow_ticks") / minutes, "ms"});
  layers.push_back(
      {"flow.ticks", std::round(view.net->now() / cfg.flow.tick_seconds), "count"});
  layers.push_back({"flow.in_flight", view.net->total_in_flight(), "queries"});
  layers.push_back({"core.minute_ms", phase_ms(p, "defense") / minutes, "ms"});
  police_layers(*view.ddpolice, layers);
  layers.push_back({"workload.churn_ms", phase_ms(p, "churn") / minutes, "ms"});
  layers.push_back({"attack.minute_ms", phase_ms(p, "attack") / minutes, "ms"});
  layers.push_back(
      {"experiments.maintain_ms", phase_ms(p, "maintenance") / minutes, "ms"});
}

/// Save the finished runtime, restore it into a freshly built one, and
/// check the restored state reproduces the saved run.
void checkpoint(const ScenarioRuntime& rt, const ScenarioConfig& cfg,
                const std::string& digest, SpanTrace& tr, Checks& checks,
                Outcome& out) {
  std::uint64_t t = mono_ns();
  const std::vector<std::uint8_t> bytes =
      tr.span("snapshot.save", [&] { return rt.save(); });
  const double save_s = seconds_since(t);
  auto fresh = tr.span("experiments.setup",
                       [&] { return std::make_unique<ScenarioRuntime>(cfg); });
  t = mono_ns();
  tr.span("snapshot.load", [&] { fresh->load_bytes(bytes); });
  const double load_s = seconds_since(t);
  checks.op(result_digest(fresh->result()) == digest,
            "restored runtime does not reproduce the saved run");
  out.report.push_back({"checkpoint_s", save_s + load_s, "s"});
  out.layers.push_back({"snapshot.save_ms", save_s * 1e3, "ms"});
  out.layers.push_back({"snapshot.load_ms", load_s * 1e3, "ms"});
  out.layers.push_back(
      {"snapshot.bytes", static_cast<double>(bytes.size()), "bytes"});
}

Outcome flow_pass(const Options& o, ScenarioConfig cfg, int setups,
                  bool with_checkpoint, bool traced, double budget_s,
                  SpanTrace& tr, Checks& checks) {
  cfg.obs.profile = traced;
  // The untraced pass of a traced run only provides the overhead baseline.
  with_checkpoint = with_checkpoint && (traced || !o.trace);
  const int horizon = static_cast<int>(cfg.total_minutes);
  Outcome out;
  // Only untraced runs report set-up time and need the extra samples. All
  // of them are taken before the first trial, on a heap that has not yet
  // held a finished run.
  if (o.trace) setups = 1;
  for (int k = 0; k < setups; ++k) {
    cfg.seed = trial_seed(o.seed, k);
    const std::uint64_t t = mono_ns();
    tr.span("experiments.setup", [&] { ScenarioRuntime sample(cfg); });
    out.setup_s.push_back(seconds_since(t));
  }
  if (traced) time_builds(cfg, tr, out.layers);

  DefenseTally tally;
  cfg.seed = o.seed;
  const std::uint64_t pass_start = mono_ns();
  double last_s = 0.0;
  int repeats = 0;
  while (another_repeat(repeats, seconds_since(pass_start), last_s, budget_s)) {
    const std::uint64_t repeat_start = mono_ns();
    auto rt = tr.span("experiments.setup",
                      [&] { return std::make_unique<ScenarioRuntime>(cfg); });
    for (int m = 1; m <= horizon; ++m) {
      const std::uint64_t t = mono_ns();
      tr.span("experiments.run_to_minute", [&] { rt->run_to_minute(m); });
      out.measured_s += seconds_since(t);
    }
    ++repeats;

    const ScenarioResult res = rt->result();
    const std::string digest = result_digest(res);
    guard_trial(res, cfg, checks);
    if (repeats == 1) {
      out.digest = digest;
      out.report.push_back(
          {"success_pct", 100.0 * res.summary.avg_success_rate, "%"});
      tally.add(res.decisions, res.is_bad, cfg.attack.start_minute, horizon);
      if (traced) flow_layers(*rt, res, cfg, out.layers);
      if (with_checkpoint) checkpoint(*rt, cfg, digest, tr, checks, out);
    } else {
      checks.verify(digest == out.digest,
                    "repeats of one seed produced different runs");
    }
    last_s = seconds_since(repeat_start);
  }
  out.ops_per_s = static_cast<double>(repeats * horizon) / out.measured_s;
  out.report.insert(out.report.begin(), {"sim_min_per_s", out.ops_per_s, "sim-min/s"});
  out.report.push_back({"repeats", static_cast<double>(repeats), "count"});
  tally.report(out.report);
  return out;
}

}  // namespace

Outcome run_flow20k_attack(const Options& o, bool traced, double budget_s,
                           SpanTrace& tr, Checks& checks) {
  ScenarioConfig cfg = ddp::experiments::paper_scenario(
      o.smoke ? 2000 : 20000, o.smoke ? 100 : 1000,
      ddp::defense::Kind::kDdPolice, o.seed);
  // The attack starts at minute 2: with the default start of 5 a 5-minute
  // run never issues a single attack query.
  cfg.attack.start_minute = 2.0;
  cfg.warmup_minutes = 2.0;
  cfg.total_minutes = o.smoke ? 4.0 : 6.0;
  cfg.flow.jobs = o.flow_jobs > 0 ? o.flow_jobs : default_jobs();
  return flow_pass(o, cfg, /*setups=*/5, /*with_checkpoint=*/true, traced,
                   budget_s, tr, checks);
}

Outcome run_paper2k(const Options& o, bool traced, double budget_s,
                    SpanTrace& tr, Checks& checks) {
  ScenarioConfig cfg = ddp::experiments::paper_scenario(
      o.smoke ? 400 : 2000, o.smoke ? 20 : 100, ddp::defense::Kind::kDdPolice,
      o.seed);
  if (o.smoke) cfg.total_minutes = 8.0;
  cfg.flow.jobs = o.flow_jobs > 0 ? o.flow_jobs : 1;
  return flow_pass(o, cfg, /*setups=*/20, /*with_checkpoint=*/false, traced,
                   budget_s, tr, checks);
}

}  // namespace perfbench
