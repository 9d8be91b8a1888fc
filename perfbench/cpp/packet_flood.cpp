// packet_flood: the message-granularity flood. A 200-peer paper_topology
// overlay on p2p::PacketNetwork, a Poisson stream of honest queries at the
// paper's rate (P2pConfig::good_issue_per_minute per honest peer, Sec. 3.5)
// and a few attack::PacketAgents, all on one sim::Engine; DD-POLICE steps every
// simulated minute through p2p::PacketPort. This is the only workload
// through the event heap, the GUID dedup tables and the per-peer service
// queues; the flow layer does no work here.
//
// Agents sit on minimum-degree peers. An agent splits its distinct queries
// across its links, so on a hub its per-link rate falls below the warning
// threshold and the defense never runs a round (0 decisions in 5 minutes at
// 2,000 queries/min); on a degree-3 peer each link carries ~667/min.
//
// A trial is repeated on the run's own seed until the budget is spent (see
// another_repeat), and the repeats must agree exactly.

#include <algorithm>
#include <functional>
#include <memory>
#include <string>

#include "attack/packet_agent.hpp"
#include "common.hpp"
#include "core/ddpolice.hpp"
#include "p2p/network.hpp"
#include "p2p/packet_port.hpp"
#include "sim/engine.hpp"
#include "topology/generators.hpp"
#include "workload/content.hpp"

namespace perfbench {
namespace {

using ddp::PeerId;

struct Shape {
  std::size_t peers;
  std::size_t agents;
  double agent_rate_per_minute;
  double attack_start_minute;
  int minutes;
};

Shape shape_for(const Options& o) {
  if (o.smoke) return {60, 1, 2000.0, 1.0, 3};
  return {200, 4, 2000.0, 1.0, 3};
}

/// One fully wired packet-engine system. Members are declared in
/// dependency order: everything a scheduled callback touches outlives the
/// engine's pending events, which die with the engine.
struct System {
  System(const Shape& shape, std::uint64_t seed, SpanTrace& tr)
      : master(seed),
        graph(tr.span("topology.build",
                      [&] {
                        ddp::util::Rng topo = master.fork("topology");
                        return ddp::topology::paper_topology(shape.peers, topo);
                      })),
        content(ddp::workload::ContentConfig{}, shape.peers),
        net(graph, content, engine, config, master.fork("p2p")),
        port(net),
        police(tr.span("core.build",
                       [&] {
                         return std::make_unique<ddp::core::DdPolice>(
                             port, ddp::core::DdPoliceConfig{},
                             master.fork("ddpolice"));
                       })),
        workload_rng(master.fork("honest")) {}

  ddp::util::Rng master;
  ddp::p2p::P2pConfig config;
  ddp::topology::Graph graph;
  ddp::workload::ContentModel content;
  ddp::sim::Engine engine;
  ddp::p2p::PacketNetwork net;
  ddp::p2p::PacketPort port;
  std::unique_ptr<ddp::core::DdPolice> police;
  ddp::util::Rng workload_rng;
  std::vector<PeerId> agent_ids;
  std::vector<char> is_bad;
  std::vector<std::unique_ptr<ddp::attack::PacketAgent>> agents;
  std::function<void()> honest_query;
};

/// Minimum-degree peers, in a seeded random order.
std::vector<PeerId> pick_agents(System& s, std::size_t count) {
  std::size_t min_degree = SIZE_MAX;
  for (PeerId p = 0; p < s.graph.node_count(); ++p) {
    min_degree = std::min(min_degree, s.graph.degree(p));
  }
  std::vector<PeerId> low;
  for (PeerId p = 0; p < s.graph.node_count(); ++p) {
    if (s.graph.degree(p) == min_degree) low.push_back(p);
  }
  ddp::util::Rng rng = s.master.fork("agents");
  for (std::size_t i = low.size(); i > 1; --i) {
    std::swap(low[i - 1], low[rng.below(static_cast<std::uint32_t>(i))]);
  }
  low.resize(std::min(count, low.size()));
  return low;
}

std::unique_ptr<System> build(const Shape& shape, std::uint64_t seed,
                              SpanTrace& tr) {
  auto s = std::make_unique<System>(shape, seed, tr);
  System& sys = *s;
  sys.agent_ids = pick_agents(sys, shape.agents);
  sys.is_bad.assign(shape.peers, 0);
  for (const PeerId a : sys.agent_ids) sys.is_bad[a] = 1;

  sys.engine.schedule_every(ddp::kMinute, [&sys, &tr] {
    tr.span("core.on_minute", [&] {
      sys.police->on_minute(ddp::to_minutes(sys.engine.now()));
    });
  });
  sys.engine.schedule_at(ddp::minutes(shape.attack_start_minute),
                         [&sys, &tr, rate = shape.agent_rate_per_minute] {
                           tr.span("attack.start", [&] {
                             for (const PeerId a : sys.agent_ids) {
                               sys.agents.push_back(
                                   std::make_unique<ddp::attack::PacketAgent>(
                                       sys.net, a, rate));
                             }
                           });
                         });
  // Draws that land on an agent issue nothing, so every honest peer issues
  // good_issue_per_minute queries a minute on average.
  const double mean_gap = ddp::kMinute / (sys.config.good_issue_per_minute *
                                          static_cast<double>(shape.peers));
  sys.honest_query = [&sys, &tr, mean_gap] {
    const PeerId origin = sys.graph.random_active_node(sys.workload_rng);
    if (origin != ddp::kInvalidPeer && sys.is_bad[origin] == 0) {
      tr.span("p2p.issue_query", [&] { sys.net.issue_random_query(origin); });
    }
    sys.engine.schedule_in(sys.workload_rng.exponential(mean_gap),
                           sys.honest_query);
  };
  sys.engine.schedule_in(sys.workload_rng.exponential(mean_gap),
                         sys.honest_query);
  return s;
}

void digest_totals(Digest& d, const ddp::p2p::NetworkTotals& t) {
  for (const std::uint64_t v :
       {t.queries_issued, t.attack_queries_issued, t.messages_sent,
        t.queries_processed, t.queries_dropped, t.duplicates_dropped,
        t.hits_generated, t.hits_delivered}) {
    d.u(v);
  }
  d.f(t.overhead_messages);
}

/// Range checks on one minute of the packet engine: its counters only
/// grow, attack queries are a subset of all queries, and hits delivered
/// never exceed hits generated.
bool minute_sane(const ddp::p2p::NetworkTotals& a,
                 const ddp::p2p::NetworkTotals& b) {
  return b.queries_issued >= a.queries_issued &&
         b.attack_queries_issued >= a.attack_queries_issued &&
         b.messages_sent >= a.messages_sent &&
         b.queries_processed >= a.queries_processed &&
         b.queries_dropped >= a.queries_dropped &&
         b.duplicates_dropped >= a.duplicates_dropped &&
         b.attack_queries_issued <= b.queries_issued &&
         b.hits_delivered <= b.hits_generated &&
         finite_nonneg(b.overhead_messages);
}

}  // namespace

Outcome run_packet_flood(const Options& o, bool traced, double budget_s,
                         SpanTrace& tr, Checks& checks) {
  const Shape shape = shape_for(o);
  Outcome out;
  // A set-up takes ~10 ms. All samples are taken before the first trial,
  // on a heap that has not yet held a trial's flood state.
  const int setups = o.trace ? 1 : 100;
  for (int k = 0; k < setups; ++k) {
    const std::uint64_t t = mono_ns();
    tr.span("setup", [&] { build(shape, trial_seed(o.seed, k), tr); });
    out.setup_s.push_back(seconds_since(t));
  }

  DefenseTally tally;
  const std::uint64_t pass_start = mono_ns();
  double last_s = 0.0;
  int repeats = 0;
  while (another_repeat(repeats, seconds_since(pass_start), last_s, budget_s)) {
    const std::uint64_t repeat_start = mono_ns();
    auto sys = tr.span("setup", [&] { return build(shape, o.seed, tr); });

    Digest digest;
    double trial_s = 0.0;
    ddp::p2p::NetworkTotals prev = sys->net.totals();
    for (int m = 1; m <= shape.minutes; ++m) {
      const std::uint64_t t = mono_ns();
      tr.span("sim.run_until", [&] { sys->engine.run_until(ddp::minutes(m)); });
      trial_s += seconds_since(t);
      const ddp::p2p::NetworkTotals& now = sys->net.totals();
      checks.op(minute_sane(prev, now),
                "minute " + std::to_string(m) + ": packet counters out of range");
      digest_totals(digest, now);
      prev = now;
    }
    out.measured_s += trial_s;
    ++repeats;
    const double events = static_cast<double>(sys->engine.events_executed());

    const auto& ds = sys->police->decisions();
    digest_decisions(digest, ds);
    std::uint64_t attack_issued = 0;
    for (const auto& a : sys->agents) attack_issued += a->issued();
    checks.op(attack_issued > 0, "the agents never issued a query");
    checks.op(!ds.empty(), "DD-POLICE reached no decision");
    if (repeats > 1) {
      checks.verify(digest.hex() == out.digest,
                    "repeats of one seed produced different runs");
      last_s = seconds_since(repeat_start);
      continue;
    }
    out.digest = digest.hex();
    tally.add(ds, sys->is_bad, shape.attack_start_minute, shape.minutes);

    if (traced) {
      const ddp::p2p::NetworkTotals& tot = sys->net.totals();
      const double sent = static_cast<double>(tot.messages_sent);
      Metrics& l = out.layers;
      l.push_back({"topology.build_ms", tr.mean_us("topology.build") * 1e-3, "ms"});
      l.push_back({"core.build_ms", tr.mean_us("core.build") * 1e-3, "ms"});
      l.push_back({"sim.events", events, "count"});
      l.push_back({"sim.events_per_s", events / trial_s, "1/s"});
      l.push_back({"sim.minute_ms", tr.self_ms("sim.run_until") / shape.minutes, "ms"});
      l.push_back({"p2p.issue_us", tr.mean_us("p2p.issue_query"), "us"});
      l.push_back({"p2p.messages_sent", sent, "count"});
      l.push_back({"p2p.dup_ratio",
                   sent > 0.0 ? static_cast<double>(tot.duplicates_dropped) / sent
                              : 0.0,
                   "ratio"});
      l.push_back(
          {"p2p.queue_drops", static_cast<double>(tot.queries_dropped), "count"});
      l.push_back({"core.minute_ms", tr.mean_us("core.on_minute") * 1e-3, "ms"});
      police_layers(*sys->police, l);
    }
    last_s = seconds_since(repeat_start);
  }
  out.ops_per_s = static_cast<double>(repeats * shape.minutes) / out.measured_s;
  out.report.push_back({"sim_min_per_s", out.ops_per_s, "sim-min/s"});
  out.report.push_back({"repeats", static_cast<double>(repeats), "count"});
  tally.report(out.report);
  return out;
}

}  // namespace perfbench
