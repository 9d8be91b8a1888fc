// LocalPolice tests: the per-node DD-POLICE judge driven purely by
// messages and minute callbacks. A tiny in-memory transport loops control
// messages between LocalPolice instances so a whole buddy round can run
// without any engine underneath. The differential tests at the end feed
// the same per-link minute readings to DdPolice (the synchronous judge)
// and to one LocalPolice per peer, and compare their verdicts.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "core/ddpolice.hpp"
#include "core/police.hpp"
#include "topology/graph.hpp"
#include "util/rng.hpp"

namespace ddp::core {
namespace {

constexpr std::uint32_t ip(std::uint32_t index) { return 0x0a000000u + index; }

/// Records every outbound message; optionally delivers to registered
/// LocalPolice instances on flush() (not immediately, so tests control
/// interleaving like a real event loop would).
class LoopTransport final : public PoliceTransport {
 public:
  struct ListMsg {
    std::uint32_t from = 0, to = 0;
    std::vector<std::uint32_t> members;
  };
  struct TrafficMsg {
    std::uint32_t to = 0;
    net::NeighborTraffic body;
  };

  explicit LoopTransport(std::uint32_t self) : self_(self) {}

  void send_neighbor_list(std::uint32_t to,
                          const std::vector<std::uint32_t>& members) override {
    lists.push_back({self_, to, members});
  }
  void send_neighbor_traffic(std::uint32_t to,
                             const net::NeighborTraffic& report) override {
    traffic.push_back({to, report});
  }

  std::uint32_t self_;
  std::vector<ListMsg> lists;
  std::vector<TrafficMsg> traffic;
};

/// Deliver all queued messages into their destination nodes, repeatedly,
/// until no transport has anything pending (replies can queue more).
void pump(std::map<std::uint32_t, LocalPolice*> nodes,
          std::map<std::uint32_t, LoopTransport*> wires, double now_minutes) {
  bool moved = true;
  while (moved) {
    moved = false;
    for (auto& [from, wire] : wires) {
      auto lists = std::move(wire->lists);
      wire->lists.clear();
      auto traffic = std::move(wire->traffic);
      wire->traffic.clear();
      for (const auto& m : lists) {
        if (nodes.count(m.to)) {
          nodes[m.to]->on_neighbor_list(m.from, m.members, now_minutes);
          moved = true;
        }
      }
      for (const auto& t : traffic) {
        if (nodes.count(t.to)) {
          nodes[t.to]->on_neighbor_traffic(t.body.source_ip, t.body,
                                           now_minutes);
          moved = true;
        }
      }
    }
  }
}

DdPoliceConfig test_config() {
  DdPoliceConfig cfg;
  cfg.warning_threshold = 500.0;
  cfg.cut_threshold = 5.0;
  cfg.good_issue_bound = 100.0;
  cfg.exchange_period_minutes = 2.0;
  return cfg;
}

// ----------------------------------------------------------- basics

TEST(LocalPolice, PeriodicAdvertisementHonoursPeriod) {
  LoopTransport wire(ip(0));
  LocalPolice police(ip(0), test_config(), wire);
  police.add_neighbor(ip(1));
  police.add_neighbor(ip(2));

  police.on_minute(0.0, {});
  EXPECT_EQ(wire.lists.size(), 2u);  // one per neighbour
  EXPECT_EQ(police.lists_sent(), 2u);

  police.on_minute(1.0, {});
  EXPECT_EQ(wire.lists.size(), 2u);  // period is 2 min: nothing at minute 1

  police.on_minute(2.0, {});
  EXPECT_EQ(wire.lists.size(), 4u);
  EXPECT_EQ(wire.lists.back().members.size(), 2u);
}

TEST(LocalPolice, QuietLinksOpenNoRounds) {
  LoopTransport wire(ip(0));
  LocalPolice police(ip(0), test_config(), wire);
  police.add_neighbor(ip(1));
  police.on_minute(0.0, {{ip(1), 3.0, 2.0}});
  police.on_minute(1.0, {{ip(1), 1.0, 450.0}});  // under warning threshold
  EXPECT_EQ(police.rounds_run(), 0u);
  EXPECT_EQ(police.suspicions(), 0u);
  EXPECT_TRUE(police.decisions().empty());
}

// ------------------------------------------------- full buddy round

// Star around the suspect: judge (node 0) and two other monitors (1, 2)
// all neighbour the attacker (9). The attacker floods everyone; the round
// must converge on a cut at every judge that runs one.
TEST(LocalPolice, FloodingSuspectIsCutAfterFullRound) {
  const std::uint32_t kJudge = ip(0), kM1 = ip(1), kM2 = ip(2), kBad = ip(9);
  LoopTransport w0(kJudge), w1(kM1), w2(kM2);
  DdPoliceConfig cfg = test_config();
  LocalPolice p0(kJudge, cfg, w0), p1(kM1, cfg, w1), p2(kM2, cfg, w2);
  for (LocalPolice* p : {&p0, &p1, &p2}) p->add_neighbor(kBad);

  // The attacker advertised its (truthful) neighbour list to everyone.
  const std::vector<std::uint32_t> bad_list = {kJudge, kM1, kM2};
  p0.on_neighbor_list(kBad, bad_list, 0.0);
  p1.on_neighbor_list(kBad, bad_list, 0.0);
  p2.on_neighbor_list(kBad, bad_list, 0.0);

  std::vector<std::uint32_t> cut;
  p0.set_cut_handler([&](std::uint32_t s, const Decision&) {
    cut.push_back(s);
  });

  std::map<std::uint32_t, LocalPolice*> nodes = {
      {kJudge, &p0}, {kM1, &p1}, {kM2, &p2}};
  std::map<std::uint32_t, LoopTransport*> wires = {
      {kJudge, &w0}, {kM1, &w1}, {kM2, &w2}};

  // Minute 1 completes: attacker sent 2000 q/min to each monitor, nobody
  // forwarded anything into it.
  p0.on_minute(1.0, {{kBad, 0.0, 2000.0}});
  p1.on_minute(1.0, {{kBad, 0.0, 2000.0}});
  p2.on_minute(1.0, {{kBad, 0.0, 2000.0}});
  pump(nodes, wires, 1.01);

  // g = (3*2000 - 2*0) / (3*100) = 20 > CT=5 -> cut at the judge, from
  // member replies alone (round closed early, before any timeout).
  ASSERT_EQ(cut.size(), 1u);
  EXPECT_EQ(cut[0], kBad);
  ASSERT_EQ(p0.decisions().size(), 1u);
  const Decision& d = p0.decisions()[0];
  EXPECT_EQ(d.suspect, kBad);
  EXPECT_EQ(d.judge, kJudge);
  EXPECT_NEAR(d.g, 20.0, 1e-9);
  EXPECT_EQ(d.believed_k, 3u);
  EXPECT_EQ(d.responders, 3u);
}

TEST(LocalPolice, SilentMembersCountAsZeroAfterTimeout) {
  const std::uint32_t kJudge = ip(0), kM1 = ip(1), kBad = ip(9);
  LoopTransport wire(kJudge);
  DdPoliceConfig cfg = test_config();
  cfg.collect_timeout_seconds = 6.0;  // 0.1 protocol minutes
  LocalPolice police(kJudge, cfg, wire);
  police.add_neighbor(kBad);
  police.on_neighbor_list(kBad, {kJudge, kM1}, 0.0);

  std::vector<Decision> verdicts;
  police.set_cut_handler([&](std::uint32_t, const Decision& d) {
    verdicts.push_back(d);
  });

  police.on_minute(1.0, {{kBad, 0.0, 1500.0}});
  EXPECT_EQ(police.rounds_run(), 1u);
  EXPECT_EQ(wire.traffic.size(), 1u);  // request went to the one member
  EXPECT_TRUE(verdicts.empty());      // round still open

  police.on_tick(1.05);
  EXPECT_TRUE(verdicts.empty());  // deadline not reached yet

  // First expiry re-requests the silent member (fault-plane retry) and
  // extends the deadline one collect window instead of judging.
  police.on_tick(1.11);
  EXPECT_TRUE(verdicts.empty());
  EXPECT_EQ(wire.traffic.size(), 2u);

  // Member stays silent through the retry too; Sec. 3.4 now applies:
  // k=2, sum_in = 1500 (judge) + 0 (silent), sum_out = 0.
  // g = (1500 - 1*0) / (2*100) = 7.5 > 5 -> cut.
  police.on_tick(1.25);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_NEAR(verdicts[0].g, 7.5, 1e-9);
  EXPECT_EQ(verdicts[0].responders, 1u);
  EXPECT_EQ(verdicts[0].believed_k, 2u);
}

TEST(LocalPolice, HonestForwarderSurvivesItsRound) {
  // The suspect forwards what it receives: members report matching input,
  // so the indicators stay at forwarding balance and no cut happens.
  const std::uint32_t kJudge = ip(0), kM1 = ip(1), kBusy = ip(9);
  LoopTransport wire(kJudge);
  DdPoliceConfig cfg = test_config();
  cfg.collect_timeout_seconds = 6.0;
  LocalPolice police(kJudge, cfg, wire);
  police.add_neighbor(kBusy);
  police.on_neighbor_list(kBusy, {kJudge, kM1}, 0.0);

  std::vector<Decision> verdicts;
  police.set_cut_handler([&](std::uint32_t, const Decision& d) {
    verdicts.push_back(d);
  });

  // Busy relay: sends us 600/min but the other member fed it 1300/min
  // (and it sends the member 700). Output is fully explained by input.
  police.on_minute(1.0, {{kBusy, 0.0, 600.0}});
  net::NeighborTraffic m1;
  m1.source_ip = kM1;
  m1.suspect_ip = kBusy;
  m1.outgoing_queries = 1300;
  m1.incoming_queries = 700;
  police.on_neighbor_traffic(kM1, m1, 1.02);

  // g = (600+700 - 1*1300) / (2*100) = 0 -> no cut; s likewise.
  EXPECT_TRUE(verdicts.empty());
  EXPECT_EQ(police.rounds_run(), 1u);
  EXPECT_TRUE(police.decisions().empty());
}

// ----------------------------------------------- reply + suppression

TEST(LocalPolice, AnswersARoundAboutItsOwnNeighbor) {
  const std::uint32_t kUs = ip(1), kOther = ip(0), kBad = ip(9);
  LoopTransport wire(kUs);
  LocalPolice police(kUs, test_config(), wire);
  police.add_neighbor(kBad);
  police.on_minute(1.0, {{kBad, 5.0, 1800.0}});
  wire.traffic.clear();  // drop our own round's request traffic

  net::NeighborTraffic req;
  req.source_ip = kOther;
  req.suspect_ip = kBad;
  req.outgoing_queries = 0;
  req.incoming_queries = 2000;
  police.on_neighbor_traffic(kOther, req, 1.5);

  ASSERT_EQ(wire.traffic.size(), 1u);
  EXPECT_EQ(wire.traffic[0].to, kOther);
  EXPECT_EQ(wire.traffic[0].body.source_ip, kUs);
  EXPECT_EQ(wire.traffic[0].body.suspect_ip, kBad);
  EXPECT_EQ(wire.traffic[0].body.outgoing_queries, 5u);
  EXPECT_EQ(wire.traffic[0].body.incoming_queries, 1800u);
}

TEST(LocalPolice, RepliesAreSuppressedWithinTheWindow) {
  const std::uint32_t kUs = ip(1), kOther = ip(0), kBad = ip(9);
  LoopTransport wire(kUs);
  DdPoliceConfig cfg = test_config();
  cfg.suppression_window_seconds = 30.0;  // 0.5 protocol minutes
  LocalPolice police(kUs, cfg, wire);
  police.add_neighbor(kBad);
  police.on_minute(1.0, {{kBad, 0.0, 100.0}});  // quiet: no own round

  net::NeighborTraffic req;
  req.source_ip = kOther;
  req.suspect_ip = kBad;
  police.on_neighbor_traffic(kOther, req, 1.0);
  EXPECT_EQ(wire.traffic.size(), 1u);
  police.on_neighbor_traffic(kOther, req, 1.2);  // inside the window
  EXPECT_EQ(wire.traffic.size(), 1u);
  police.on_neighbor_traffic(kOther, req, 1.6);  // window passed
  EXPECT_EQ(wire.traffic.size(), 2u);
}

TEST(LocalPolice, DoesNotTestifyAboutStrangers) {
  LoopTransport wire(ip(1));
  LocalPolice police(ip(1), test_config(), wire);
  police.add_neighbor(ip(2));
  net::NeighborTraffic req;
  req.source_ip = ip(0);
  req.suspect_ip = ip(9);  // not our neighbour
  police.on_neighbor_traffic(ip(0), req, 1.0);
  EXPECT_TRUE(wire.traffic.empty());
}

TEST(LocalPolice, RemovedNeighborAbandonsItsRound) {
  const std::uint32_t kJudge = ip(0), kBad = ip(9);
  LoopTransport wire(kJudge);
  DdPoliceConfig cfg = test_config();
  cfg.collect_timeout_seconds = 6.0;
  LocalPolice police(kJudge, cfg, wire);
  police.add_neighbor(kBad);
  police.on_neighbor_list(kBad, {kJudge, ip(1)}, 0.0);
  police.on_minute(1.0, {{kBad, 0.0, 2000.0}});
  EXPECT_EQ(police.rounds_run(), 1u);

  police.remove_neighbor(kBad);  // link dropped mid-round
  police.on_tick(5.0);           // deadline long past
  EXPECT_TRUE(police.decisions().empty());
}

TEST(LocalPolice, SelfOnlyGroupStillJudges) {
  // The suspect advertised a list naming only the judge: the believed
  // group degenerates to the judge alone (k=1) and the judge's own
  // monitor carries the verdict.
  const std::uint32_t kJudge = ip(0), kBad = ip(9);
  LoopTransport wire(kJudge);
  LocalPolice police(kJudge, test_config(), wire);
  police.add_neighbor(kBad);
  police.on_neighbor_list(kBad, {kJudge}, 0.0);

  std::vector<Decision> verdicts;
  police.set_cut_handler([&](std::uint32_t, const Decision& d) {
    verdicts.push_back(d);
  });

  // g = 2000 / (1*100) = 20 > 5, decided immediately (nobody to wait for).
  police.on_minute(1.0, {{kBad, 0.0, 2000.0}});
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_NEAR(verdicts[0].g, 20.0, 1e-9);
  EXPECT_EQ(verdicts[0].believed_k, 1u);
}

TEST(LocalPolice, CutConfirmationRequiresConsecutiveRounds) {
  // cut_confirmations = 2: one bad round records a pending suspicion;
  // only a second tripping round at least half a minute later fires the
  // verdict. Guards against one-off monitor spikes (a judge descheduled
  // for seconds drains its backlog into a single rolling window).
  const std::uint32_t kJudge = ip(0), kBad = ip(9);
  LoopTransport wire(kJudge);
  DdPoliceConfig cfg = test_config();
  cfg.cut_confirmations = 2;
  LocalPolice police(kJudge, cfg, wire);
  police.add_neighbor(kBad);
  police.on_neighbor_list(kBad, {kJudge}, 0.0);

  std::vector<Decision> verdicts;
  police.set_cut_handler([&](std::uint32_t, const Decision& d) {
    verdicts.push_back(d);
  });

  // First tripping round (g = 20): pending, no verdict.
  police.on_minute(1.0, {{kBad, 0.0, 2000.0}});
  EXPECT_EQ(police.rounds_run(), 1u);
  EXPECT_TRUE(verdicts.empty());

  // A starved judge replaying missed minute timers closes another round
  // milliseconds later over the SAME inflated window — one observation,
  // not two. Must not self-confirm.
  police.on_minute(1.1, {{kBad, 0.0, 2000.0}});
  EXPECT_TRUE(verdicts.empty());

  // The next genuine minute still trips: confirmed, verdict fires.
  police.on_minute(2.0, {{kBad, 0.0, 2000.0}});
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_NEAR(verdicts[0].g, 20.0, 1e-9);
}

TEST(LocalPolice, CleanRoundResetsTheConfirmationStreak) {
  const std::uint32_t kJudge = ip(0), kBad = ip(9);
  LoopTransport wire(kJudge);
  DdPoliceConfig cfg = test_config();
  cfg.cut_confirmations = 2;
  cfg.warning_threshold = 100.0;  // open rounds on modest traffic too
  LocalPolice police(kJudge, cfg, wire);
  police.add_neighbor(kBad);
  police.on_neighbor_list(kBad, {kJudge}, 0.0);

  std::vector<Decision> verdicts;
  police.set_cut_handler([&](std::uint32_t, const Decision& d) {
    verdicts.push_back(d);
  });

  police.on_minute(1.0, {{kBad, 0.0, 2000.0}});  // trip #1 (g = 20)
  police.on_minute(2.0, {{kBad, 0.0, 300.0}});   // g = 3 < CT: streak reset
  police.on_minute(3.0, {{kBad, 0.0, 2000.0}});  // trip #1 again
  EXPECT_TRUE(verdicts.empty());
  police.on_minute(4.0, {{kBad, 0.0, 2000.0}});  // trip #2: verdict
  ASSERT_EQ(verdicts.size(), 1u);
}

TEST(LocalPolice, StaleTripDoesNotConfirmALaterOne) {
  // Two trips more than two protocol minutes apart are separate
  // transients, not a persistent flood — the streak restarts.
  const std::uint32_t kJudge = ip(0), kBad = ip(9);
  LoopTransport wire(kJudge);
  DdPoliceConfig cfg = test_config();
  cfg.cut_confirmations = 2;
  LocalPolice police(kJudge, cfg, wire);
  police.add_neighbor(kBad);
  police.on_neighbor_list(kBad, {kJudge}, 0.0);

  std::vector<Decision> verdicts;
  police.set_cut_handler([&](std::uint32_t, const Decision& d) {
    verdicts.push_back(d);
  });

  police.on_minute(1.0, {{kBad, 0.0, 2000.0}});
  EXPECT_TRUE(verdicts.empty());
  police.on_minute(4.0, {{kBad, 0.0, 2000.0}});  // > 2 min later: restart
  EXPECT_TRUE(verdicts.empty());
  police.on_minute(5.0, {{kBad, 0.0, 2000.0}});  // consecutive: verdict
  ASSERT_EQ(verdicts.size(), 1u);
}

TEST(LocalPolice, NoSnapshotDefersTheRound) {
  // A suspect that never advertised a list cannot be judged: the round
  // cannot be addressed, and a churned-in link judged k=1 on the flood
  // it relays would cut an honest forwarder. The warning is held over;
  // the round opens once the advertisement lands.
  const std::uint32_t kJudge = ip(0), kBad = ip(9);
  LoopTransport wire(kJudge);
  LocalPolice police(kJudge, test_config(), wire);
  police.add_neighbor(kBad);

  std::vector<Decision> verdicts;
  police.set_cut_handler([&](std::uint32_t, const Decision& d) {
    verdicts.push_back(d);
  });

  police.on_minute(1.0, {{kBad, 0.0, 2000.0}});
  EXPECT_TRUE(verdicts.empty());
  EXPECT_EQ(police.rounds_run(), 0u);

  police.on_neighbor_list(kBad, {kJudge}, 1.5);
  police.on_minute(2.0, {{kBad, 0.0, 2000.0}});
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].believed_k, 1u);
}

TEST(LocalPolice, EarlyReportSeedsTheNextRound) {
  // Another judge's round-opening broadcast can land BEFORE our own
  // minute scan flags the suspect (minute boundaries are per-process).
  // That broadcast is the member's report to our round and is not
  // repeated inside the suppression window — it must be cached and
  // seeded, or the round closes silent-as-zero against an honest peer.
  const std::uint32_t kJudge = ip(0), kBad = ip(9), kM1 = ip(1);
  LoopTransport wire(kJudge);
  LocalPolice police(kJudge, test_config(), wire);
  police.add_neighbor(kBad);
  police.on_neighbor_list(kBad, {kJudge, kM1}, 0.0);

  std::vector<Decision> verdicts;
  police.set_cut_handler([&](std::uint32_t, const Decision& d) {
    verdicts.push_back(d);
  });

  // kM1's broadcast arrives first: it saw the suspect inject 2000 and
  // received none of it back.
  net::NeighborTraffic early;
  early.source_ip = kM1;
  early.suspect_ip = kBad;
  early.outgoing_queries = 0;
  early.incoming_queries = 2000;
  police.on_neighbor_traffic(kM1, early, 0.99);

  // Our scan flags the suspect; the cached report completes the round
  // instantly — no collect wait, no silent-as-zero.
  police.on_minute(1.0, {{kBad, 0.0, 2000.0}});
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].responders, 2u);
  // g = ((2000 + 2000) - 1*(0 + 0)) / (2*100) = 20 > CT: the suspect
  // pushed 4000 queries at the group and received none back.
  EXPECT_NEAR(verdicts[0].g, 20.0, 1e-9);
  EXPECT_NEAR(verdicts[0].s, 20.0, 1e-9);
}

TEST(LocalPolice, RoundSuppressionPreventsBackToBackRounds) {
  const std::uint32_t kJudge = ip(0), kBad = ip(9);
  LoopTransport wire(kJudge);
  DdPoliceConfig cfg = test_config();
  cfg.suppression_window_seconds = 90.0;  // 1.5 protocol minutes
  cfg.collect_timeout_seconds = 6.0;
  LocalPolice police(kJudge, cfg, wire);
  police.add_neighbor(kBad);
  police.on_neighbor_list(kBad, {kJudge, ip(1)}, 0.0);

  police.on_minute(1.0, {{kBad, 0.0, 800.0}});
  EXPECT_EQ(police.rounds_run(), 1u);
  police.on_minute(2.0, {{kBad, 0.0, 800.0}});  // within suppression
  EXPECT_EQ(police.rounds_run(), 1u);
  EXPECT_EQ(police.suspicions(), 2u);  // still flagged each minute
  police.on_minute(3.0, {{kBad, 0.0, 800.0}});  // window passed
  EXPECT_EQ(police.rounds_run(), 2u);
}

// ------------------------------------- sync vs async judge differential

/// A static overlay with integer per-link rates. Every link carries 10
/// queries/min; once `flooding`, the flooder sends 3000/min to each
/// neighbour and each of those neighbours relays it to all its other
/// neighbours (one hop, so the honest relays are suspects too).
class StaticOverlay final : public OverlayPort {
 public:
  StaticOverlay(topology::Graph graph, PeerId flooder)
      : graph_(std::move(graph)), flooder_(flooder) {}

  const topology::Graph& graph() const override { return graph_; }
  double sent_last_minute(PeerId from, PeerId to) const override {
    if (!flooding) return 10.0;
    if (from == flooder_) return 3000.0;
    if (to != flooder_ && graph_.has_edge(from, flooder_)) return 3010.0;
    return 10.0;
  }
  void disconnect(PeerId, PeerId) override {}
  void report_overhead(double) override {}

  bool flooding = false;

 private:
  topology::Graph graph_;
  PeerId flooder_;
};

using CutSet = std::set<std::pair<PeerId, PeerId>>;  ///< (judge, suspect)

DdPoliceConfig differential_config() {
  DdPoliceConfig cfg;
  cfg.cut_confirmations = 1;
  return cfg;
}

/// Quiet minute 0 (lists exchanged), flooded minute 1, judged by DdPolice.
CutSet sync_cuts(const topology::Graph& g, PeerId flooder) {
  StaticOverlay port(g, flooder);
  DdPolice police(port, differential_config(), util::Rng(3));
  police.on_minute(0.0);
  port.flooding = true;
  police.on_minute(1.0);
  CutSet cuts;
  for (const Decision& d : police.decisions()) {
    if (!d.list_violation) cuts.insert({d.judge, d.suspect});
  }
  return cuts;
}

/// The same two minutes, judged by one LocalPolice per peer exchanging
/// real Neighbor_List / Neighbor_Traffic bodies over the loop transport.
CutSet async_cuts(const topology::Graph& g, PeerId flooder) {
  StaticOverlay port(g, flooder);
  const std::size_t n = g.node_count();
  std::vector<std::unique_ptr<LoopTransport>> wire_store;
  std::vector<std::unique_ptr<LocalPolice>> police_store;
  std::map<std::uint32_t, LocalPolice*> nodes;
  std::map<std::uint32_t, LoopTransport*> wires;
  CutSet cuts;
  for (PeerId p = 0; p < n; ++p) {
    wire_store.push_back(std::make_unique<LoopTransport>(ip(p)));
    police_store.push_back(std::make_unique<LocalPolice>(
        ip(p), differential_config(), *wire_store.back()));
    LocalPolice& police = *police_store.back();
    for (const PeerId nb : g.neighbors(p)) police.add_neighbor(ip(nb));
    police.set_cut_handler([&cuts, p](std::uint32_t suspect, const Decision&) {
      cuts.insert({p, suspect - ip(0)});
    });
    nodes[ip(p)] = &police;
    wires[ip(p)] = wire_store.back().get();
  }
  for (const double minute : {0.0, 1.0}) {
    port.flooding = minute > 0.0;
    for (PeerId p = 0; p < n; ++p) {
      std::vector<LinkMinute> links;
      for (const PeerId nb : g.neighbors(p)) {
        links.push_back({ip(nb), port.sent_last_minute(p, nb),
                         port.sent_last_minute(nb, p)});
      }
      police_store[p]->on_minute(minute, links);
    }
    pump(nodes, wires, minute);
  }
  return cuts;
}

TEST(JudgeDifferential, SyncAndAsyncJudgesCutTheSamePairs) {
  // Every suspect has degree >= 2. The flooder's three monitors must cut
  // it; the relays they flag (each forwards 3010/min) must survive.
  topology::Graph g(6);
  for (const auto& [a, b] : std::vector<std::pair<PeerId, PeerId>>{
           {0, 1}, {0, 2}, {0, 3}, {1, 2}, {2, 3},
           {3, 4}, {1, 4}, {4, 5}, {2, 5}}) {
    g.add_edge(a, b);
  }
  const CutSet sync = sync_cuts(g, 0);
  EXPECT_EQ(sync, (CutSet{{1, 0}, {2, 0}, {3, 0}}));
  EXPECT_EQ(async_cuts(g, 0), sync);
}

TEST(JudgeDifferential, OnlyLocalPoliceJudgesADegreeOneSuspect) {
  // The one intended divergence (k = 1). A degree-1 flooder's only buddy
  // group is its judge: DdPolice will not conclude without a second
  // member (Regression.LoneJudgeCannotConvict), LocalPolice judges the
  // group the suspect advertised (LocalPolice.SelfOnlyGroupStillJudges).
  topology::Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_TRUE(sync_cuts(g, 0).empty());
  EXPECT_EQ(async_cuts(g, 0), (CutSet{{1, 0}}));
}

}  // namespace
}  // namespace ddp::core
