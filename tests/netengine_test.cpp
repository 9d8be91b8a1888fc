// Socket-engine tests, all single-threaded: two engines (or nodes) on
// loopback are stepped by alternating poll_once() calls, so every test is
// deterministic — no background threads, no sleeps longer than the
// timeouts under test.
//
// Covered here, per the deployment-mode requirements:
//   - two-node handshake + query -> hit round trip over real TCP;
//   - slow-reader backpressure: the writer disconnects the peer rather
//     than buffer without bound;
//   - half-open peer timeout: a TCP connection that never completes the
//     app handshake is dropped;
//   - SIGTERM clean shutdown with no leaked file descriptors;
//   - forged Neighbor_Traffic: testimony counts only for the link it
//     arrives on;
//   - a slow peer evicted by the judge's own periodic advertisement: the
//     rest of that advertisement still reaches every other neighbour once;
//   - each node's obs trace, and the testbed report read from such traces.

#include <gtest/gtest.h>

#include <dirent.h>
#include <signal.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "experiments/testbed.hpp"
#include "netengine/engine.hpp"
#include "netengine/node.hpp"
#include "netengine/timer_wheel.hpp"
#include "obs/trace.hpp"
#include "obs/trace_read.hpp"

namespace ddp::netengine {
namespace {

/// Open fds of this process (the leak detector for the shutdown test).
std::size_t open_fd_count() {
  DIR* d = ::opendir("/proc/self/fd");
  if (d == nullptr) return 0;
  std::size_t n = 0;
  while (::readdir(d) != nullptr) ++n;
  ::closedir(d);
  return n >= 3 ? n - 3 : 0;  // ".", "..", and the dirfd itself
}

/// Step a set of engines until `done` or `rounds` poll rounds pass.
template <typename Pred>
bool pump_until(std::vector<Engine*> engines, Pred done, int rounds = 400) {
  for (int i = 0; i < rounds; ++i) {
    if (done()) return true;
    for (Engine* e : engines) e->poll_once(5);
  }
  return done();
}

/// A fresh scratch directory under the gtest temp dir, unique per test
/// and process; removed on destruction.
struct ScratchDir {
  std::filesystem::path path;
  explicit ScratchDir(const std::string& name)
      : path(std::filesystem::path(::testing::TempDir()) /
             (name + "_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() { std::filesystem::remove_all(path); }
  std::string file(const std::string& leaf) const {
    return (path / leaf).string();
  }
};

/// Every line of a trace file, parsed; a line that does not parse into a
/// known event type fails the test.
std::vector<obs::TraceRecord> read_node_trace(const std::string& path) {
  std::ifstream in(path);
  std::vector<obs::TraceRecord> out;
  std::string line;
  while (std::getline(in, line)) {
    std::string error;
    auto r = obs::parse_trace_line(line, &error);
    EXPECT_TRUE(r.has_value()) << path << ": " << error << "\n  " << line;
    if (!r) continue;
    EXPECT_TRUE(r->known.has_value()) << "unknown type " << r->type;
    out.push_back(std::move(*r));
  }
  return out;
}

net::Message make_ping() {
  net::Message m;
  m.header.guid.bytes[0] = 0x42;
  m.payload = net::Ping{};
  return m;
}

// ------------------------------------------------------------ timer wheel

TEST(TimerWheel, OneShotFiresOnceAtItsTick) {
  TimerWheel wheel(10, 16);
  int fired = 0;
  wheel.advance(0);
  wheel.schedule(35, [&] { ++fired; });
  wheel.advance(30);
  EXPECT_EQ(fired, 0);
  wheel.advance(40);
  EXPECT_EQ(fired, 1);
  wheel.advance(400);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheel, PeriodicKeepsCadenceAndCancels) {
  TimerWheel wheel(10, 16);
  int fired = 0;
  wheel.advance(0);
  const auto id = wheel.schedule_every(50, [&] { ++fired; });
  wheel.advance(249);  // 50,100,150,200 -> 4 firings
  EXPECT_EQ(fired, 4);
  wheel.cancel(id);
  wheel.advance(1000);
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheel, LongDelaySurvivesWheelRotations) {
  TimerWheel wheel(10, 8);  // 8 slots of 10 ms: 1 s = many rotations
  int fired = 0;
  wheel.advance(0);
  wheel.schedule(1000, [&] { ++fired; });
  wheel.advance(990);
  EXPECT_EQ(fired, 0);
  wheel.advance(1005);
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheel, CallbackMayCancelItself) {
  TimerWheel wheel(10, 16);
  int fired = 0;
  wheel.advance(0);
  TimerWheel::TimerId id = 0;
  id = wheel.schedule_every(20, [&] {
    ++fired;
    wheel.cancel(id);
  });
  wheel.advance(200);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(wheel.pending(), 0u);
}

// ------------------------------------------------------- engine loopback

struct TestPeer {
  explicit TestPeer(EngineConfig cfg = {}) : engine(cfg) {
    EngineHandler h;
    h.on_accept = [this](ConnId id) { accepted.push_back(id); };
    h.on_connect = [this](ConnId id, bool ok) {
      connected.push_back({id, ok});
    };
    h.on_message = [this](ConnId id, const net::Message& m) {
      messages.push_back({id, m});
    };
    h.on_close = [this](ConnId id, CloseReason r) {
      closed.push_back({id, r});
    };
    engine.set_handler(std::move(h));
  }
  Engine engine;
  std::vector<ConnId> accepted;
  std::vector<std::pair<ConnId, bool>> connected;
  std::vector<std::pair<ConnId, net::Message>> messages;
  std::vector<std::pair<ConnId, CloseReason>> closed;
};

TEST(Engine, ConnectAcceptAndFramedDelivery) {
  TestPeer a, b;
  ASSERT_TRUE(b.engine.listen());
  const ConnId c = a.engine.connect("127.0.0.1", b.engine.listen_port());
  ASSERT_NE(c, kInvalidConn);
  ASSERT_TRUE(pump_until({&a.engine, &b.engine}, [&] {
    return !a.connected.empty() && !b.accepted.empty();
  }));
  EXPECT_TRUE(a.connected[0].second);

  // One multi-message burst must arrive as individually framed messages.
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(a.engine.send(c, make_ping()));
  ASSERT_TRUE(pump_until({&a.engine, &b.engine},
                         [&] { return b.messages.size() >= 3; }));
  EXPECT_EQ(b.messages.size(), 3u);
  EXPECT_EQ(b.messages[0].second.type(), net::PayloadType::kPing);
  EXPECT_EQ(b.engine.messages_in(), 3u);
}

TEST(Engine, ConnectToDeadPortReportsFailure) {
  TestPeer a;
  // Grab a port, then close the listener so nothing is behind it.
  std::uint16_t dead_port = 0;
  {
    Fd probe = make_listener(0);
    ASSERT_TRUE(probe.valid());
    dead_port = bound_port(probe);
  }
  const ConnId c = a.engine.connect("127.0.0.1", dead_port);
  ASSERT_NE(c, kInvalidConn);
  ASSERT_TRUE(
      pump_until({&a.engine}, [&] { return !a.connected.empty(); }));
  EXPECT_FALSE(a.connected[0].second);
  EXPECT_EQ(a.engine.connection_count(), 0u);
}

TEST(Engine, GarbageBytesCloseTheConnectionAsBadFrame) {
  TestPeer a, b;
  ASSERT_TRUE(b.engine.listen());
  // Raw client socket outside any engine: write junk straight at it.
  Fd raw = connect_nonblocking("127.0.0.1", b.engine.listen_port());
  ASSERT_TRUE(raw.valid());
  ASSERT_TRUE(pump_until({&b.engine}, [&] { return !b.accepted.empty(); }));
  std::vector<std::uint8_t> junk(64, 0xEE);  // type byte 0xEE: unknown
  ASSERT_EQ(::write(raw.get(), junk.data(), junk.size()),
            static_cast<ssize_t>(junk.size()));
  ASSERT_TRUE(pump_until({&b.engine}, [&] { return !b.closed.empty(); }));
  EXPECT_EQ(b.closed[0].second, CloseReason::kBadFrame);
}

TEST(Engine, SlowReaderIsDisconnectedByBackpressure) {
  EngineConfig small;
  small.max_write_queue = 64 * 1024;
  TestPeer a(small), b;
  ASSERT_TRUE(b.engine.listen());
  const ConnId c = a.engine.connect("127.0.0.1", b.engine.listen_port());
  ASSERT_TRUE(pump_until({&a.engine, &b.engine},
                         [&] { return !a.connected.empty(); }));
  ASSERT_TRUE(a.connected[0].second);

  // b never polls from here on: its kernel receive buffer fills, then a's
  // send buffer, then a's user-space queue hits the bound -> kSlowPeer.
  net::Message big;
  big.header.guid.bytes[0] = 1;
  net::Query q;
  q.search = std::string(8000, 'x');
  big.payload = std::move(q);
  bool evicted = false;
  for (int i = 0; i < 4000 && !evicted; ++i) {
    a.engine.send(c, big);
    evicted = !a.closed.empty();
  }
  ASSERT_TRUE(evicted) << "writer never hit the backpressure bound";
  EXPECT_EQ(a.closed[0].second, CloseReason::kSlowPeer);
  EXPECT_FALSE(a.engine.is_open(c));
}

TEST(Engine, HalfOpenPeerIsTimedOut) {
  EngineConfig quick;
  quick.handshake_timeout_ms = 150;
  quick.sweep_period_ms = 25;
  TestPeer b(quick);
  ASSERT_TRUE(b.engine.listen());
  // TCP connects, then says nothing at the application layer.
  Fd mute = connect_nonblocking("127.0.0.1", b.engine.listen_port());
  ASSERT_TRUE(mute.valid());
  ASSERT_TRUE(pump_until({&b.engine}, [&] { return !b.accepted.empty(); }));
  ASSERT_TRUE(pump_until({&b.engine}, [&] { return !b.closed.empty(); },
                         2000));
  EXPECT_EQ(b.closed[0].second, CloseReason::kHandshakeTimeout);
  EXPECT_EQ(b.engine.connection_count(), 0u);
}

// --------------------------------------------------------- node loopback

struct NodePair {
  std::unique_ptr<Node> a, b;
};

NodeConfig quick_node(std::uint32_t index) {
  NodeConfig cfg;
  cfg.index = index;
  cfg.minute_seconds = 0.5;          // accelerated protocol minutes
  cfg.query_rate_per_minute = 0.0;   // tests issue deterministically
  cfg.hit_probability = 0.0;
  cfg.seed = 7 + index;
  return cfg;
}

TEST(Node, HandshakeQueryHitRoundTrip) {
  // b answers every query; a is a bystander neighbour of b that proves
  // forwarding; c issues queries and must get the hit back.
  NodeConfig cb = quick_node(2);
  cb.hit_probability = 1.0;
  Node b(cb);
  ASSERT_TRUE(b.start());

  NodeConfig ca = quick_node(1);
  ca.bootstrap = {b.listen_port()};
  Node a(ca);
  ASSERT_TRUE(a.start());

  NodeConfig cc = quick_node(3);
  cc.bootstrap = {b.listen_port()};
  cc.query_rate_per_minute = 120.0;
  Node c(cc);
  ASSERT_TRUE(c.start());

  auto pump = [&](auto done, int rounds = 1200) {
    for (int i = 0; i < rounds; ++i) {
      if (done()) return true;
      a.poll_once(2);
      b.poll_once(2);
      c.poll_once(2);
    }
    return done();
  };

  // Hello Pongs cross; links come up on both sides.
  ASSERT_TRUE(pump([&] {
    return a.overlay_degree() == 1 && c.overlay_degree() == 1 &&
           b.overlay_degree() == 2;
  })) << "handshake did not complete";
  EXPECT_TRUE(a.police().neighbors() ==
              std::vector<std::uint32_t>{b.self_address()});

  // c's queries flood to b (which forwards them on to a) and b's
  // QueryHits route back along the reverse path to the origin c.
  ASSERT_TRUE(pump([&] { return c.hits_received() > 0; }))
      << "no QueryHit made it back to the origin";
  EXPECT_GT(c.queries_issued(), 0u);
  EXPECT_GT(b.queries_forwarded(), 0u);
}

TEST(Node, AttackerCohortIsCutOnLoopback) {
  // Star: one honest hub, one honest spoke, one attacker spoke. The
  // attacker floods the hub far past the warning threshold; the hub's
  // LocalPolice runs a buddy round and cuts + bans it.
  const ScratchDir dir("cohort_traces");
  NodeConfig hub_cfg = quick_node(0);
  hub_cfg.trace_path = dir.file("hub.jsonl");
  hub_cfg.ddp.warning_threshold = 60.0;
  hub_cfg.ddp.cut_threshold = 2.0;
  hub_cfg.ddp.good_issue_bound = 20.0;
  hub_cfg.ddp.collect_timeout_seconds = 6.0;  // 0.1 protocol minutes
  Node hub(hub_cfg);
  ASSERT_TRUE(hub.start());

  NodeConfig spoke_cfg = quick_node(1);
  spoke_cfg.bootstrap = {hub.listen_port()};
  spoke_cfg.query_rate_per_minute = 5.0;
  spoke_cfg.trace_path = dir.file("spoke.jsonl");
  Node spoke(spoke_cfg);
  ASSERT_TRUE(spoke.start());

  NodeConfig bad_cfg = quick_node(2);
  bad_cfg.bootstrap = {hub.listen_port()};
  bad_cfg.attacker = true;
  bad_cfg.attack_rate_per_minute = 600.0;
  bad_cfg.attack_start_minute = 1.0;
  bad_cfg.trace_path = dir.file("bad.jsonl");
  Node bad(bad_cfg);
  ASSERT_TRUE(bad.start());

  const std::uint32_t bad_addr = bad.self_address();
  auto pump = [&](auto done, int rounds = 6000) {
    for (int i = 0; i < rounds; ++i) {
      if (done()) return true;
      hub.poll_once(1);
      spoke.poll_once(1);
      bad.poll_once(1);
    }
    return done();
  };
  ASSERT_TRUE(pump([&] { return hub.overlay_degree() == 2; }));
  ASSERT_TRUE(pump([&] { return !hub.cuts().empty(); }))
      << "attacker was never cut";
  EXPECT_EQ(hub.cuts()[0].suspect, bad_addr);
  EXPECT_TRUE(hub.is_banned(bad_addr));
  // The honest spoke survives.
  for (const core::Decision& d : hub.cuts()) {
    EXPECT_NE(d.suspect, spoke.self_address());
  }
  // The ban holds: the attacker's redial attempts never restore the link.
  ASSERT_TRUE(pump([&] { return hub.overlay_degree() == 1; }, 500));

  // Each node's trace: obs JSONL from its first line to its final
  // minute_report, and the judge's file holds the attacker's cut.
  hub.shutdown();
  spoke.shutdown();
  bad.shutdown();
  const std::pair<const Node*, std::string> files[] = {
      {&hub, hub_cfg.trace_path},
      {&spoke, spoke_cfg.trace_path},
      {&bad, bad_cfg.trace_path}};
  for (const auto& [n, path] : files) {
    const std::vector<obs::TraceRecord> records = read_node_trace(path);
    ASSERT_FALSE(records.empty()) << path;
    EXPECT_EQ(records.front().known, obs::EventType::kPeerJoined) << path;
    EXPECT_EQ(records.front().a, n->self_address());
    EXPECT_EQ(records.front().field("attacker"), n == &bad ? 1.0 : 0.0);
    const obs::TraceRecord* last_minute = nullptr;
    for (const obs::TraceRecord& r : records) {
      if (r.known == obs::EventType::kMinuteReport) last_minute = &r;
    }
    ASSERT_NE(last_minute, nullptr) << path;
    EXPECT_EQ(last_minute->field("final"), 1.0) << path;
    EXPECT_EQ(last_minute->field("issued"), double(n->queries_issued()));
  }
  bool judge_cut_attacker = false;
  for (const obs::TraceRecord& r : read_node_trace(hub_cfg.trace_path)) {
    if (r.known == obs::EventType::kSuspectCut && r.a == bad_addr &&
        r.b == hub.self_address()) {
      judge_cut_attacker = true;
    }
  }
  EXPECT_TRUE(judge_cut_attacker) << "no suspect_cut of the attacker";
}

TEST(Node, DuplicateEchoRevokesForwardCredit) {
  // One node, two script-driven peers. p1 floods a query through the
  // node; when p2 later sends the SAME query back, the node must revoke
  // the Out_query credit it had granted the p2 link (p2 demonstrably
  // already had the query, so the forwarded copy was unrelayable). A dup
  // from the origin link and a dup of a never-forwarded (TTL-exhausted)
  // query must NOT revoke anything.
  NodeConfig cfg = quick_node(0);
  Node node(cfg);
  ASSERT_TRUE(node.start());

  TestPeer p1, p2;
  const ConnId c1 = p1.engine.connect("127.0.0.1", node.listen_port());
  const ConnId c2 = p2.engine.connect("127.0.0.1", node.listen_port());
  ASSERT_NE(c1, kInvalidConn);
  ASSERT_NE(c2, kInvalidConn);

  auto pump = [&](auto done, int rounds = 800) {
    for (int i = 0; i < rounds; ++i) {
      if (done()) return true;
      node.poll_once(2);
      p1.engine.poll_once(2);
      p2.engine.poll_once(2);
    }
    return done();
  };

  const std::uint32_t a1 = net::peer_address(1);
  const std::uint32_t a2 = net::peer_address(2);
  auto hello = [](std::uint32_t ip, std::uint16_t port) {
    net::Message m;
    m.header.ttl = 1;
    net::Pong p;
    p.ip = ip;
    p.port = port;
    p.files_shared = 0;  // overlay link
    m.payload = p;
    return m;
  };
  ASSERT_TRUE(pump([&] {
    return !p1.connected.empty() && !p2.connected.empty();
  }));
  p1.engine.send(c1, hello(a1, 1));
  p2.engine.send(c2, hello(a2, 2));
  ASSERT_TRUE(pump([&] { return node.overlay_degree() == 2; }));

  auto query = [](std::uint8_t tag, std::uint8_t ttl) {
    net::Message m;
    m.header.guid.bytes[0] = tag;
    m.header.guid.bytes[15] = 0x5a;
    m.header.ttl = ttl;
    m.payload = net::Query{0, "echo-test"};
    return m;
  };

  // p1's query floods to p2: one credit on the p2 link.
  p1.engine.send(c1, query(1, 3));
  ASSERT_TRUE(pump([&] {
    const auto lm = node.link_minute(a2);
    return lm.has_value() && lm->out_queries == 1.0;
  })) << "query was not forwarded to p2";

  // The same query coming back from p2 proves the copy was redundant.
  p2.engine.send(c2, query(1, 2));
  ASSERT_TRUE(pump([&] { return node.echo_revocations() == 1; }))
      << "dup from a flooded-to link did not revoke";
  EXPECT_EQ(node.link_minute(a2)->out_queries, 0.0);
  EXPECT_EQ(node.link_minute(a2)->in_queries, 1.0);

  // Dup from the origin link: we never forwarded to it, nothing to revoke.
  p1.engine.send(c1, query(1, 3));
  // TTL-exhausted query is seen but not flooded; its dup revokes nothing.
  p1.engine.send(c1, query(9, 1));
  ASSERT_TRUE(pump([&] {
    const auto lm = node.link_minute(a1);
    return lm.has_value() && lm->in_queries == 3.0;
  }));
  p2.engine.send(c2, query(9, 1));
  ASSERT_TRUE(pump([&] { return node.link_minute(a2)->in_queries == 2.0; }));
  EXPECT_EQ(node.echo_revocations(), 1u);
  EXPECT_EQ(node.link_minute(a2)->out_queries, 0.0);  // clamped, not negative

  // A forward whose TTL dies on arrival earns no relay credit either:
  // p2 gets the copy (raw Out_query counts it) but provably cannot
  // forward it, so the police-facing credit stays flat.
  p1.engine.send(c1, query(7, 2));
  ASSERT_TRUE(pump([&] { return node.link_minute(a1)->in_queries == 4.0; }));
  const std::size_t before = p2.messages.size();
  ASSERT_TRUE(pump([&] { return p2.messages.size() > before; }))
      << "ttl=2 query was not forwarded";
  EXPECT_EQ(node.link_minute(a2)->out_queries, 0.0);
}

TEST(Node, ForgedTestimonyDoesNotFillAnotherMembersSlot) {
  // A Neighbor_Traffic report speaks only for the link it arrives on. The
  // judge's round on suspect S covers {judge, A, B}; a peer handshaken as
  // A that sends a report claiming source_ip = B must be dropped, leaving
  // B's slot unanswered.
  NodeConfig cfg = quick_node(0);
  cfg.ddp.warning_threshold = 5.0;
  cfg.ddp.collect_timeout_seconds = 600.0;  // keep the round open
  Node judge(cfg);
  ASSERT_TRUE(judge.start());

  TestPeer suspect, peer_a;
  const ConnId cs = suspect.engine.connect("127.0.0.1", judge.listen_port());
  const ConnId ca = peer_a.engine.connect("127.0.0.1", judge.listen_port());
  ASSERT_NE(cs, kInvalidConn);
  ASSERT_NE(ca, kInvalidConn);

  auto pump = [&](auto done, int rounds = 1500) {
    for (int i = 0; i < rounds; ++i) {
      if (done()) return true;
      judge.poll_once(2);
      suspect.engine.poll_once(2);
      peer_a.engine.poll_once(2);
    }
    return done();
  };

  const std::uint32_t s_addr = net::peer_address(9);
  const std::uint32_t a_addr = net::peer_address(1);
  const std::uint32_t b_addr = net::peer_address(2);  // never connects
  auto hello = [](std::uint32_t ip, std::uint16_t port) {
    net::Message m;
    m.header.ttl = 1;
    net::Pong p;
    p.ip = ip;
    p.port = port;
    p.files_shared = 0;  // overlay link
    m.payload = p;
    return m;
  };
  ASSERT_TRUE(pump([&] {
    return !suspect.connected.empty() && !peer_a.connected.empty();
  }));
  suspect.engine.send(cs, hello(s_addr, 9));
  peer_a.engine.send(ca, hello(a_addr, 1));
  ASSERT_TRUE(pump([&] { return judge.overlay_degree() == 2; }));

  // S advertises {judge, A, B}; port 0 leaves the judge no way to dial B.
  net::Message list;
  list.header.ttl = 1;
  list.payload = net::NeighborList{
      {{judge.self_address(), 0}, {a_addr, 0}, {b_addr, 0}}};
  suspect.engine.send(cs, list);
  ASSERT_TRUE(pump([&] { return judge.police().has_snapshot(s_addr); }));

  // S floods past the warning threshold until a protocol minute of the
  // judge sees it and opens the round.
  for (std::uint16_t serial = 0; judge.police().round_on(s_addr) == nullptr;
       ++serial) {
    ASSERT_LT(serial, 3000) << "the flood never opened a round";
    net::Message q;
    q.header.guid.bytes[0] = static_cast<std::uint8_t>(serial);
    q.header.guid.bytes[1] = static_cast<std::uint8_t>(serial >> 8);
    q.header.guid.bytes[15] = 0x77;
    q.header.ttl = 1;
    q.payload = net::Query{0, "flood"};
    suspect.engine.send(cs, q);
    judge.poll_once(2);
    suspect.engine.poll_once(2);
    peer_a.engine.poll_once(2);
  }

  // A first testifies as B, then as itself; one connection keeps order,
  // so once A's own answer is on record the forgery has been handled.
  auto report = [&](std::uint32_t source) {
    net::Message m;
    m.header.ttl = 1;
    net::NeighborTraffic nt;
    nt.source_ip = source;
    nt.suspect_ip = s_addr;
    nt.outgoing_queries = 5000;
    m.payload = nt;
    return m;
  };
  peer_a.engine.send(ca, report(b_addr));
  peer_a.engine.send(ca, report(a_addr));
  ASSERT_TRUE(pump([&] {
    const core::BuddyRound* round = judge.police().round_on(s_addr);
    return round == nullptr || round->answered(a_addr);
  }));

  const core::BuddyRound* round = judge.police().round_on(s_addr);
  ASSERT_NE(round, nullptr) << "the round closed: a forged answer completed it";
  EXPECT_TRUE(round->has_member(b_addr));
  EXPECT_FALSE(round->answered(b_addr)) << "A's forgery filled B's slot";
  EXPECT_EQ(judge.forged_reports(), 1u);
}

/// Records the receivers of a LocalPolice's list advertisements.
struct ListSends final : obs::TraceSink {
  struct Send {
    SimTime t;
    std::uint32_t to;
  };
  std::vector<Send> sends;
  void on_event(const obs::TraceEvent& e) override {
    if (e.type == obs::EventType::kNeighborListSent) sends.push_back({e.t, e.b});
  }
};

TEST(Node, EvictionDuringAdvertisementSkipsNoNeighbour) {
  // The judge's periodic advertisement evicts its first neighbour, a
  // reader that stopped draining: the list send pushes that link's write
  // queue past the backpressure bound. The eviction's on_close must not
  // erase from the neighbour list the advertisement is walking, or the
  // walk skips the next neighbour and repeats the last one.
  constexpr std::size_t kBound = 64 * 1024;
  NodeConfig cfg = quick_node(0);
  cfg.engine.max_write_queue = kBound;
  cfg.ddp.warning_threshold = 1e12;  // no rounds: only lists and floods
  Node judge(cfg);
  ASSERT_TRUE(judge.start());
  ListSends trace;
  judge.police().set_trace_sink(&trace);

  TestPeer slow, flooder, other;
  auto pump = [&](auto done, bool with_slow, int rounds = 1500) {
    for (int i = 0; i < rounds; ++i) {
      if (done()) return true;
      judge.poll_once(2);
      if (with_slow) slow.engine.poll_once(2);
      flooder.engine.poll_once(2);
      other.engine.poll_once(2);
    }
    return done();
  };
  // Join one at a time so the judge lists them in this order; the slow
  // peer is the judge's first connection.
  std::vector<ConnId> to_judge;
  std::uint32_t index = 1;
  for (TestPeer* p : {&slow, &flooder, &other}) {
    const ConnId c = p->engine.connect("127.0.0.1", judge.listen_port());
    ASSERT_NE(c, kInvalidConn);
    ASSERT_TRUE(pump([&] { return !p->connected.empty(); }, true));
    net::Message hello;
    hello.header.ttl = 1;
    hello.payload = net::Pong{static_cast<std::uint16_t>(index),
                              net::peer_address(index), 0, 0};
    p->engine.send(c, hello);
    ASSERT_TRUE(pump([&] { return judge.overlay_degree() == index; }, true));
    to_judge.push_back(c);
    ++index;
  }
  const std::vector<std::uint32_t> joined = judge.police().neighbors();
  ASSERT_EQ(joined.size(), 3u);
  ASSERT_EQ(joined[0], net::peer_address(1));
  constexpr ConnId kSlowAtJudge = 1;  // the judge's first accepted link
  ASSERT_TRUE(judge.engine().is_open(kSlowAtJudge));

  net::Message list;
  list.payload = net::NeighborList{{{joined[0], 0}, {joined[1], 0}, {joined[2], 0}}};
  const std::size_t list_bytes = net::encode(list).size();
  std::uint16_t serial = 0;
  auto query = [&serial](std::size_t search_bytes) {
    net::Message q;
    q.header.guid.bytes[0] = static_cast<std::uint8_t>(serial);
    q.header.guid.bytes[1] = static_cast<std::uint8_t>(serial >> 8);
    q.header.guid.bytes[15] = 0x55;
    ++serial;
    q.header.ttl = 3;
    q.payload = net::Query{0, std::string(search_bytes, 'x')};
    return q;
  };
  const std::size_t query_base = net::encode(query(0)).size();
  // The flooder's queries reach `slow` through the judge, which it no
  // longer reads: they fill the kernel buffers, then the judge's queue.
  // Stop once the queue is within one list of the bound, topping up only
  // right after an advertisement so the next one is the list that evicts.
  std::size_t lists_seen = trace.sends.size();
  auto forward = [&](std::size_t wire_bytes) {
    const std::size_t got = other.messages.size();
    flooder.engine.send(to_judge[1], query(wire_bytes - query_base));
    ASSERT_TRUE(pump([&] { return other.messages.size() > got; }, false));
  };
  for (int step = 0; judge.overlay_degree() == 3; ++step) {
    ASSERT_LT(step, 20000) << "the slow peer was never evicted";
    const std::size_t gap = kBound - judge.engine().write_queue_bytes(kSlowAtJudge);
    if (gap >= 2 * list_bytes + query_base) {
      forward(std::min<std::size_t>(8000, gap - 2 * list_bytes));
    } else if (gap >= list_bytes && trace.sends.size() > lists_seen) {
      forward(std::max(query_base, gap - list_bytes + 1));
    } else {
      lists_seen = trace.sends.size();
      pump([] { return false; }, false, 1);
    }
  }

  // The advertisement that evicted `slow` went to each neighbour once.
  ASSERT_FALSE(trace.sends.empty());
  std::vector<std::uint32_t> last;
  for (const ListSends::Send& s : trace.sends) {
    if (s.t == trace.sends.back().t) last.push_back(s.to);
  }
  EXPECT_EQ(last, joined);
  EXPECT_EQ(judge.police().neighbors(),
            (std::vector<std::uint32_t>{joined[1], joined[2]}));
}

TEST(Node, SigtermShutsDownCleanlyWithoutLeakingFds) {
  const std::size_t fds_before = open_fd_count();
  {
    NodeConfig cfg = quick_node(4);
    cfg.query_rate_per_minute = 10.0;
    Node n(cfg);
    ASSERT_TRUE(n.start());
    ASSERT_TRUE(n.engine().install_signal_handlers());
    for (int i = 0; i < 10; ++i) n.poll_once(2);
    ASSERT_EQ(::kill(::getpid(), SIGTERM), 0);
    // run() must notice the signal and return instead of looping forever.
    n.run();
    EXPECT_TRUE(n.engine().stopped());
  }
  const std::size_t fds_after = open_fd_count();
  EXPECT_EQ(fds_after, fds_before) << "file descriptors leaked on shutdown";
}

TEST(Testbed, ReportReadsNodeTraces) {
  // Three synthetic node traces: judges 0 and 1 both cut attacker 2, at
  // minutes 3.5 and 2.5; judge 0 also cuts honest peer 1 at minute 4.
  // Node 1's file has no final minute_report and ends in a torn line, as
  // a process killed mid-write leaves it.
  const ScratchDir dir("testbed_report");
  const std::uint32_t addr0 = net::peer_address(0);
  const std::uint32_t addr1 = net::peer_address(1);
  const std::uint32_t addr2 = net::peer_address(2);
  auto joined = [](obs::Tracer& t, std::uint32_t index, bool attacker) {
    t.emit(obs::EventType::kPeerJoined, 0.0, net::peer_address(index),
           kInvalidPeer,
           {{"index", double(index)},
            {"port", 42000.0 + index},
            {"attacker", attacker ? 1.0 : 0.0}});
  };
  auto cut = [](obs::Tracer& t, double minute, std::uint32_t suspect,
                std::uint32_t judge) {
    t.emit(obs::EventType::kSuspectCut, minutes(minute), suspect, judge,
           {{"g", 9.0}, {"s", 4.0}, {"via_single", 0.0}});
  };
  auto report = [](obs::Tracer& t, double minute, std::uint32_t self,
                   double issued, bool final) {
    obs::TraceEvent e;
    e.t = minutes(minute);
    e.type = obs::EventType::kMinuteReport;
    e.a = self;
    e.add_field("issued", issued);
    e.add_field("forwarded", 2.0 * issued);
    e.add_field("hits", 1.0);
    if (final) e.add_field("final", 1.0);
    t.emit(e);
  };
  {
    obs::JsonlFileSink sink(dir.file("node0.jsonl"));
    obs::Tracer t;
    t.bind(&sink);
    joined(t, 0, false);
    report(t, 1.0, addr0, 4.0, false);
    cut(t, 3.5, addr2, addr0);
    cut(t, 4.0, addr1, addr0);
    report(t, 6.0, addr0, 10.0, true);
  }
  {
    obs::JsonlFileSink sink(dir.file("node1.jsonl"));
    obs::Tracer t;
    t.bind(&sink);
    joined(t, 1, false);
    cut(t, 2.5, addr2, addr1);
    report(t, 3.0, addr1, 3.0, false);
    report(t, 4.0, addr1, 5.0, false);
  }
  std::ofstream(dir.file("node1.jsonl"), std::ios::app) << "{\"t\":270,\"ty";
  {
    obs::JsonlFileSink sink(dir.file("node2.jsonl"));
    obs::Tracer t;
    t.bind(&sink);
    joined(t, 2, true);
    report(t, 6.0, addr2, 600.0, true);
  }

  const experiments::TestbedReport r =
      experiments::aggregate_stats(dir.path.string());
  EXPECT_EQ(r.nodes_reporting, 3u);
  EXPECT_EQ(r.finals_reporting, 2u);
  EXPECT_EQ(r.attackers, 1u);
  EXPECT_EQ(r.attackers_cut, 1u);
  EXPECT_EQ(r.honest_cut, 1u);
  EXPECT_DOUBLE_EQ(r.first_detection_minute, 2.5);
  EXPECT_DOUBLE_EQ(r.mean_detection_minute, 2.5);
  // Totals come from each file's last minute_report, final or not.
  EXPECT_EQ(r.total_issued, 10u + 5u + 600u);
  EXPECT_EQ(r.total_forwarded, 20u + 10u + 1200u);
  EXPECT_EQ(r.total_hits, 3u);

  std::ostringstream csv;
  experiments::write_report_csv(r, 1.0, csv);
  EXPECT_EQ(csv.str(),
            "minute,judge,suspect,suspect_is_attacker,g,s\n"
            "2.5,1,10.0.0.2,1,9,4\n"
            "3.5,0,10.0.0.2,1,9,4\n"
            "4,0,10.0.0.1,0,9,4\n"
            "# nodes=3 attackers=1 attackers_cut=1 honest_cut=1 "
            "first_detection_min=2.5 mean_detection_min=2.5 "
            "detection_latency_min=1.5\n");
}

}  // namespace
}  // namespace ddp::netengine
