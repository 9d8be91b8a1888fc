// Observability-plane tests: trace events and sinks, the JSONL schema
// (write -> parse -> validate round trips), the metrics registry, the
// profilers, the util::log bridge — and the two contracts everything else
// leans on: tracing changes no results, and same seed means the same
// trace, byte for byte.

#include <gtest/gtest.h>

#include <sstream>

#include "experiments/scenario.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "obs/trace_read.hpp"
#include "sim/engine.hpp"
#include "util/log.hpp"

namespace ddp::obs {
namespace {

// ------------------------------------------------------------- events

TEST(TraceEvent, FieldCapacityAndNoteTruncation) {
  TraceEvent e;
  constexpr std::size_t kMax = TraceEvent::kMaxFields;
  for (std::size_t i = 0; i < kMax + 2; ++i) {
    e.add_field("k", static_cast<double>(i));
  }
  EXPECT_EQ(e.n_fields, kMax);
  EXPECT_DOUBLE_EQ(e.fields[kMax - 1].value, double(kMax - 1));  // rest dropped

  const std::string longtext(200, 'x');
  e.set_note(longtext);
  EXPECT_EQ(std::string(e.note).size(), TraceEvent::kNoteCapacity - 1);
}

TEST(TraceEvent, NamesRoundTripThroughLookup) {
  for (std::size_t i = 0; i < kEventTypeCount; ++i) {
    const auto type = static_cast<EventType>(i);
    const auto back = event_from_name(event_name(type));
    ASSERT_TRUE(back.has_value()) << event_name(type);
    EXPECT_EQ(*back, type);
  }
  EXPECT_FALSE(event_from_name("no_such_event").has_value());
}

TEST(TraceJsonl, OmitsUnsetPartsAndPrintsIntegersExactly) {
  TraceEvent e;
  e.t = 360.0;
  e.type = EventType::kSuspectCut;
  EXPECT_EQ(to_jsonl(e), "{\"t\":360,\"type\":\"suspect_cut\"}");

  e.a = 17;
  e.b = 42;
  e.add_field("g", 41.5);
  e.add_field("k", 3.0);
  e.set_note("say \"hi\"\n");
  EXPECT_EQ(to_jsonl(e),
            "{\"t\":360,\"type\":\"suspect_cut\",\"a\":17,\"b\":42,"
            "\"kv\":{\"g\":41.5,\"k\":3},\"note\":\"say \\\"hi\\\"\\n\"}");
}

// -------------------------------------------------------------- sinks

TEST(RingBufferSink, WraparoundKeepsTheNewestTail) {
  RingBufferSink ring(4);
  for (int i = 0; i < 10; ++i) {
    TraceEvent e;
    e.t = static_cast<double>(i);
    ring.on_event(e);
  }
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total(), 10u);
  // Oldest retained is event 6; snapshot comes back oldest-first.
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(snap[i].t, 6.0 + static_cast<double>(i));
    EXPECT_DOUBLE_EQ(ring.at(i).t, 6.0 + static_cast<double>(i));
  }
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.total(), 0u);
}

TEST(RingBufferSink, BelowCapacityIsOldestFirstFromZero) {
  RingBufferSink ring(8);
  for (int i = 0; i < 3; ++i) {
    TraceEvent e;
    e.t = static_cast<double>(i);
    ring.on_event(e);
  }
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_DOUBLE_EQ(ring.at(0).t, 0.0);
  EXPECT_DOUBLE_EQ(ring.at(2).t, 2.0);
}

TEST(FanoutSink, ForwardsToEverySink) {
  RingBufferSink a(4), b(4);
  FanoutSink fan;
  fan.add(&a);
  fan.add(&b);
  fan.add(nullptr);  // ignored
  TraceEvent e;
  fan.on_event(e);
  EXPECT_EQ(a.total(), 1u);
  EXPECT_EQ(b.total(), 1u);
}

TEST(Tracer, UnboundEmitsNothingAndSkipsArgumentWork) {
  Tracer tracer;
  EXPECT_FALSE(tracer.on());
  int evaluations = 0;
  const auto expensive = [&evaluations] {
    ++evaluations;
    return 1.0;
  };
  DDP_TRACE(tracer, EventType::kQueryIssued, 0.0, 1, kInvalidPeer,
            {{"v", expensive()}});
  EXPECT_EQ(evaluations, 0);

  RingBufferSink ring(4);
  tracer.bind(&ring);
  DDP_TRACE(tracer, EventType::kQueryIssued, 0.0, 1, kInvalidPeer,
            {{"v", expensive()}});
  EXPECT_EQ(evaluations, 1);
  EXPECT_EQ(ring.total(), 1u);
  EXPECT_EQ(ring.at(0).a, 1u);
}

// ------------------------------------------------------- parse/validate

TEST(TraceRead, ParsesWhatToJsonlWrites) {
  TraceEvent e;
  e.t = 360.0;
  e.type = EventType::kIndicatorComputed;
  e.a = 343;
  e.b = 224;
  e.add_field("g", 41.1336);
  e.add_field("responders", 2.0);
  e.set_note("round 3");

  const auto r = parse_trace_line(to_jsonl(e));
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(r->t, 360.0);
  EXPECT_EQ(r->known, EventType::kIndicatorComputed);
  EXPECT_EQ(r->a, 343u);
  EXPECT_EQ(r->b, 224u);
  ASSERT_TRUE(r->field("g").has_value());
  EXPECT_DOUBLE_EQ(*r->field("g"), 41.1336);
  EXPECT_DOUBLE_EQ(*r->field("responders"), 2.0);
  EXPECT_FALSE(r->field("absent").has_value());
  EXPECT_EQ(r->note, "round 3");
}

TEST(TraceRead, CorruptLinesReportAReason) {
  std::string why;
  EXPECT_FALSE(parse_trace_line("not json at all", &why).has_value());
  EXPECT_FALSE(why.empty());
  EXPECT_FALSE(parse_trace_line("{\"type\":\"log\"", &why).has_value());
  EXPECT_FALSE(parse_trace_line("", &why).has_value());
}

TEST(TraceValidate, AcceptsCleanStreamFlagsBrokenOnes) {
  std::istringstream good(
      "{\"t\":1,\"type\":\"query_issued\",\"a\":0}\n"
      "{\"t\":-1,\"type\":\"log\",\"kv\":{\"level\":2}}\n"  // wall layer
      "{\"t\":2,\"type\":\"query_hit\",\"a\":3,\"b\":0}\n");
  std::vector<SchemaError> errors;
  const auto records = validate_trace(good, errors);
  EXPECT_TRUE(errors.empty());
  EXPECT_EQ(records.size(), 3u);

  std::istringstream bad(
      "{\"t\":5,\"type\":\"query_issued\"}\n"
      "{\"t\":5,\"type\":\"made_up_event\"}\n"   // unknown type
      "{{{garbage\n"                               // unparseable
      "{\"t\":4,\"type\":\"query_hit\"}\n");      // time went backwards
  errors.clear();
  validate_trace(bad, errors);
  EXPECT_EQ(errors.size(), 3u);
  EXPECT_EQ(errors[0].line, 2u);
  EXPECT_EQ(errors[1].line, 3u);
  EXPECT_EQ(errors[2].line, 4u);
}

TEST(TraceFilter, MatchesEitherEndpointTypeAndWindow) {
  const auto rec = [](double t, EventType type, PeerId a, PeerId b) {
    TraceEvent e;
    e.t = t;
    e.type = type;
    e.a = a;
    e.b = b;
    auto r = parse_trace_line(to_jsonl(e));
    EXPECT_TRUE(r.has_value());
    return *r;
  };
  TraceFilter f;
  f.peer = 7;
  EXPECT_TRUE(f.matches(rec(1, EventType::kQueryHit, 7, 3)));
  EXPECT_TRUE(f.matches(rec(1, EventType::kQueryHit, 3, 7)));
  EXPECT_FALSE(f.matches(rec(1, EventType::kQueryHit, 3, 4)));
  f.type = EventType::kSuspectCut;
  EXPECT_FALSE(f.matches(rec(1, EventType::kQueryHit, 7, 3)));
  EXPECT_TRUE(f.matches(rec(1, EventType::kSuspectCut, 7, 3)));
  f.t_min = 10.0;
  f.t_max = 20.0;
  EXPECT_FALSE(f.matches(rec(9.9, EventType::kSuspectCut, 7, 3)));
  EXPECT_TRUE(f.matches(rec(10.0, EventType::kSuspectCut, 7, 3)));
  EXPECT_TRUE(f.matches(rec(20.0, EventType::kSuspectCut, 7, 3)));
  EXPECT_FALSE(f.matches(rec(20.1, EventType::kSuspectCut, 7, 3)));
}

TEST(TraceSummarize, DefenseStorylineAndFlagToCutLatency) {
  std::istringstream in(
      "{\"t\":60,\"type\":\"suspect_flagged\",\"a\":5,\"b\":1}\n"
      "{\"t\":60,\"type\":\"suspect_flagged\",\"a\":6,\"b\":1}\n"
      "{\"t\":120,\"type\":\"suspect_flagged\",\"a\":5,\"b\":2}\n"
      "{\"t\":180,\"type\":\"suspect_cut\",\"a\":5,\"b\":1}\n"
      "{\"t\":181,\"type\":\"list_violation\",\"a\":9,\"b\":1}\n"
      "{\"t\":200,\"type\":\"traffic_timeout\",\"a\":1,\"b\":5}\n");
  const auto records = read_trace_records(in);
  const auto s = summarize_trace(records);
  EXPECT_EQ(s.records, 6u);
  EXPECT_EQ(s.suspects_flagged, 2u);  // distinct peers 5 and 6
  EXPECT_EQ(s.suspects_cut, 1u);
  EXPECT_EQ(s.list_violations, 1u);
  EXPECT_EQ(s.control_timeouts, 1u);
  // Peer 5 first flagged at t=60, cut at t=180 -> 2 minutes.
  EXPECT_DOUBLE_EQ(s.mean_flag_to_cut_minutes, 2.0);
  EXPECT_DOUBLE_EQ(s.first_t, 60.0);
  EXPECT_DOUBLE_EQ(s.last_t, 200.0);
}

TEST(TraceSummarize, WallLayerLogsStayOutOfTheTimeRange) {
  // kLog events carry t=-1 (the wall layer has no sim clock); they must be
  // counted separately and never drag first_t below the simulation window.
  std::istringstream in(
      "{\"t\":-1,\"type\":\"log\",\"note\":\"warn: boot\"}\n"
      "{\"t\":30,\"type\":\"suspect_flagged\",\"a\":5,\"b\":1}\n"
      "{\"t\":-1,\"type\":\"log\",\"note\":\"warn: mid-run\"}\n"
      "{\"t\":90,\"type\":\"suspect_cut\",\"a\":5,\"b\":1}\n");
  const auto records = read_trace_records(in);
  const auto s = summarize_trace(records);
  EXPECT_EQ(s.records, 4u);
  EXPECT_EQ(s.wall_logs, 2u);
  EXPECT_DOUBLE_EQ(s.first_t, 30.0);
  EXPECT_DOUBLE_EQ(s.last_t, 90.0);
}

// ------------------------------------------------------------- metrics

TEST(Metrics, RegistrationIsIdempotentAndTyped) {
  MetricsRegistry reg;
  const auto c = reg.counter("flow.traffic");
  EXPECT_EQ(reg.counter("flow.traffic"), c);
  const auto g = reg.gauge("defense.active");
  const auto h = reg.histogram("flow.success", 0.0, 1.0, 10);
  EXPECT_EQ(reg.size(), 3u);
  EXPECT_EQ(reg.kind(c), MetricKind::kCounter);
  EXPECT_EQ(reg.kind(g), MetricKind::kGauge);
  EXPECT_EQ(reg.kind(h), MetricKind::kHistogram);
  EXPECT_EQ(reg.find("flow.traffic"), c);
  EXPECT_EQ(reg.find("nope"), kInvalidMetric);
}

TEST(Metrics, CounterGaugeHistogramSemantics) {
  MetricsRegistry reg;
  const auto c = reg.counter("c");
  reg.add(c);
  reg.add(c, 4.0);
  EXPECT_DOUBLE_EQ(reg.value(c), 5.0);

  const auto g = reg.gauge("g");
  reg.set(g, 7.0);
  reg.set(g, 3.0);
  EXPECT_DOUBLE_EQ(reg.value(g), 3.0);

  // 10 bins over [0,1): 0.05 -> bin 0, 0.55 twice -> bin 5; out-of-range
  // mass lands in underflow/overflow, never a regular bin.
  const auto h = reg.histogram("h", 0.0, 1.0, 10);
  reg.observe(h, 0.05);
  reg.observe(h, 0.55);
  reg.observe(h, 0.55);
  reg.observe(h, -1.0);
  reg.observe(h, 2.0);
  const util::Histogram* hist = reg.histogram_data(h);
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->bin_weight(0), 1.0);
  EXPECT_DOUBLE_EQ(hist->bin_weight(5), 2.0);
  EXPECT_DOUBLE_EQ(hist->underflow(), 1.0);
  EXPECT_DOUBLE_EQ(hist->overflow(), 1.0);
  EXPECT_DOUBLE_EQ(reg.value(h), 5.0);  // total weight
  EXPECT_EQ(reg.histogram_data(c), nullptr);
}

TEST(Metrics, SnapshotsBackfillLateMetricsAndExportCsv) {
  MetricsRegistry reg;
  const auto c = reg.counter("flow.msgs");
  reg.add(c, 10.0);
  reg.snapshot_minute(1.0);
  // Registered after the first snapshot: minute-1 row backfills with 0.
  const auto g = reg.gauge("flow.peers");
  reg.add(c, 5.0);
  reg.set(g, 99.0);
  reg.snapshot_minute(2.0);

  ASSERT_EQ(reg.history().size(), 2u);
  // The minute-1 row predates the gauge; the CSV pads it with 0.
  EXPECT_EQ(reg.history()[0].values.size(), 1u);
  EXPECT_EQ(reg.history()[1].values.size(), 2u);

  EXPECT_EQ(reg.to_csv(),
            "minute,flow.msgs,flow.peers\n"
            "1,10,0\n"
            "2,15,99\n");
}

TEST(Metrics, JsonCarriesKindsValuesAndBuckets) {
  MetricsRegistry reg;
  reg.add(reg.counter("c"), 2.0);
  reg.observe(reg.histogram("h", 0.0, 10.0, 2), 3.0);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"name\":\"c\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
}

// ----------------------------------------------------------- profilers

TEST(EngineProfiler, AggregatesByCategoryAndComputesThroughput) {
  EngineProfiler p;
  p.record(static_cast<std::uint8_t>(EventCategory::kTransmit), 1000, 5, 0.0);
  p.record(static_cast<std::uint8_t>(EventCategory::kTransmit), 3000, 9, 60.0);
  p.record(static_cast<std::uint8_t>(EventCategory::kService), 500, 2, 120.0);
  p.record(250, 100, 1, 120.0);  // out-of-range category -> generic

  EXPECT_EQ(p.total_events(), 4u);
  EXPECT_EQ(p.stats(EventCategory::kTransmit).events, 2u);
  EXPECT_DOUBLE_EQ(p.stats(EventCategory::kTransmit).mean_us(), 2.0);
  EXPECT_EQ(p.stats(EventCategory::kGeneric).events, 1u);
  EXPECT_EQ(p.max_pending(), 9u);
  EXPECT_DOUBLE_EQ(p.sim_span(), 120.0);
  EXPECT_DOUBLE_EQ(p.events_per_sim_minute(), 2.0);

  p.reset();
  EXPECT_EQ(p.total_events(), 0u);
  EXPECT_DOUBLE_EQ(p.sim_span(), 0.0);
}

TEST(EngineProfiler, CountsExactlyTheDispatchedEngineEvents) {
  sim::Engine engine;
  EngineProfiler p;
  engine.set_profiler(&p);
  int fired = 0;
  for (int i = 0; i < 5; ++i) {
    engine.schedule_at(static_cast<double>(i), [&fired] { ++fired; },
                       EventCategory::kTransmit);
  }
  const auto periodic =
      engine.schedule_every(1.0, [] {}, 0.5, EventCategory::kPeriodic);
  engine.run_until(4.0);
  engine.cancel(periodic);
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(p.stats(EventCategory::kTransmit).events, 5u);
  EXPECT_EQ(p.stats(EventCategory::kPeriodic).events, 4u);  // 0.5..3.5
  EXPECT_EQ(p.total_events(), 9u);
}

TEST(PhaseProfiler, StableIdsExplicitAddAndScopes) {
  PhaseProfiler p;
  const auto a = p.phase("defense");
  EXPECT_EQ(p.phase("defense"), a);  // same name -> same id
  const auto b = p.phase("churn");
  p.add(a, 5000, 2);
  { PhaseProfiler::Scope scope(p, b); }
  ASSERT_EQ(p.phases().size(), 2u);
  EXPECT_EQ(p.phases()[a].calls, 2u);
  EXPECT_EQ(p.phases()[a].wall_nanos, 5000u);
  EXPECT_EQ(p.phases()[b].calls, 1u);
  EXPECT_GE(p.total_wall_nanos(), 5000u);

  MetricsRegistry reg;
  p.export_to(reg);
  EXPECT_NE(reg.find("profile.defense_ms"), kInvalidMetric);
}

// ---------------------------------------------------------- log bridge

TEST(LogBridge, MirrorsLogLinesAsWallLayerEvents) {
  RingBufferSink ring(8);
  install_log_bridge(&ring);
  util::log(util::LogLevel::kError, "plane down", {{"peer", 17.0}});
  install_log_bridge(nullptr);
  util::log_error("after uninstall");  // must not reach the ring

  ASSERT_EQ(ring.total(), 1u);
  const TraceEvent& e = ring.at(0);
  EXPECT_EQ(e.type, EventType::kLog);
  EXPECT_LT(e.t, 0.0);  // wall layer
  EXPECT_STREQ(e.note, "plane down peer=17");
  ASSERT_EQ(e.n_fields, 1u);
  EXPECT_DOUBLE_EQ(e.fields[0].value,
                   static_cast<double>(util::LogLevel::kError));
}

TEST(LogParse, LevelNamesAnyCaseGarbageRejected) {
  EXPECT_EQ(util::parse_log_level("debug"), util::LogLevel::kDebug);
  EXPECT_EQ(util::parse_log_level("WARN"), util::LogLevel::kWarn);
  EXPECT_EQ(util::parse_log_level("Off"), util::LogLevel::kOff);
  EXPECT_FALSE(util::parse_log_level("loud").has_value());
  EXPECT_FALSE(util::parse_log_level("").has_value());
}

// ------------------------------------------------- end-to-end contracts

experiments::ScenarioConfig tiny_config(std::uint64_t seed) {
  auto cfg = experiments::paper_scenario(120, 10, defense::Kind::kDdPolice,
                                         seed);
  cfg.total_minutes = 8.0;
  cfg.attack.start_minute = 2.0;
  cfg.warmup_minutes = 3.0;
  return cfg;
}

TEST(ObsContract, SameSeedProducesByteIdenticalTraces) {
  std::ostringstream first, second;
  {
    auto cfg = tiny_config(11);
    JsonlSink sink(first);
    cfg.obs.trace_sink = &sink;
    experiments::run_scenario(cfg);
  }
  {
    auto cfg = tiny_config(11);
    JsonlSink sink(second);
    cfg.obs.trace_sink = &sink;
    experiments::run_scenario(cfg);
  }
  EXPECT_FALSE(first.str().empty());
  EXPECT_EQ(first.str(), second.str());
}

TEST(ObsContract, TracingAndProfilingChangeNoResults) {
  auto plain_cfg = tiny_config(12);
  const auto plain = experiments::run_scenario(plain_cfg);

  auto observed_cfg = tiny_config(12);
  RingBufferSink ring(1024);
  observed_cfg.obs.trace_sink = &ring;
  observed_cfg.obs.metrics = true;
  observed_cfg.obs.profile = true;
  const auto observed = experiments::run_scenario(observed_cfg);

  EXPECT_GT(ring.total(), 0u);
  ASSERT_NE(observed.metrics_registry, nullptr);
  ASSERT_NE(observed.profile, nullptr);
  EXPECT_EQ(plain.metrics_registry, nullptr);
  // DD-POLICE's sub-phases land in their own profile, once a minute each,
  // and stay out of the run's phase list.
  ASSERT_NE(observed.defense_profile, nullptr);
  EXPECT_EQ(plain.defense_profile, nullptr);
  std::vector<std::string> sub_phases;
  for (const auto& ph : observed.defense_profile->phases()) {
    sub_phases.push_back(ph.name);
    EXPECT_EQ(ph.calls, 8u) << ph.name;
  }
  EXPECT_EQ(sub_phases,
            (std::vector<std::string>{"exchange", "flag_scan", "rounds"}));
  for (const auto& ph : observed.profile->phases()) {
    EXPECT_NE(ph.name, "rounds");
    EXPECT_NE(ph.name, "service_emit");
  }
  // The flow tick's stages land in a third profile, once per tick each.
  ASSERT_NE(observed.flow_profile, nullptr);
  EXPECT_EQ(plain.flow_profile, nullptr);
  std::vector<std::string> flow_stages;
  for (const auto& ph : observed.flow_profile->phases()) {
    flow_stages.push_back(ph.name);
    EXPECT_EQ(ph.calls, 8u * 60u) << ph.name;
  }
  EXPECT_EQ(flow_stages, (std::vector<std::string>{"arrivals", "service_emit",
                                                   "fold"}));

  // Bit-identical outcomes: observation consumes no randomness.
  EXPECT_EQ(plain.summary.avg_success_rate,
            observed.summary.avg_success_rate);
  EXPECT_EQ(plain.summary.avg_traffic_per_minute,
            observed.summary.avg_traffic_per_minute);
  EXPECT_EQ(plain.summary.avg_response_time,
            observed.summary.avg_response_time);
  EXPECT_EQ(plain.decisions.size(), observed.decisions.size());
  EXPECT_EQ(plain.errors.false_judgment, observed.errors.false_judgment);
  ASSERT_EQ(plain.history.size(), observed.history.size());
  for (std::size_t i = 0; i < plain.history.size(); ++i) {
    EXPECT_EQ(plain.history[i].traffic_messages,
              observed.history[i].traffic_messages);
    EXPECT_EQ(plain.history[i].success_rate,
              observed.history[i].success_rate);
  }
}

TEST(ObsContract, ScenarioTraceIsSchemaValid) {
  auto cfg = tiny_config(13);
  std::ostringstream out;
  JsonlSink sink(out);
  cfg.obs.trace_sink = &sink;
  experiments::run_scenario(cfg);

  std::istringstream in(out.str());
  std::vector<SchemaError> errors;
  const auto records = validate_trace(in, errors);
  for (const auto& e : errors) ADD_FAILURE() << e.line << ": " << e.message;
  EXPECT_GT(records.size(), 100u);

  const auto s = summarize_trace(records);
  EXPECT_GT(s.count(EventType::kMinuteReport), 0u);
  EXPECT_GT(s.count(EventType::kNeighborListSent), 0u);
  EXPECT_EQ(s.unknown_types, 0u);
}

}  // namespace
}  // namespace ddp::obs
