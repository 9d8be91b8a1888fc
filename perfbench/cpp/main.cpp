// perfbench: drives the DD-POLICE system through its public entry points
// and prints one JSON object with the end-to-end metrics, the workload's
// named metrics, the per-layer metrics of a traced run, and the operation
// and correctness tallies.
//
//   perfbench <workload> --seed N --seconds S --trace 0|1
//             [--smoke] [--flow-jobs J] [--spans PATH]
//   perfbench selftest
//
// Workloads: flow20k_attack, paper2k, packet_flood, socket_loopback.
// With --trace 1 the workload runs twice, first untraced and then traced,
// each for half of --seconds; the traced pass gives the per-layer metrics
// and the difference between the two is the tracing overhead.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>

#include "common.hpp"

namespace perfbench {

// ------------------------------------------------------------- SpanTrace

std::size_t SpanTrace::intern(const char* name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const std::size_t id = names_.size();
  ids_.emplace(name, id);
  names_.emplace_back(name);
  totals_.emplace_back();
  return id;
}

void SpanTrace::open(const char* name) {
  Open o;
  o.name = intern(name);
  if (records_.size() < kMaxStored) {
    Record r;
    r.name = o.name;
    r.parent = stack_.empty() ? -1 : stack_.back().record;
    o.record = static_cast<std::int64_t>(records_.size());
    records_.push_back(r);
  }
  ++recorded_;
  o.start = mono_ns();
  stack_.push_back(o);
}

void SpanTrace::close() {
  const std::uint64_t end = mono_ns();
  const Open o = stack_.back();
  stack_.pop_back();
  const std::uint64_t wall = end - o.start;
  Totals& t = totals_[o.name];
  ++t.calls;
  t.wall_ns += wall;
  t.self_ns += wall > o.child_ns ? wall - o.child_ns : 0;
  if (o.record >= 0) {
    Record& r = records_[static_cast<std::size_t>(o.record)];
    r.start = o.start;
    r.end = end;
  }
  if (!stack_.empty()) stack_.back().child_ns += wall;
}

SpanTrace::Totals SpanTrace::totals(const std::string& name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return totals_[i];
  }
  return Totals{};
}

double SpanTrace::mean_us(const std::string& name) const {
  const Totals t = totals(name);
  return t.calls > 0 ? static_cast<double>(t.wall_ns) * 1e-3 /
                           static_cast<double>(t.calls)
                     : 0.0;
}

bool SpanTrace::write(const std::string& path, const std::string& run_id) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"run\":\"%s\",\"spans\":%llu,\"stored\":%zu,"
               "\"clock\":\"steady_ns\"}\n",
               run_id.c_str(), static_cast<unsigned long long>(recorded_),
               records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f,
                 "{\"run\":\"%s\",\"id\":%zu,\"parent\":%lld,\"name\":\"%s\","
                 "\"start_ns\":%llu,\"end_ns\":%llu}\n",
                 run_id.c_str(), i, static_cast<long long>(r.parent),
                 names_[r.name].c_str(),
                 static_cast<unsigned long long>(r.start),
                 static_cast<unsigned long long>(r.end));
  }
  return std::fclose(f) == 0;
}

// ------------------------------------------------------------- helpers

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

void digest_decisions(Digest& d, const std::vector<ddp::core::Decision>& ds) {
  d.u(ds.size());
  for (const auto& x : ds) {
    d.f(x.minute);
    d.u(x.judge);
    d.u(x.suspect);
    d.f(x.g);
    d.f(x.s);
  }
}

void DefenseTally::add(const std::vector<ddp::core::Decision>& ds,
                       const std::vector<char>& is_bad,
                       double attack_start_minute, double end_minute) {
  std::set<ddp::PeerId> honest;
  std::map<ddp::PeerId, double> first_cut;
  for (const auto& x : ds) {
    if (x.suspect >= is_bad.size()) continue;
    if (is_bad[x.suspect] != 0) {
      first_cut.emplace(x.suspect, x.minute);  // decisions are time-ordered
    } else {
      honest.insert(x.suspect);
    }
  }
  std::size_t agents = 0;
  for (ddp::PeerId p = 0; p < is_bad.size(); ++p) {
    if (is_bad[p] == 0) continue;
    ++agents;
    const auto cut = first_cut.find(p);
    detect_.push_back((cut != first_cut.end() ? cut->second : end_minute) -
                      attack_start_minute);
  }
  honest_.push_back(static_cast<double>(honest.size()));
  agents_cut_.push_back(agents > 0 ? 100.0 * static_cast<double>(first_cut.size()) /
                                         static_cast<double>(agents)
                                   : 0.0);
  decisions_ += static_cast<double>(ds.size());
}

void DefenseTally::report(Metrics& m) const {
  m.push_back({"honest_cuts", mean(honest_), "peers"});
  m.push_back({"agents_cut_pct", mean(agents_cut_), "%"});
  m.push_back({"detect_min_p50", detect_min_p50(), "sim-min"});
  m.push_back({"decisions", decisions_, "count"});
}

void police_layers(const ddp::core::DdPolice& police, Metrics& layers) {
  const double rounds = static_cast<double>(police.rounds_run());
  const double decisions = static_cast<double>(police.decisions().size());
  layers.push_back(
      {"core.suspicions", static_cast<double>(police.suspicions()), "count"});
  layers.push_back({"core.rounds", rounds, "count"});
  layers.push_back({"core.exchange_msgs",
                    static_cast<double>(police.exchange_messages()), "count"});
  layers.push_back({"core.traffic_msgs",
                    static_cast<double>(police.traffic_messages()), "count"});
  layers.push_back({"core.decisions", decisions, "count"});
  layers.push_back(
      {"core.cut_ratio", rounds > 0.0 ? decisions / rounds : 0.0, "ratio"});
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

namespace {

ddp::core::Decision cut(double minute, ddp::PeerId suspect) {
  ddp::core::Decision d;
  d.minute = minute;
  d.judge = 0;
  d.suspect = suspect;
  return d;
}

/// Checks of the benchmark's own outcome arithmetic (`perfbench selftest`).
/// Returns the number of failed checks.
int selftest() {
  int failed = 0;
  const auto expect = [&failed](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "selftest: %s\n", what);
      ++failed;
    }
  };
  // Peers 1-3 are agents, 0 and 4 honest; the attack runs from minute 2 to 10.
  const std::vector<char> bad = {0, 1, 1, 1, 0};
  {
    DefenseTally t;
    t.add({cut(3.0, 4)}, bad, 2.0, 10.0);
    Metrics m;
    t.report(m);
    expect(t.detect_min_p50() == 8.0,
           "a trial with no agent cut reports its whole attack window");
    expect(m[0].name == "honest_cuts" && m[0].value == 1.0,
           "the honest peer cut is counted");
    expect(m[1].name == "agents_cut_pct" && m[1].value == 0.0,
           "no agent cut reads 0%");
  }
  {
    DefenseTally t;
    t.add({cut(3.0, 1), cut(4.0, 2), cut(5.0, 1)}, bad, 2.0, 10.0);
    expect(t.detect_min_p50() == 2.0,
           "the median counts each agent's first cut and the uncut agent");
  }
  {
    DefenseTally t;
    t.add({}, bad, 2.0, 10.0);
    t.add({cut(3.0, 1), cut(3.0, 2), cut(3.0, 3)}, bad, 2.0, 10.0);
    expect(t.detect_min_p50() == 4.5,
           "agents of a missed trial count at the trial's end");
  }
  {
    expect(another_repeat(1, 50.0, 40.0, 30.0), "a pass runs at least two repeats");
    expect(another_repeat(2, 20.0, 10.0, 30.0) &&
               !another_repeat(2, 26.0, 10.0, 30.0),
           "a further repeat starts while half of it fits the budget");
  }
  if (failed == 0) std::printf("selftest ok\n");
  return failed;
}

using Runner = Outcome (*)(const Options&, bool, double, SpanTrace&, Checks&);

Runner runner_for(const std::string& workload) {
  if (workload == "flow20k_attack") return run_flow20k_attack;
  if (workload == "paper2k") return run_paper2k;
  if (workload == "packet_flood") return run_packet_flood;
  if (workload == "socket_loopback") return run_socket_loopback;
  return nullptr;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench <flow20k_attack|paper2k|"
               "packet_flood|socket_loopback> --seed N --seconds S "
               "--trace 0|1 [--smoke] [--flow-jobs J] [--spans PATH]\n"
               "       perfbench selftest\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  if (argc < 2) usage("missing workload");
  Options o;
  o.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        o.trace = value() != "0";
      } else if (a == "--smoke") {
        o.smoke = true;
      } else if (a == "--flow-jobs") {
        o.flow_jobs = static_cast<unsigned>(std::stoul(value()));
      } else if (a == "--spans") {
        o.spans_path = value();
      } else {
        usage(("unknown option " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (!(o.seconds > 0.0) || o.seconds > 600.0) usage("--seconds out of range");
  return o;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

void print_metrics(const char* key, const Metrics& ms, Checks& checks,
                   bool& first_key) {
  std::printf("%s\"%s\":{", first_key ? "" : ",", key);
  first_key = false;
  for (std::size_t i = 0; i < ms.size(); ++i) {
    double v = ms[i].value;
    if (!std::isfinite(v)) {
      checks.verify(false, "metric " + ms[i].name + " is not finite");
      v = 0.0;
    }
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", i ? "," : "",
                ms[i].name.c_str(), v, ms[i].unit.c_str());
  }
  std::printf("}");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc == 2 && std::string(argv[1]) == "selftest") return selftest() == 0 ? 0 : 1;
  const Options o = parse(argc, argv);
  const Runner run = runner_for(o.workload);
  if (run == nullptr) usage(("unknown workload " + o.workload).c_str());

  Checks checks;
  Outcome main_pass;
  Metrics layers;
  SpanTrace off(false);
  SpanTrace tracer(true);
  try {
    const double budget_s = o.trace ? o.seconds / 2.0 : o.seconds;
    main_pass = run(o, false, budget_s, off, checks);
    if (o.trace) {
      Outcome traced = run(o, true, budget_s, tracer, checks);
      checks.verify(traced.digest == main_pass.digest,
                    "traced and untraced passes disagree on the digest");
      layers = traced.layers;
      const double overhead =
          traced.ops_per_s > 0.0
              ? 100.0 * (main_pass.ops_per_s / traced.ops_per_s - 1.0)
              : 0.0;
      layers.push_back({"trace.overhead_pct", overhead, "%"});
      layers.push_back(
          {"trace.spans", static_cast<double>(tracer.spans_recorded()), "count"});
      if (!o.spans_path.empty()) {
        const std::string run_id = o.workload + "/seed=" + std::to_string(o.seed) +
                                   "/pid=" + std::to_string(::getpid());
        checks.verify(tracer.write(o.spans_path, run_id),
                      "cannot write spans to " + o.spans_path);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", o.workload.c_str(),
                 e.what());
    return 1;
  }
  checks.verify(checks.attempted() > 0, "no operation was attempted");

  Metrics e2e;
  e2e.push_back({"setup_s", median(main_pass.setup_s), "s"});
  e2e.push_back({"ops_per_s", main_pass.ops_per_s, "1/s"});
  e2e.push_back({"peak_rss_mib", peak_rss_mib(), "MiB"});
  Metrics report = main_pass.report;
  report.push_back({"setup_s", median(main_pass.setup_s), "s"});
  report.push_back({"peak_rss_mib", peak_rss_mib(), "MiB"});
  const double attempted = static_cast<double>(checks.attempted());
  report.push_back({"failed_pct",
                    attempted > 0 ? 100.0 * static_cast<double>(checks.failed()) /
                                        attempted
                                  : 0.0,
                    "%"});

  bool first = true;
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,\"smoke\":%s,",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.trace ? 1 : 0, o.smoke ? "true" : "false");
  std::printf("\"digest\":\"%s\",\"setup_samples\":%zu,\"measured_s\":%.6f,",
              main_pass.digest.c_str(), main_pass.setup_s.size(),
              main_pass.measured_s);
  print_metrics("e2e", e2e, checks, first);
  print_metrics("report", report, checks, first);
  print_metrics("layers", layers, checks, first);
  std::printf(",\"notes\":[");
  for (std::size_t i = 0; i < checks.notes().size(); ++i) {
    std::printf("%s\"%s\"", i ? "," : "", json_escape(checks.notes()[i]).c_str());
  }
  std::printf("],\"correct\":%s,\"attempted\":%llu,\"failed\":%llu}\n",
              checks.correct() ? "true" : "false",
              static_cast<unsigned long long>(checks.attempted()),
              static_cast<unsigned long long>(checks.failed()));
  return 0;
}
