/// \file ddptestbed.cpp
/// Planner and report aggregator for the multi-process localhost testbed.
///
///   ddptestbed plan peers=100 attackers=3 [model=ba|er|waxman|cutoff]
///       [links=3] [port_base=42000] [minute_seconds=0.5] [duration_min=6]
///       [query_rate=2] [hit_prob=0.05] [attack_rate=2000] [attack_start=1]
///       [warning=500] [ct=5] [q=100] [seed=1] [out=plan.txt]
///
/// writes a plan file: '#' metadata lines plus one ddpnode argument line
/// per node. scripts/testbed.sh launches one ddpnode per line.
///
///   ddptestbed report dir=results/testbed [attack_start=1]
///       [csv=results/testbed_report.csv] [strict=0]
///
/// aggregates the per-node obs JSONL traces in `dir` into
/// detection-latency and cut-correctness numbers. strict=1 exits nonzero unless every
/// attacker was cut and no honest peer was (the check.sh --net gate).

#include <fstream>
#include <iostream>
#include <string>

#include "experiments/testbed.hpp"
#include "util/config.hpp"

namespace {

int usage() {
  std::cerr << "usage: ddptestbed plan|report key=value...\n"
               "  (see the header comment of examples/ddptestbed.cpp)\n";
  return 2;
}

ddp::topology::Model parse_model(const std::string& name) {
  using ddp::topology::Model;
  if (name == "er") return Model::kErdosRenyi;
  if (name == "waxman") return Model::kWaxman;
  if (name == "cutoff") return Model::kHardCutoff;
  if (name == "twotier") return Model::kTwoTier;
  return Model::kBarabasiAlbert;
}

int run_plan(const ddp::util::Options& opt) {
  using namespace ddp::experiments;
  TestbedConfig cfg;
  cfg.peers = static_cast<std::size_t>(opt.get("peers", std::int64_t{100}));
  cfg.attackers =
      static_cast<std::size_t>(opt.get("attackers", std::int64_t{3}));
  cfg.model = parse_model(opt.get("model", std::string{"ba"}));
  cfg.links_per_node =
      static_cast<std::size_t>(opt.get("links", std::int64_t{3}));
  cfg.port_base =
      static_cast<std::uint16_t>(opt.get("port_base", std::int64_t{42000}));
  cfg.minute_seconds = opt.get("minute_seconds", 0.5);
  cfg.duration_minutes = opt.get("duration_min", 6.0);
  cfg.query_rate_per_minute = opt.get("query_rate", 2.0);
  cfg.hit_probability = opt.get("hit_prob", 0.05);
  cfg.ttl = static_cast<std::uint8_t>(opt.get("ttl", std::int64_t{5}));
  cfg.attack_rate_per_minute = opt.get("attack_rate", 2000.0);
  cfg.attack_start_minute = opt.get("attack_start", 1.0);
  cfg.ddp.warning_threshold = opt.get("warning", cfg.ddp.warning_threshold);
  cfg.ddp.cut_threshold = opt.get("ct", cfg.ddp.cut_threshold);
  cfg.ddp.good_issue_bound = opt.get("q", cfg.ddp.good_issue_bound);
  cfg.ddp.suppression_window_seconds =
      opt.get("suppression_s", cfg.ddp.suppression_window_seconds);
  cfg.ddp.collect_timeout_seconds =
      opt.get("collect_s", cfg.ddp.collect_timeout_seconds);
  cfg.ddp.exchange_period_minutes =
      opt.get("exchange_min", cfg.ddp.exchange_period_minutes);
  cfg.seed = static_cast<std::uint64_t>(opt.get("seed", std::int64_t{1}));

  const TestbedPlan plan = make_plan(cfg);
  const std::string out_path = opt.get("out", std::string{});
  if (out_path.empty()) {
    write_plan(plan, std::cout);
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "ddptestbed: cannot write " << out_path << "\n";
      return 1;
    }
    write_plan(plan, out);
    std::cerr << "plan: " << plan.nodes.size() << " nodes -> " << out_path
              << "\n";
  }
  return 0;
}

int run_report(const ddp::util::Options& opt) {
  using namespace ddp::experiments;
  const std::string dir = opt.get("dir", std::string{});
  if (dir.empty()) return usage();
  const double attack_start = opt.get("attack_start", 1.0);

  const TestbedReport report = aggregate_stats(dir);
  print_report(report, attack_start, std::cout);

  const std::string csv_path = opt.get("csv", std::string{});
  if (!csv_path.empty()) {
    std::ofstream csv(csv_path);
    if (!csv) {
      std::cerr << "ddptestbed: cannot write " << csv_path << "\n";
      return 1;
    }
    write_report_csv(report, attack_start, csv);
  }

  if (opt.get("strict", false)) {
    if (report.nodes_reporting == 0) {
      std::cerr << "STRICT FAIL: no node traces\n";
      return 1;
    }
    if (report.attackers_cut < report.attackers) {
      std::cerr << "STRICT FAIL: only " << report.attackers_cut << "/"
                << report.attackers << " attackers cut\n";
      return 1;
    }
    if (report.honest_cut != 0) {
      std::cerr << "STRICT FAIL: " << report.honest_cut
                << " honest peer(s) cut\n";
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  const ddp::util::Options opt(argc - 1, argv + 1);
  if (mode == "plan") return run_plan(opt);
  if (mode == "report") return run_report(opt);
  return usage();
}
