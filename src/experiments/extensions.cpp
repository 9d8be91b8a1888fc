#include "experiments/extensions.hpp"

#include <algorithm>
#include <cmath>

#include "experiments/sweep.hpp"
#include "util/log.hpp"

namespace ddp::experiments {

// ===================================================== defense comparison

std::vector<DefenseRow> run_defense_comparison(const Scale& scale,
                                               std::size_t agents,
                                               std::uint64_t seed,
                                               const fault::FaultConfig& fault) {
  std::vector<DefenseRow> rows;

  struct Case {
    std::string label;
    defense::Kind kind;
    std::size_t attack;
  };
  const std::vector<Case> cases{
      {"healthy (no attack)", defense::Kind::kNone, 0},
      {"none", defense::Kind::kNone, agents},
      {"naive-cut", defense::Kind::kNaiveCut, agents},
      {"fair-share", defense::Kind::kFairShare, agents},
      {"dd-police", defense::Kind::kDdPolice, agents},
  };

  for (const auto& c : cases) {
    DefenseRow row;
    row.defense = c.label;
    for (std::uint32_t t = 0; t < scale.trials; ++t) {
      const std::uint64_t s = seed + 1000003ULL * t;
      const auto base =
          run_baseline(scaled_scenario(scale, 0, defense::Kind::kNone, s));
      ScenarioConfig cfg = scaled_scenario(scale, c.attack, c.kind, s);
      cfg.fault = fault;
      const auto r = c.attack == 0 ? base : run_scenario(cfg);
      row.success_pct += r.summary.avg_success_rate * 100.0;
      row.response_s += r.summary.avg_response_time;
      row.traffic_per_minute += r.summary.avg_traffic_per_minute;
      row.false_negative += static_cast<double>(r.errors.false_negative);
      row.bad_identified_pct +=
          c.attack > 0 ? (static_cast<double>(c.attack) -
                          static_cast<double>(r.errors.false_positive)) /
                             static_cast<double>(c.attack) * 100.0
                       : 0.0;
      const auto dmg = metrics::analyze_damage(
          r.history, base.summary.avg_success_rate, scale.attack_start);
      row.stabilized_damage += dmg.stabilized_damage;
      row.fault_timeouts += r.summary.fault_timeouts;
      row.fault_retries += r.summary.fault_retries;
      row.fault_corrupt_rejects += r.summary.fault_corrupt_rejects;
      row.fault_crashed += r.summary.fault_crashed;
      row.fault_stalled += r.summary.fault_stalled;
    }
    const double d = static_cast<double>(scale.trials);
    row.success_pct /= d;
    row.response_s /= d;
    row.traffic_per_minute /= d;
    row.false_negative /= d;
    row.bad_identified_pct /= d;
    row.stabilized_damage /= d;
    row.fault_timeouts /= d;
    row.fault_retries /= d;
    row.fault_corrupt_rejects /= d;
    row.fault_crashed /= d;
    row.fault_stalled /= d;
    rows.push_back(row);
    util::log_info("defense comparison: " + row.defense + " done");
  }
  return rows;
}

util::Table defense_table(const std::vector<DefenseRow>& rows) {
  // The original seven columns keep their exact headers and order;
  // fault-injection tallies are appended as trailing columns (all zero on
  // fault-free runs) so existing consumers keep parsing by position.
  util::Table t({"defense", "success(%)", "response(s)", "traffic/min",
                 "good_wrongly_cut", "bad_identified(%)",
                 "stabilized_damage(%)", "timeouts", "retries",
                 "corrupt_rejects", "crashed", "stalled"});
  for (const auto& r : rows) {
    t.row()
        .cell(r.defense)
        .cell(r.success_pct, 1)
        .cell(r.response_s, 2)
        .cell(r.traffic_per_minute, 0)
        .cell(r.false_negative, 1)
        .cell(r.bad_identified_pct, 1)
        .cell(r.stabilized_damage, 1)
        .cell(r.fault_timeouts, 1)
        .cell(r.fault_retries, 1)
        .cell(r.fault_corrupt_rejects, 1)
        .cell(r.fault_crashed, 1)
        .cell(r.fault_stalled, 1);
  }
  return t;
}

// ======================================================== fault ablation

std::vector<FaultRow> run_fault_ablation(const Scale& scale,
                                         std::size_t agents,
                                         std::uint64_t seed,
                                         const std::vector<double>& losses,
                                         const std::vector<double>& jitters) {
  std::vector<FaultRow> rows;
  for (double jitter : jitters) {
    for (double loss : losses) {
      FaultRow row;
      row.loss = loss;
      row.jitter_s = jitter;
      double rec_sum = 0.0;
      std::uint32_t rec_n = 0;
      for (std::uint32_t t = 0; t < scale.trials; ++t) {
        const std::uint64_t s = seed + 1000003ULL * t;
        const auto base =
            run_baseline(scaled_scenario(scale, 0, defense::Kind::kNone, s));
        ScenarioConfig cfg =
            scaled_scenario(scale, agents, defense::Kind::kDdPolice, s);
        cfg.fault.channel.drop_probability = loss;
        cfg.fault.channel.corrupt_probability = loss / 4.0;
        cfg.fault.channel.delay_jitter_seconds = jitter;
        const auto r = run_scenario(cfg);
        row.success_pct += r.summary.avg_success_rate * 100.0;
        row.response_s += r.summary.avg_response_time;
        row.false_negative += static_cast<double>(r.errors.false_negative);
        row.false_positive += static_cast<double>(r.errors.false_positive);
        const auto dmg = metrics::analyze_damage(
            r.history, base.summary.avg_success_rate, scale.attack_start);
        row.stabilized_damage += dmg.stabilized_damage;
        if (dmg.recovery_minutes >= 0.0) {
          rec_sum += dmg.recovery_minutes;
          ++rec_n;
        }
        row.timeouts += r.summary.fault_timeouts;
        row.retries += r.summary.fault_retries;
        row.late_replies += r.summary.fault_late_replies;
        row.corrupt_rejects += r.summary.fault_corrupt_rejects;
        row.crashed += r.summary.fault_crashed;
        row.stalled += r.summary.fault_stalled;
      }
      const double d = static_cast<double>(scale.trials);
      row.success_pct /= d;
      row.response_s /= d;
      row.false_negative /= d;
      row.false_positive /= d;
      row.false_judgment = row.false_negative + row.false_positive;
      row.stabilized_damage /= d;
      row.recovery_minutes = rec_n > 0 ? rec_sum / rec_n : -1.0;
      row.timeouts /= d;
      row.retries /= d;
      row.late_replies /= d;
      row.corrupt_rejects /= d;
      row.crashed /= d;
      row.stalled /= d;
      rows.push_back(row);
      util::log_info("fault ablation: loss=" + util::format_double(loss, 2) +
                     " jitter=" + util::format_double(jitter, 1) + "s done");
    }
  }
  return rows;
}

util::Table fault_table(const std::vector<FaultRow>& rows) {
  util::Table t({"loss", "jitter(s)", "success(%)", "response(s)",
                 "good_wrongly_cut", "bad_missed", "false_judgments",
                 "recovery(min)", "stabilized_damage(%)", "timeouts",
                 "retries", "late_replies", "corrupt_rejects", "crashed",
                 "stalled"});
  for (const auto& r : rows) {
    t.row()
        .cell(r.loss, 2)
        .cell(r.jitter_s, 1)
        .cell(r.success_pct, 1)
        .cell(r.response_s, 2)
        .cell(r.false_negative, 1)
        .cell(r.false_positive, 1)
        .cell(r.false_judgment, 1)
        .cell(r.recovery_minutes, 2)
        .cell(r.stabilized_damage, 1)
        .cell(r.timeouts, 1)
        .cell(r.retries, 1)
        .cell(r.late_replies, 1)
        .cell(r.corrupt_rejects, 1)
        .cell(r.crashed, 1)
        .cell(r.stalled, 1);
  }
  return t;
}

// ====================================================== topology ablation

std::vector<TopologyRow> run_topology_ablation(const Scale& scale,
                                               std::size_t agents,
                                               std::uint64_t seed) {
  std::vector<TopologyRow> rows;
  struct Case {
    std::string label;
    topology::Model model;
  };
  for (const auto& c : std::vector<Case>{
           {"barabasi-albert", topology::Model::kBarabasiAlbert},
           {"waxman", topology::Model::kWaxman},
           {"erdos-renyi", topology::Model::kErdosRenyi},
           {"two-tier (ultrapeer)", topology::Model::kTwoTier}}) {
    TopologyRow row;
    row.model = c.label;
    double det_sum = 0.0;
    std::uint32_t det_n = 0;
    for (std::uint32_t t = 0; t < scale.trials; ++t) {
      const std::uint64_t s = seed + 1000003ULL * t;
      ScenarioConfig base_cfg =
          scaled_scenario(scale, 0, defense::Kind::kNone, s);
      base_cfg.topo.model = c.model;
      const auto base = run_baseline(base_cfg);
      ScenarioConfig none_cfg =
          scaled_scenario(scale, agents, defense::Kind::kNone, s);
      none_cfg.topo.model = c.model;
      const auto none = run_scenario(none_cfg);
      ScenarioConfig ddp_cfg =
          scaled_scenario(scale, agents, defense::Kind::kDdPolice, s);
      ddp_cfg.topo.model = c.model;
      const auto ddp = run_scenario(ddp_cfg);
      row.baseline_success_pct += base.summary.avg_success_rate * 100.0;
      row.attacked_success_pct += none.summary.avg_success_rate * 100.0;
      row.defended_success_pct += ddp.summary.avg_success_rate * 100.0;
      row.false_negative += static_cast<double>(ddp.errors.false_negative);
      if (ddp.errors.mean_detection_minute >= 0.0) {
        det_sum += ddp.errors.mean_detection_minute;
        ++det_n;
      }
    }
    const double d = static_cast<double>(scale.trials);
    row.baseline_success_pct /= d;
    row.attacked_success_pct /= d;
    row.defended_success_pct /= d;
    row.false_negative /= d;
    row.detection_minutes = det_n > 0 ? det_sum / det_n : -1.0;
    rows.push_back(row);
  }
  return rows;
}

util::Table topology_table(const std::vector<TopologyRow>& rows) {
  util::Table t({"topology", "healthy_success(%)", "attacked_success(%)",
                 "defended_success(%)", "detection(min)", "good_wrongly_cut"});
  for (const auto& r : rows) {
    t.row()
        .cell(r.model)
        .cell(r.baseline_success_pct, 1)
        .cell(r.attacked_success_pct, 1)
        .cell(r.defended_success_pct, 1)
        .cell(r.detection_minutes, 2)
        .cell(r.false_negative, 1);
  }
  return t;
}

// ================================================= cutoff-exponent ablation

std::vector<CutoffRow> run_cutoff_ablation(
    const Scale& scale, std::size_t agents, std::uint64_t seed,
    const std::vector<double>& exponents) {
  struct Cell {
    double detected_pct, detection_minutes;  ///< detection < 0: never
    double injected, delivered, honest_cuts, success_pct;
  };
  SweepRunner runner(scale.jobs);
  const auto cells =
      runner.map(exponents.size() * scale.trials, [&](std::size_t idx) {
        const double exponent = exponents[idx / scale.trials];
        const auto t = static_cast<std::uint32_t>(idx % scale.trials);
        const std::uint64_t s = seed + 1000003ULL * t;
        ScenarioConfig cfg =
            scaled_scenario(scale, agents, defense::Kind::kDdPolice, s);
        cfg.topo.model = topology::Model::kHardCutoff;
        cfg.topo.hc_cutoff_exponent = exponent;
        cfg.obs.forensics = true;
        const auto r = run_scenario(cfg);
        Cell c{0.0, -1.0, 0.0, 0.0, 0.0, 0.0};
        c.success_pct = r.summary.avg_success_rate * 100.0;
        c.honest_cuts = static_cast<double>(r.errors.false_negative);
        if (r.forensics != nullptr) {
          std::size_t detected = 0, n = 0;
          double lat_sum = 0.0;
          for (const auto& [id, a] : r.forensics->agents()) {
            ++n;
            c.injected += a.injected_before_cut;
            c.delivered += a.delivered_before_cut;
            if (a.first_cut_t >= 0.0 && a.activated_t >= 0.0) {
              ++detected;
              lat_sum += (a.first_cut_t - a.activated_t) / 60.0;
            }
          }
          if (n > 0) {
            c.detected_pct =
                static_cast<double>(detected) / static_cast<double>(n) * 100.0;
            c.injected /= static_cast<double>(n);
            c.delivered /= static_cast<double>(n);
          }
          if (detected > 0) {
            c.detection_minutes = lat_sum / static_cast<double>(detected);
          }
        }
        return c;
      });

  std::vector<CutoffRow> rows;
  for (std::size_t ei = 0; ei < exponents.size(); ++ei) {
    CutoffRow row;
    row.cutoff_exponent = exponents[ei];
    // Mirror the generator's cap arithmetic so the table shows the degree
    // ceiling each exponent actually produced at this peer count.
    const double kc_raw = std::ceil(
        std::pow(static_cast<double>(scale.peers), 1.0 / exponents[ei]));
    const double m = 3.0;  // topo.ba_links_per_node default
    row.cutoff_degree =
        std::max(m + 1.0,
                 std::min(kc_raw, static_cast<double>(scale.peers)));
    double det_sum = 0.0;
    std::uint32_t det_n = 0;
    for (std::uint32_t t = 0; t < scale.trials; ++t) {
      const Cell& c = cells[ei * scale.trials + t];
      row.detected_pct += c.detected_pct;
      row.injected_before_cut += c.injected;
      row.delivered_before_cut += c.delivered;
      row.honest_false_cuts += c.honest_cuts;
      row.success_pct += c.success_pct;
      if (c.detection_minutes >= 0.0) {
        det_sum += c.detection_minutes;
        ++det_n;
      }
    }
    const double d = static_cast<double>(scale.trials);
    row.detected_pct /= d;
    row.injected_before_cut /= d;
    row.delivered_before_cut /= d;
    row.honest_false_cuts /= d;
    row.success_pct /= d;
    row.detection_minutes = det_n > 0 ? det_sum / det_n : -1.0;
    rows.push_back(row);
    util::log_info("cutoff ablation: exponent=" +
                   util::format_double(exponents[ei], 1) + " done");
  }
  return rows;
}

util::Table cutoff_table(const std::vector<CutoffRow>& rows) {
  util::Table t({"cutoff_exp", "degree_cap", "detected(%)", "detection(min)",
                 "injected_before_cut", "delivered_before_cut",
                 "honest_wrongly_cut", "success(%)"});
  for (const auto& r : rows) {
    t.row()
        .cell(r.cutoff_exponent, 1)
        .cell(r.cutoff_degree, 0)
        .cell(r.detected_pct, 1)
        .cell(r.detection_minutes, 2)
        .cell(r.injected_before_cut, 0)
        .cell(r.delivered_before_cut, 0)
        .cell(r.honest_false_cuts, 1)
        .cell(r.success_pct, 1);
  }
  return t;
}

// ========================================================= churn ablation

std::vector<ChurnRow> run_churn_ablation(const Scale& scale,
                                         std::size_t agents,
                                         std::uint64_t seed) {
  struct Case {
    std::string label;
    bool enabled;
    workload::LifetimeDistribution dist;
    double mean_minutes;
  };
  const std::vector<Case> cases{
      {"static (no churn)", false, workload::LifetimeDistribution::kLognormal, 0},
      {"paper lognormal 60min", true, workload::LifetimeDistribution::kLognormal, 60},
      {"fast lognormal 10min", true, workload::LifetimeDistribution::kLognormal, 10},
      {"exponential 60min", true, workload::LifetimeDistribution::kExponential, 60},
      {"pareto 60min", true, workload::LifetimeDistribution::kPareto, 60},
  };
  // One parallel unit per (regime, trial) cell, reduced in serial order.
  struct Cell {
    double false_negative, false_positive, stabilized_damage;
  };
  SweepRunner runner(scale.jobs);
  const auto cells =
      runner.map(cases.size() * scale.trials, [&](std::size_t idx) {
        const Case& c = cases[idx / scale.trials];
        const auto t = static_cast<std::uint32_t>(idx % scale.trials);
        const std::uint64_t s = seed + 1000003ULL * t;
        auto configure = [&](ScenarioConfig cfg) {
          cfg.churn.enabled = c.enabled;
          cfg.churn.distribution = c.dist;
          if (c.mean_minutes > 0) {
            cfg.churn.mean_lifetime = minutes(c.mean_minutes);
            cfg.churn.lifetime_variance =
                c.mean_minutes / 2.0 * kMinute * kMinute;
          }
          return cfg;
        };
        const auto base = run_baseline(
            configure(scaled_scenario(scale, 0, defense::Kind::kNone, s)));
        const auto r = run_scenario(
            configure(scaled_scenario(
                scale, agents, defense::Kind::kDdPolice, s)));
        const auto dmg = metrics::analyze_damage(
            r.history, base.summary.avg_success_rate, scale.attack_start);
        return Cell{static_cast<double>(r.errors.false_negative),
                    static_cast<double>(r.errors.false_positive),
                    dmg.stabilized_damage};
      });
  std::vector<ChurnRow> rows;
  for (std::size_t ci = 0; ci < cases.size(); ++ci) {
    const Case& c = cases[ci];
    ChurnRow row;
    row.regime = c.label;
    row.mean_lifetime_minutes = c.mean_minutes;
    for (std::uint32_t t = 0; t < scale.trials; ++t) {
      const Cell& cell = cells[ci * scale.trials + t];
      row.false_negative += cell.false_negative;
      row.false_positive += cell.false_positive;
      row.stabilized_damage += cell.stabilized_damage;
    }
    const double d = static_cast<double>(scale.trials);
    row.false_negative /= d;
    row.false_positive /= d;
    row.stabilized_damage /= d;
    rows.push_back(row);
  }
  return rows;
}

util::Table churn_table(const std::vector<ChurnRow>& rows) {
  util::Table t({"churn_regime", "good_wrongly_cut", "bad_missed",
                 "stabilized_damage(%)"});
  for (const auto& r : rows) {
    t.row()
        .cell(r.regime)
        .cell(r.false_negative, 1)
        .cell(r.false_positive, 1)
        .cell(r.stabilized_damage, 1);
  }
  return t;
}

// ===================================================== rejoin persistence

std::vector<RejoinRow> run_rejoin_study(const Scale& scale, std::size_t agents,
                                        std::uint64_t seed) {
  struct Case {
    std::string label;
    bool rejoin;
    double after;
  };
  const std::vector<Case> cases{
      {"one-shot (paper evaluation)", false, 0.0},
      {"rejoin after 5 min", true, 5.0},
      {"rejoin after 2 min", true, 2.0},
      {"rejoin after 1 min", true, 1.0},
  };
  std::vector<RejoinRow> rows;
  for (const auto& c : cases) {
    RejoinRow row;
    row.mode = c.label;
    row.rejoin_after_minutes = c.after;
    for (std::uint32_t t = 0; t < scale.trials; ++t) {
      const std::uint64_t s = seed + 1000003ULL * t;
      const auto base =
          run_baseline(scaled_scenario(scale, 0, defense::Kind::kNone, s));
      ScenarioConfig cfg =
          scaled_scenario(scale, agents, defense::Kind::kDdPolice, s);
      cfg.attack.rejoin = c.rejoin;
      cfg.attack.rejoin_after_minutes = c.after;
      const auto r = run_scenario(cfg);
      const auto dmg = metrics::analyze_damage(
          r.history, base.summary.avg_success_rate, scale.attack_start);
      row.stabilized_damage += dmg.stabilized_damage;
      row.attack_rejoins += static_cast<double>(r.attack_rejoins);
      row.bad_cut_events += static_cast<double>(r.errors.bad_cut_events);
    }
    const double d = static_cast<double>(scale.trials);
    row.stabilized_damage /= d;
    row.attack_rejoins /= d;
    row.bad_cut_events /= d;
    rows.push_back(row);
  }
  return rows;
}

util::Table rejoin_table(const std::vector<RejoinRow>& rows) {
  util::Table t({"attacker_persistence", "stabilized_damage(%)",
                 "rejoin_events", "agent_links_cut"});
  for (const auto& r : rows) {
    t.row()
        .cell(r.mode)
        .cell(r.stabilized_damage, 1)
        .cell(r.attack_rejoins, 1)
        .cell(r.bad_cut_events, 1);
  }
  return t;
}

// ====================================================== attack-rate sweep

std::vector<RateRow> run_attack_rate_sweep(const Scale& scale,
                                           std::size_t agents,
                                           std::uint64_t seed) {
  const std::vector<double> rates{250.0,  500.0,   1000.0,  2000.0,
                                  5000.0, 10000.0, 20000.0};
  // One parallel unit per (rate, trial) cell, reduced in serial order.
  struct Cell {
    double bad_identified_pct, damage_undefended, damage_defended;
    double detection_minute;  ///< < 0 when the trial never detected
  };
  SweepRunner runner(scale.jobs);
  const auto cells =
      runner.map(rates.size() * scale.trials, [&](std::size_t idx) {
        const double rate = rates[idx / scale.trials];
        const auto t = static_cast<std::uint32_t>(idx % scale.trials);
        const std::uint64_t s = seed + 1000003ULL * t;
        const auto base =
            run_baseline(scaled_scenario(scale, 0, defense::Kind::kNone, s));
        ScenarioConfig none_cfg =
            scaled_scenario(scale, agents, defense::Kind::kNone, s);
        none_cfg.flow.attack_target_per_minute = rate;
        const auto none = run_scenario(none_cfg);
        ScenarioConfig ddp_cfg =
            scaled_scenario(scale, agents, defense::Kind::kDdPolice, s);
        ddp_cfg.flow.attack_target_per_minute = rate;
        const auto ddp = run_scenario(ddp_cfg);
        const auto dmg_none = metrics::analyze_damage(
            none.history, base.summary.avg_success_rate, scale.attack_start);
        const auto dmg_ddp = metrics::analyze_damage(
            ddp.history, base.summary.avg_success_rate, scale.attack_start);
        return Cell{(static_cast<double>(agents) -
                     static_cast<double>(ddp.errors.false_positive)) /
                        static_cast<double>(agents) * 100.0,
                    dmg_none.stabilized_damage, dmg_ddp.stabilized_damage,
                    ddp.errors.mean_detection_minute};
      });
  std::vector<RateRow> rows;
  for (std::size_t ri = 0; ri < rates.size(); ++ri) {
    const double rate = rates[ri];
    RateRow row;
    row.attack_rate_per_minute = rate;
    double det_sum = 0.0;
    std::uint32_t det_n = 0;
    for (std::uint32_t t = 0; t < scale.trials; ++t) {
      const Cell& c = cells[ri * scale.trials + t];
      row.bad_identified_pct += c.bad_identified_pct;
      row.stabilized_damage_undefended += c.damage_undefended;
      row.stabilized_damage_defended += c.damage_defended;
      if (c.detection_minute >= 0.0) {
        det_sum += c.detection_minute;
        ++det_n;
      }
    }
    const double d = static_cast<double>(scale.trials);
    row.bad_identified_pct /= d;
    row.stabilized_damage_undefended /= d;
    row.stabilized_damage_defended /= d;
    row.detection_minutes = det_n > 0 ? det_sum / det_n : -1.0;
    rows.push_back(row);
    util::log_info("attack-rate sweep: Qd=" + util::format_double(rate, 0) +
                   " done");
  }
  return rows;
}

// ================================================== adaptive-CT ablation

std::vector<AdaptiveRow> run_adaptive_ct_ablation(const Scale& scale,
                                                  std::size_t agents,
                                                  std::uint64_t seed) {
  struct Strat {
    std::string label;
    std::size_t agents;
    std::function<void(ScenarioConfig&)> apply;
  };
  // The sub-warning strategies run at a sourcing scale whose per-link rate
  // sits well under the 500 q/min static warning threshold (scale 0.06 of
  // Q_d = 20,000 spread over ~6 links ≈ 200 q/min/link) but far above any
  // honest peer's learned band.
  const std::vector<Strat> strats{
      {"full-rate", agents, [](ScenarioConfig&) {}},
      {"low-slow", agents,
       [](ScenarioConfig& c) {
         c.attack.sourcing = attack::SourcingStrategy::kRamp;
         c.attack.ramp_minutes = 8.0;
         c.attack.ramp_target_scale = 0.06;
       }},
      {"pulse", agents,
       [](ScenarioConfig& c) {
         c.attack.sourcing = attack::SourcingStrategy::kPulse;
         c.attack.pulse_scale = 0.06;
         c.attack.pulse_on_minutes = 1.0;
         c.attack.pulse_off_minutes = 3.0;
       }},
      {"probe", agents,
       [](ScenarioConfig& c) {
         c.attack.sourcing = attack::SourcingStrategy::kProbe;
         c.attack.probe_step_scale = 0.05;
         c.attack.probe_backoff = 0.5;
       }},
      {"collude", agents,
       [](ScenarioConfig& c) {
         c.attack.behavior.report = attack::ReportStrategy::kCollude;
       }},
      {"flash-crowd", 0,
       [](ScenarioConfig& c) {
         c.flash.enabled = true;
         c.flash.start_minute = c.attack.start_minute + 4.0;
         c.flash.surge_minutes = 5.0;
         c.flash.surge_factor = 20.0;
         c.flash.participation = 0.25;
       }},
  };
  struct Policy {
    std::string label;
    bool adaptive;
  };
  const std::vector<Policy> policies{{"static", false}, {"adaptive", true}};

  struct Cell {
    double detected_pct, detection_minutes;  ///< detection < 0: never
    double injected, delivered, honest_cuts, honest_suspected, success_pct;
  };
  SweepRunner runner(scale.jobs);
  const std::size_t per_strat = policies.size() * scale.trials;
  const auto cells =
      runner.map(strats.size() * per_strat, [&](std::size_t idx) {
        const Strat& st = strats[idx / per_strat];
        const Policy& pol = policies[(idx % per_strat) / scale.trials];
        const auto t = static_cast<std::uint32_t>(idx % scale.trials);
        const std::uint64_t s = seed + 1000003ULL * t;
        ScenarioConfig cfg =
            scaled_scenario(scale, st.agents, defense::Kind::kDdPolice, s);
        cfg.obs.forensics = true;
        st.apply(cfg);
        cfg.ddpolice.adaptive.enabled = pol.adaptive;
        const auto r = run_scenario(cfg);
        Cell c{0.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0};
        c.success_pct = r.summary.avg_success_rate * 100.0;
        c.honest_cuts = static_cast<double>(r.errors.false_negative);
        if (r.forensics != nullptr) {
          c.honest_suspected = static_cast<double>(r.forensics->honest().size());
          std::size_t detected = 0, n = 0;
          double lat_sum = 0.0;
          for (const auto& [id, a] : r.forensics->agents()) {
            ++n;
            c.injected += a.injected_before_cut;
            c.delivered += a.delivered_before_cut;
            if (a.first_cut_t >= 0.0 && a.activated_t >= 0.0) {
              ++detected;
              lat_sum += (a.first_cut_t - a.activated_t) / 60.0;
            }
          }
          if (n > 0) {
            c.detected_pct =
                static_cast<double>(detected) / static_cast<double>(n) * 100.0;
            c.injected /= static_cast<double>(n);
            c.delivered /= static_cast<double>(n);
          }
          if (detected > 0) {
            c.detection_minutes = lat_sum / static_cast<double>(detected);
          }
        }
        return c;
      });

  std::vector<AdaptiveRow> rows;
  for (std::size_t si = 0; si < strats.size(); ++si) {
    for (std::size_t pi = 0; pi < policies.size(); ++pi) {
      AdaptiveRow row;
      row.strategy = strats[si].label;
      row.policy = policies[pi].label;
      double det_sum = 0.0;
      std::uint32_t det_n = 0;
      for (std::uint32_t t = 0; t < scale.trials; ++t) {
        const Cell& c = cells[si * per_strat + pi * scale.trials + t];
        row.detected_pct += c.detected_pct;
        row.injected_before_cut += c.injected;
        row.delivered_before_cut += c.delivered;
        row.honest_false_cuts += c.honest_cuts;
        row.honest_suspected += c.honest_suspected;
        row.success_pct += c.success_pct;
        if (c.detection_minutes >= 0.0) {
          det_sum += c.detection_minutes;
          ++det_n;
        }
      }
      const double d = static_cast<double>(scale.trials);
      row.detected_pct /= d;
      row.injected_before_cut /= d;
      row.delivered_before_cut /= d;
      row.honest_false_cuts /= d;
      row.honest_suspected /= d;
      row.success_pct /= d;
      row.detection_minutes = det_n > 0 ? det_sum / det_n : -1.0;
      rows.push_back(row);
    }
    util::log_info("adaptive-CT ablation: " + strats[si].label + " done");
  }
  return rows;
}

util::Table adaptive_ct_table(const std::vector<AdaptiveRow>& rows) {
  util::Table t({"strategy", "policy", "detected(%)", "detection(min)",
                 "injected_before_cut", "delivered_before_cut",
                 "honest_wrongly_cut", "honest_suspected", "success(%)"});
  for (const auto& r : rows) {
    t.row()
        .cell(r.strategy)
        .cell(r.policy)
        .cell(r.detected_pct, 1)
        .cell(r.detection_minutes, 2)
        .cell(r.injected_before_cut, 0)
        .cell(r.delivered_before_cut, 0)
        .cell(r.honest_false_cuts, 1)
        .cell(r.honest_suspected, 1)
        .cell(r.success_pct, 1);
  }
  return t;
}

util::Table attack_rate_table(const std::vector<RateRow>& rows) {
  util::Table t({"Qd(queries/min/link)", "bad_identified(%)", "detection(min)",
                 "damage_undefended(%)", "damage_dd_police(%)"});
  for (const auto& r : rows) {
    t.row()
        .cell(r.attack_rate_per_minute, 0)
        .cell(r.bad_identified_pct, 1)
        .cell(r.detection_minutes, 2)
        .cell(r.stabilized_damage_undefended, 1)
        .cell(r.stabilized_damage_defended, 1);
  }
  return t;
}

}  // namespace ddp::experiments
