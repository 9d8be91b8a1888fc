#include "experiments/figures.hpp"

#include <algorithm>

#include "experiments/sweep.hpp"
#include "topology/coverage.hpp"
#include "util/config.hpp"
#include "util/log.hpp"

namespace ddp::experiments {

ScenarioConfig scaled_scenario(const Scale& scale, std::size_t agents,
                               defense::Kind kind, std::uint64_t seed) {
  ScenarioConfig cfg = paper_scenario(scale.peers, agents, kind, seed);
  cfg.total_minutes = scale.total_minutes;
  cfg.warmup_minutes = scale.warmup_minutes;
  cfg.attack.start_minute = scale.attack_start;
  return cfg;
}

Scale default_scale() {
  Scale s;
  if (util::full_scale_requested()) {
    s.peers = 2000;
    s.total_minutes = 40.0;
    s.attack_start = 5.0;
    s.warmup_minutes = 10.0;
    s.trials = 3;
  }
  s.trials = util::env_trials(s.trials);
  s.jobs = util::env_jobs(s.jobs);
  return s;
}

// ================================================================ Figs 9-11

std::vector<AgentSweepRow> run_agent_sweep(const Scale& scale,
                                           std::uint64_t seed) {
  // One sweep unit per (agent-count, trial) cell; each unit builds its
  // whole world from its own seed, so units are embarrassingly parallel.
  struct Cell {
    double traffic_none, traffic_ddp, traffic_base;
    double response_none, response_ddp, response_base;
    double success_none, success_ddp, success_base;
  };
  SweepRunner runner(scale.jobs);
  const auto cells = runner.map(
      scale.agent_counts.size() * scale.trials, [&](std::size_t idx) {
        const std::size_t k = scale.agent_counts[idx / scale.trials];
        const auto t = static_cast<std::uint32_t>(idx % scale.trials);
        const std::uint64_t s = seed + 1000003ULL * t;
        const auto r_base =
            run_baseline(scaled_scenario(scale, 0, defense::Kind::kNone, s));
        const auto r_none = k == 0
                                ? r_base
                                : run_scenario(scaled_scenario(
                                      scale, k, defense::Kind::kNone, s));
        const auto r_ddp = run_scenario(
            scaled_scenario(scale, k, defense::Kind::kDdPolice, s));
        return Cell{r_none.summary.avg_traffic_per_minute,
                    r_ddp.summary.avg_traffic_per_minute,
                    r_base.summary.avg_traffic_per_minute,
                    r_none.summary.avg_response_time,
                    r_ddp.summary.avg_response_time,
                    r_base.summary.avg_response_time,
                    r_none.summary.avg_success_rate,
                    r_ddp.summary.avg_success_rate,
                    r_base.summary.avg_success_rate};
      });
  // Reduce in the serial loops' exact (agent-count, trial) order so the
  // float accumulation — and therefore the output — is jobs-invariant.
  std::vector<AgentSweepRow> rows;
  for (std::size_t ki = 0; ki < scale.agent_counts.size(); ++ki) {
    const std::size_t k = scale.agent_counts[ki];
    AgentSweepRow row;
    row.agents = k;
    for (std::uint32_t t = 0; t < scale.trials; ++t) {
      const Cell& c = cells[ki * scale.trials + t];
      row.traffic_none += c.traffic_none;
      row.traffic_ddp += c.traffic_ddp;
      row.traffic_base += c.traffic_base;
      row.response_none += c.response_none;
      row.response_ddp += c.response_ddp;
      row.response_base += c.response_base;
      row.success_none += c.success_none;
      row.success_ddp += c.success_ddp;
      row.success_base += c.success_base;
    }
    const double d = static_cast<double>(scale.trials);
    row.traffic_none /= d;
    row.traffic_ddp /= d;
    row.traffic_base /= d;
    row.response_none /= d;
    row.response_ddp /= d;
    row.response_base /= d;
    row.success_none /= d;
    row.success_ddp /= d;
    row.success_base /= d;
    rows.push_back(row);
    util::log_info("agent sweep: k=" + std::to_string(k) + " done");
  }
  return rows;
}

util::Table fig9_traffic_table(const std::vector<AgentSweepRow>& rows) {
  util::Table t({"agents", "traffic_no_defense(10^3/min)",
                 "traffic_dd_police(10^3/min)", "traffic_no_attack(10^3/min)"});
  for (const auto& r : rows) {
    t.row()
        .cell(static_cast<std::uint64_t>(r.agents))
        .cell(r.traffic_none / 1000.0, 1)
        .cell(r.traffic_ddp / 1000.0, 1)
        .cell(r.traffic_base / 1000.0, 1);
  }
  return t;
}

util::Table fig10_response_table(const std::vector<AgentSweepRow>& rows) {
  util::Table t({"agents", "response_no_defense(s)", "response_dd_police(s)",
                 "response_no_attack(s)"});
  for (const auto& r : rows) {
    t.row()
        .cell(static_cast<std::uint64_t>(r.agents))
        .cell(r.response_none, 3)
        .cell(r.response_ddp, 3)
        .cell(r.response_base, 3);
  }
  return t;
}

util::Table fig11_success_table(const std::vector<AgentSweepRow>& rows) {
  util::Table t({"agents", "success_no_defense(%)", "success_dd_police(%)",
                 "success_no_attack(%)"});
  for (const auto& r : rows) {
    t.row()
        .cell(static_cast<std::uint64_t>(r.agents))
        .cell(r.success_none * 100.0, 1)
        .cell(r.success_ddp * 100.0, 1)
        .cell(r.success_base * 100.0, 1);
  }
  return t;
}

// ==================================================================== Fig 12

DamageTimelines run_damage_timelines(const Scale& scale,
                                     const std::vector<double>& cut_thresholds,
                                     std::size_t agents, std::uint64_t seed) {
  DamageTimelines out;

  // Baseline success for the damage definition (Sec. 3.7.2).
  const auto base =
      run_baseline(scaled_scenario(scale, 0, defense::Kind::kNone, seed));
  const double s_base = base.summary.avg_success_rate;

  auto damage_series = [&](const ScenarioResult& r) {
    std::vector<double> d;
    for (const auto& m : r.history) {
      d.push_back(s_base > 0.0
                      ? std::max(0.0, (s_base - m.success_rate) / s_base) * 100.0
                      : 0.0);
    }
    return d;
  };

  const auto none =
      run_scenario(scaled_scenario(scale, agents, defense::Kind::kNone, seed));
  out.minutes.clear();
  for (const auto& m : none.history) out.minutes.push_back(m.minute);
  out.series["no DD-POLICE"] = damage_series(none);

  for (double ct : cut_thresholds) {
    ScenarioConfig cfg =
        scaled_scenario(scale, agents, defense::Kind::kDdPolice, seed);
    cfg.ddpolice.cut_threshold = ct;
    const auto r = run_scenario(cfg);
    out.series["DD-POLICE-" + util::format_double(ct, 0)] = damage_series(r);
  }
  return out;
}

util::Table fig12_damage_table(const DamageTimelines& timelines) {
  std::vector<std::string> headers{"minute"};
  for (const auto& [label, series] : timelines.series) headers.push_back(label);
  util::Table t(headers);
  for (std::size_t i = 0; i < timelines.minutes.size(); ++i) {
    t.row().cell(timelines.minutes[i], 0);
    for (const auto& [label, series] : timelines.series) {
      t.cell(i < series.size() ? series[i] : 0.0, 1);
    }
  }
  return t;
}

// ================================================================ Figs 13-14

std::vector<CtSweepRow> run_ct_sweep(const Scale& scale,
                                     const std::vector<double>& cut_thresholds,
                                     std::size_t agents, std::uint64_t seed,
                                     bool with_quarantine) {
  // Shared baseline success per seed for recovery analysis.
  std::vector<CtSweepRow> rows;
  for (double ct : cut_thresholds) {
    CtSweepRow row;
    row.cut_threshold = ct;
    double det_sum = 0.0;
    std::uint32_t det_n = 0;
    double reinstate_sum = 0.0;
    std::uint64_t reinstate_n = 0;
    double reinstated_success_sum = 0.0;
    std::uint32_t reinstated_success_n = 0;
    for (std::uint32_t t = 0; t < scale.trials; ++t) {
      const std::uint64_t s = seed + 1000003ULL * t;
      const auto base =
          run_baseline(scaled_scenario(scale, 0, defense::Kind::kNone, s));
      ScenarioConfig cfg =
          scaled_scenario(scale, agents, defense::Kind::kDdPolice, s);
      cfg.ddpolice.cut_threshold = ct;
      const auto r = run_scenario(cfg);
      row.false_negative += static_cast<double>(r.errors.false_negative);
      row.false_positive += static_cast<double>(r.errors.false_positive);
      row.false_judgment += static_cast<double>(r.errors.false_judgment);
      const auto dmg = metrics::analyze_damage(
          r.history, base.summary.avg_success_rate, scale.attack_start);
      row.stabilized_damage += dmg.stabilized_damage;
      // A run whose damage never recovers contributes the remaining run
      // length (a conservative lower bound, flagged in EXPERIMENTS.md).
      row.recovery_minutes += dmg.recovery_minutes >= 0.0
                                  ? dmg.recovery_minutes
                                  : scale.total_minutes - scale.attack_start;
      if (r.errors.mean_detection_minute >= 0.0) {
        det_sum += r.errors.mean_detection_minute;
        ++det_n;
      }
      if (with_quarantine) {
        // Same seed, same threshold, quarantine ladder instead of the
        // permanent cut: how fast does a falsely cut honest peer get its
        // service back, and what does that do to S(t)?
        ScenarioConfig qcfg = cfg;
        qcfg.ddpolice.cut_policy = core::CutPolicy::kQuarantine;
        // The recovery receipt: each minute, score every reinstated honest
        // peer's own flood through the engine's hit model. The hook
        // overwrites the capture, so the last completed minute wins — an
        // end-of-run snapshot. While cut the same peers sit at reach 0.
        double trial_reinstated_success = -1.0;
        qcfg.inspect = [&trial_reinstated_success](double /*minute*/,
                                                   const ScenarioView& view) {
          if (view.ledger == nullptr || view.net == nullptr ||
              view.attack == nullptr) {
            return;
          }
          std::vector<PeerId> peers;
          for (const auto& rec : view.ledger->reinstatements()) {
            peers.push_back(rec.peer);
          }
          std::sort(peers.begin(), peers.end());
          peers.erase(std::unique(peers.begin(), peers.end()), peers.end());
          const auto& g = view.net->graph();
          double sum = 0.0;
          std::size_t n = 0;
          for (PeerId p : peers) {
            if (view.attack->is_agent(p)) continue;
            if (p >= g.node_count() || !g.is_active(p)) continue;
            if (view.ledger->standing(p) != core::Standing::kClear) continue;
            const auto prof =
                topology::flood_coverage(g, p, view.net->config().ttl);
            sum += view.net->content().average_hit_probability(
                prof.total_reach());
            ++n;
          }
          if (n > 0) trial_reinstated_success = sum / static_cast<double>(n);
        };
        const auto qr = run_scenario(qcfg);
        if (trial_reinstated_success >= 0.0) {
          reinstated_success_sum += trial_reinstated_success;
          ++reinstated_success_n;
        }
        row.success_permanent += r.summary.avg_success_rate;
        row.success_quarantine += qr.summary.avg_success_rate;
        std::vector<PeerId> honest_peers;
        for (const auto& rec : qr.reinstatements) {
          if (rec.peer < qr.is_bad.size() && qr.is_bad[rec.peer] == 0) {
            reinstate_sum += rec.reinstate_minute - rec.cut_minute;
            ++reinstate_n;
            honest_peers.push_back(rec.peer);
          }
        }
        std::sort(honest_peers.begin(), honest_peers.end());
        honest_peers.erase(
            std::unique(honest_peers.begin(), honest_peers.end()),
            honest_peers.end());
        row.honest_reinstated += static_cast<double>(honest_peers.size());
      }
    }
    const double d = static_cast<double>(scale.trials);
    row.false_negative /= d;
    row.false_positive /= d;
    row.false_judgment /= d;
    row.recovery_minutes /= d;
    row.stabilized_damage /= d;
    row.detection_minutes = det_n > 0 ? det_sum / det_n : -1.0;
    if (with_quarantine) {
      // Fields start at the -1 "not measured" sentinel; shift it out
      // before averaging the accumulated trial sums.
      row.success_permanent = (row.success_permanent + 1.0) / d;
      row.success_quarantine = (row.success_quarantine + 1.0) / d;
      row.honest_reinstated /= d;
      row.reinstate_minutes =
          reinstate_n > 0 ? reinstate_sum / static_cast<double>(reinstate_n)
                          : -1.0;
      row.reinstated_success =
          reinstated_success_n > 0
              ? reinstated_success_sum /
                    static_cast<double>(reinstated_success_n)
              : -1.0;
    }
    rows.push_back(row);
    util::log_info("ct sweep: CT=" + util::format_double(ct, 1) + " done");
  }
  return rows;
}

util::Table fig13_errors_table(const std::vector<CtSweepRow>& rows) {
  // The quarantine columns only appear when the sweep measured them, so
  // a permanent-cut-only sweep renders the exact pre-extension table.
  const bool quarantine =
      !rows.empty() && rows.front().success_quarantine >= 0.0;
  std::vector<std::string> headers{"cut_threshold", "false_negative(good cut)",
                                   "false_positive(bad missed)",
                                   "false_judgment"};
  if (quarantine) {
    headers.insert(headers.end(),
                   {"reinstate_time(min)", "honest_reinstated",
                    "reinstated_success(%)", "success_permanent(%)",
                    "success_quarantine(%)"});
  }
  util::Table t(headers);
  for (const auto& r : rows) {
    t.row()
        .cell(r.cut_threshold, 0)
        .cell(r.false_negative, 1)
        .cell(r.false_positive, 1)
        .cell(r.false_judgment, 1);
    if (quarantine) {
      t.cell(r.reinstate_minutes, 2)
          .cell(r.honest_reinstated, 1)
          .cell(r.reinstated_success < 0.0 ? -1.0
                                           : r.reinstated_success * 100.0,
                1)
          .cell(r.success_permanent * 100.0, 1)
          .cell(r.success_quarantine * 100.0, 1);
    }
  }
  return t;
}

util::Table fig14_recovery_table(const std::vector<CtSweepRow>& rows) {
  util::Table t({"cut_threshold", "recovery_time(min)", "detection_time(min)",
                 "stabilized_damage(%)"});
  for (const auto& r : rows) {
    t.row()
        .cell(r.cut_threshold, 0)
        .cell(r.recovery_minutes, 2)
        .cell(r.detection_minutes, 2)
        .cell(r.stabilized_damage, 1);
  }
  return t;
}

// ========================================================== Sec. 3.7.1 study

std::vector<FreqSweepRow> run_exchange_frequency_study(
    const Scale& scale, const std::vector<double>& periods_minutes,
    bool include_event_driven, std::size_t agents, std::uint64_t seed) {
  std::vector<FreqSweepRow> rows;

  auto run_policy = [&](core::ExchangePolicy policy, double period) {
    FreqSweepRow row;
    row.period_minutes = period;
    row.policy = policy == core::ExchangePolicy::kEventDriven
                     ? "event-driven"
                     : "periodic s=" + util::format_double(period, 0);
    for (std::uint32_t t = 0; t < scale.trials; ++t) {
      const std::uint64_t s = seed + 1000003ULL * t;
      const auto base =
          run_baseline(scaled_scenario(scale, 0, defense::Kind::kNone, s));
      ScenarioConfig cfg =
          scaled_scenario(scale, agents, defense::Kind::kDdPolice, s);
      cfg.ddpolice.exchange_policy = policy;
      cfg.ddpolice.exchange_period_minutes = period;
      const auto r = run_scenario(cfg);
      row.false_negative += static_cast<double>(r.errors.false_negative);
      row.false_positive += static_cast<double>(r.errors.false_positive);
      row.false_judgment += static_cast<double>(r.errors.false_judgment);
      row.exchange_msgs_per_minute +=
          static_cast<double>(r.defense_exchange_messages) /
          scale.total_minutes;
      const auto dmg = metrics::analyze_damage(
          r.history, base.summary.avg_success_rate, scale.attack_start);
      row.stabilized_damage += dmg.stabilized_damage;
    }
    const double d = static_cast<double>(scale.trials);
    row.false_negative /= d;
    row.false_positive /= d;
    row.false_judgment /= d;
    row.exchange_msgs_per_minute /= d;
    row.stabilized_damage /= d;
    rows.push_back(row);
  };

  for (double p : periods_minutes) run_policy(core::ExchangePolicy::kPeriodic, p);
  if (include_event_driven) {
    run_policy(core::ExchangePolicy::kEventDriven, 0.0);
  }
  return rows;
}

util::Table exchange_frequency_table(const std::vector<FreqSweepRow>& rows) {
  util::Table t({"policy", "false_negative", "false_positive", "false_judgment",
                 "exchange_msgs/min", "stabilized_damage(%)"});
  for (const auto& r : rows) {
    t.row()
        .cell(r.policy)
        .cell(r.false_negative, 1)
        .cell(r.false_positive, 1)
        .cell(r.false_judgment, 1)
        .cell(r.exchange_msgs_per_minute, 0)
        .cell(r.stabilized_damage, 1);
  }
  return t;
}

// ============================================================ Sec. 3.4 study

std::vector<CheatRow> run_cheat_ablation(const Scale& scale, std::size_t agents,
                                         std::uint64_t seed) {
  struct Case {
    attack::ReportStrategy report;
    attack::ListStrategy list;
  };
  const std::vector<Case> cases{
      {attack::ReportStrategy::kHonest, attack::ListStrategy::kHonest},
      {attack::ReportStrategy::kInflate, attack::ListStrategy::kHonest},
      {attack::ReportStrategy::kDeflate, attack::ListStrategy::kHonest},
      {attack::ReportStrategy::kMute, attack::ListStrategy::kHonest},
      {attack::ReportStrategy::kHonest, attack::ListStrategy::kFabricate},
      {attack::ReportStrategy::kHonest, attack::ListStrategy::kWithhold},
  };

  std::vector<CheatRow> rows;
  for (const auto& c : cases) {
    CheatRow row;
    row.report = std::string(attack::report_strategy_name(c.report));
    row.list = std::string(attack::list_strategy_name(c.list));
    double det_sum = 0.0;
    std::uint32_t det_n = 0;
    for (std::uint32_t t = 0; t < scale.trials; ++t) {
      const std::uint64_t s = seed + 1000003ULL * t;
      const auto base =
          run_baseline(scaled_scenario(scale, 0, defense::Kind::kNone, s));
      ScenarioConfig cfg =
          scaled_scenario(scale, agents, defense::Kind::kDdPolice, s);
      cfg.attack.behavior.report = c.report;
      cfg.attack.behavior.list = c.list;
      const auto r = run_scenario(cfg);
      const double bad_total = static_cast<double>(agents);
      row.bad_identified_pct +=
          bad_total > 0.0
              ? (bad_total - static_cast<double>(r.errors.false_positive)) /
                    bad_total * 100.0
              : 0.0;
      row.false_negative += static_cast<double>(r.errors.false_negative);
      const auto dmg = metrics::analyze_damage(
          r.history, base.summary.avg_success_rate, scale.attack_start);
      row.stabilized_damage += dmg.stabilized_damage;
      if (r.errors.mean_detection_minute >= 0.0) {
        det_sum += r.errors.mean_detection_minute;
        ++det_n;
      }
    }
    const double d = static_cast<double>(scale.trials);
    row.bad_identified_pct /= d;
    row.false_negative /= d;
    row.stabilized_damage /= d;
    row.detection_minutes = det_n > 0 ? det_sum / det_n : -1.0;
    rows.push_back(row);
  }
  return rows;
}

util::Table cheat_table(const std::vector<CheatRow>& rows) {
  util::Table t({"report", "list", "bad_identified(%)", "detection_time(min)",
                 "false_negative", "stabilized_damage(%)"});
  for (const auto& r : rows) {
    t.row()
        .cell(r.report)
        .cell(r.list)
        .cell(r.bad_identified_pct, 1)
        .cell(r.detection_minutes, 2)
        .cell(r.false_negative, 1)
        .cell(r.stabilized_damage, 1);
  }
  return t;
}

// ============================================================ Sec. 3.5 study

std::vector<RadiusRow> run_radius_ablation(const Scale& scale,
                                           std::size_t agents,
                                           std::uint64_t seed) {
  std::vector<RadiusRow> rows;
  for (int radius : {1, 2}) {
    for (auto report :
         {attack::ReportStrategy::kHonest, attack::ReportStrategy::kDeflate}) {
      RadiusRow row;
      row.radius = radius;
      row.report = std::string(attack::report_strategy_name(report));
      for (std::uint32_t t = 0; t < scale.trials; ++t) {
        const std::uint64_t s = seed + 1000003ULL * t;
        const auto base =
            run_baseline(scaled_scenario(scale, 0, defense::Kind::kNone, s));
        ScenarioConfig cfg =
            scaled_scenario(scale, agents, defense::Kind::kDdPolice, s);
        cfg.ddpolice.buddy_radius = radius;
        cfg.attack.behavior.report = report;
        const auto r = run_scenario(cfg);
        row.false_negative += static_cast<double>(r.errors.false_negative);
        row.false_positive += static_cast<double>(r.errors.false_positive);
        const auto dmg = metrics::analyze_damage(
            r.history, base.summary.avg_success_rate, scale.attack_start);
        row.stabilized_damage += dmg.stabilized_damage;
        row.overhead_msgs_per_minute +=
            static_cast<double>(r.defense_traffic_messages) /
            scale.total_minutes;
      }
      const double d = static_cast<double>(scale.trials);
      row.false_negative /= d;
      row.false_positive /= d;
      row.stabilized_damage /= d;
      row.overhead_msgs_per_minute /= d;
      rows.push_back(row);
    }
  }
  return rows;
}

util::Table radius_table(const std::vector<RadiusRow>& rows) {
  util::Table t({"r", "agents_report", "false_negative", "false_positive",
                 "stabilized_damage(%)", "protocol_msgs/min"});
  for (const auto& r : rows) {
    t.row()
        .cell(static_cast<std::int64_t>(r.radius))
        .cell(r.report)
        .cell(r.false_negative, 1)
        .cell(r.false_positive, 1)
        .cell(r.stabilized_damage, 1)
        .cell(r.overhead_msgs_per_minute, 0);
  }
  return t;
}

}  // namespace ddp::experiments
