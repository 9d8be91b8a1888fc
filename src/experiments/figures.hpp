#pragma once

/// \file figures.hpp
/// Regeneration of every evaluation artifact in the paper: one entry point
/// per figure/table, each returning the raw sweep rows plus a formatted
/// util::Table that prints the same series the paper plots. Bench binaries
/// are thin wrappers over these; integration tests assert the paper-shape
/// properties on reduced scales.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "experiments/scenario.hpp"
#include "util/table.hpp"

namespace ddp::experiments {

/// Common sweep scale; default is laptop-sized, DDP_FULL=1 selects the
/// paper's 2,000-peer configuration.
struct Scale {
  std::size_t peers = 600;
  double total_minutes = 26.0;
  double attack_start = 5.0;
  double warmup_minutes = 8.0;  ///< measurement window start (post-attack)
  std::uint32_t trials = 2;
  std::vector<std::size_t> agent_counts{0, 1, 2, 5, 10, 20, 50, 100, 200};
  /// Worker threads for the sweeps built on SweepRunner (0 = one per
  /// hardware thread). Results are jobs-invariant: every reduction runs
  /// in the serial loops' index order, so jobs only changes wall clock.
  unsigned jobs = 1;
};

/// Laptop scale, or the paper's full scale when DDP_FULL is set; trials
/// overridable via DDP_TRIALS, jobs via DDP_JOBS.
Scale default_scale();

/// Configure a scenario at the sweep's scale.
ScenarioConfig scaled_scenario(const Scale& scale, std::size_t agents,
                               defense::Kind kind, std::uint64_t seed);

// ---------------------------------------------------------------- Figs 9-11
struct AgentSweepRow {
  std::size_t agents = 0;
  // Curves: attacked/no defense, attacked/DD-POLICE, no attack.
  double traffic_none = 0.0, traffic_ddp = 0.0, traffic_base = 0.0;
  double response_none = 0.0, response_ddp = 0.0, response_base = 0.0;
  double success_none = 0.0, success_ddp = 0.0, success_base = 0.0;
};

std::vector<AgentSweepRow> run_agent_sweep(const Scale& scale,
                                           std::uint64_t seed);

util::Table fig9_traffic_table(const std::vector<AgentSweepRow>& rows);
util::Table fig10_response_table(const std::vector<AgentSweepRow>& rows);
util::Table fig11_success_table(const std::vector<AgentSweepRow>& rows);

// ----------------------------------------------------------------- Fig 12
struct DamageTimelines {
  std::vector<double> minutes;                    ///< sample times
  std::map<std::string, std::vector<double>> series;  ///< label -> D(t) %
};

/// Damage-rate D(t) under a fixed attack for no-defense and DD-POLICE at
/// the given cut thresholds (paper: CT in {3, 7, 10}, 100 agents).
DamageTimelines run_damage_timelines(const Scale& scale,
                                     const std::vector<double>& cut_thresholds,
                                     std::size_t agents, std::uint64_t seed);

util::Table fig12_damage_table(const DamageTimelines& timelines);

// -------------------------------------------------------------- Figs 13-14
struct CtSweepRow {
  double cut_threshold = 0.0;
  double false_negative = 0.0;   ///< good peers wrongly cut (paper naming)
  double false_positive = 0.0;   ///< bad peers not identified
  double false_judgment = 0.0;
  double recovery_minutes = 0.0; ///< damage 20% -> 15% (Fig 14)
  double detection_minutes = 0.0;
  double stabilized_damage = 0.0;

  // Self-healing extension, filled only when run_ct_sweep also ran the
  // quarantine-policy variant (-1 marks "not measured"). The permanent-cut
  // columns above are computed from the exact same runs either way.
  double reinstate_minutes = -1.0;   ///< mean cut->reinstate latency, honest peers
  double honest_reinstated = 0.0;    ///< honest peers reinstated, per trial
  double success_permanent = -1.0;   ///< avg S(t) under CutPolicy::kPermanent
  double success_quarantine = -1.0;  ///< avg S(t) under CutPolicy::kQuarantine
  /// Mean end-of-run per-peer success probability of the reinstated honest
  /// peers (their own reach through the engine's hit model). While cut the
  /// same peers sit at 0 — under kPermanent they stay there forever — so
  /// this column is the direct "service recovered" receipt.
  double reinstated_success = -1.0;
};

/// Error counts vs. cut threshold (Figs 13-14). When `with_quarantine` is
/// set, each threshold additionally runs the same seeds under
/// CutPolicy::kQuarantine to measure the mean time-to-reinstate of falsely
/// cut honest peers and the success-rate recovery it buys; the
/// permanent-cut error columns are untouched by the extra runs.
std::vector<CtSweepRow> run_ct_sweep(const Scale& scale,
                                     const std::vector<double>& cut_thresholds,
                                     std::size_t agents, std::uint64_t seed,
                                     bool with_quarantine = false);

util::Table fig13_errors_table(const std::vector<CtSweepRow>& rows);
util::Table fig14_recovery_table(const std::vector<CtSweepRow>& rows);

// ------------------------------------------------- Sec. 3.7.1 (frequency)
struct FreqSweepRow {
  std::string policy;            ///< "periodic s=2" or "event-driven"
  double period_minutes = 0.0;   ///< 0 for event-driven
  double false_negative = 0.0;
  double false_positive = 0.0;
  double false_judgment = 0.0;
  double exchange_msgs_per_minute = 0.0;
  double stabilized_damage = 0.0;
};

std::vector<FreqSweepRow> run_exchange_frequency_study(
    const Scale& scale, const std::vector<double>& periods_minutes,
    bool include_event_driven, std::size_t agents, std::uint64_t seed);

util::Table exchange_frequency_table(const std::vector<FreqSweepRow>& rows);

// ------------------------------------------------------ Sec. 3.4 (cheating)
struct CheatRow {
  std::string report;  ///< honest / inflate / deflate / mute
  std::string list;    ///< honest / fabricate / withhold
  double detection_minutes = 0.0;   ///< mean first-detection latency
  double bad_identified_pct = 0.0;  ///< agents detected at least once
  double false_negative = 0.0;
  double stabilized_damage = 0.0;
};

std::vector<CheatRow> run_cheat_ablation(const Scale& scale, std::size_t agents,
                                         std::uint64_t seed);

util::Table cheat_table(const std::vector<CheatRow>& rows);

// ------------------------------------------------------- Sec. 3.5 (radius)
struct RadiusRow {
  int radius = 1;
  std::string report;  ///< agents' reporting strategy
  double false_negative = 0.0;
  double false_positive = 0.0;
  double stabilized_damage = 0.0;
  double overhead_msgs_per_minute = 0.0;
};

std::vector<RadiusRow> run_radius_ablation(const Scale& scale,
                                           std::size_t agents,
                                           std::uint64_t seed);

util::Table radius_table(const std::vector<RadiusRow>& rows);

}  // namespace ddp::experiments
