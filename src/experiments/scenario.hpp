#pragma once

/// \file scenario.hpp
/// One-stop scenario runner: builds the full simulated system — topology,
/// bandwidth map, content model, flow engine, churn, attack campaign,
/// defense — runs it for a configured number of simulated minutes, and
/// returns the measured series plus ground-truth error tallies. Every
/// figure bench and integration test goes through this.

#include <cstdint>
#include <vector>

#include <functional>

#include <memory>

#include <string>

#include "attack/scenario.hpp"
#include "core/config.hpp"
#include "core/quarantine.hpp"
#include "defense/defense.hpp"
#include "fault/plane.hpp"
#include "flow/config.hpp"
#include "metrics/damage.hpp"
#include "metrics/errors.hpp"
#include "metrics/summary.hpp"
#include "obs/forensics.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/series.hpp"
#include "obs/trace.hpp"
#include "p2p/partition.hpp"
#include "topology/generators.hpp"
#include "workload/churn.hpp"
#include "workload/content.hpp"
#include "workload/flash_crowd.hpp"

namespace ddp::flow {
class ChurnDriver;
}

namespace ddp::experiments {

/// Read-only view of the live system handed to inspection hooks: the soak
/// harness asserts standing invariants against these. Pointers are valid
/// only for the duration of the hook call; subsystems a run did not build
/// are null (ledger without kQuarantine, healer without repair, ...).
struct ScenarioView {
  const flow::FlowNetwork* net = nullptr;
  const attack::AttackScenario* attack = nullptr;
  const flow::ChurnDriver* churn = nullptr;
  const core::DdPolice* ddpolice = nullptr;
  const core::QuarantineLedger* ledger = nullptr;
  const p2p::PartitionHealer* healer = nullptr;
  const fault::FaultPlane* fault = nullptr;
};

/// Observability plane of one run. All knobs default off, in which case
/// the scenario constructs nothing, binds nothing, and every engine runs
/// its exact untraced path (bit-identical results, no extra rng draws).
struct ObsConfig {
  /// Caller-owned trace sink; bound to every instrumented subsystem
  /// (flow, churn, attack, DD-POLICE control plane, fault injector).
  /// Must outlive run_scenario. Null = tracing off.
  obs::TraceSink* trace_sink = nullptr;
  /// Collect per-minute metric snapshots into ScenarioResult::metrics.
  bool metrics = false;
  /// Wall-clock profile the minute hooks into ScenarioResult::profile.
  bool profile = false;
  /// Per-attacker forensics into ScenarioResult::forensics: activates the
  /// per-agent causal events (agent_activated, agent_minute) and folds
  /// them — plus the DD-POLICE flag/indicator/cut storyline — live. The
  /// extra events also reach trace_sink when one is set.
  bool forensics = false;
  /// Ring window (minutes) of the per-peer/per-edge rate series collected
  /// into ScenarioResult::series; 0 = no series store.
  std::size_t series_window_minutes = 0;
};

struct ScenarioConfig {
  std::uint64_t seed = 20070710;

  // Topology (paper: 2,000 peers, BRITE-like, average degree ~6).
  topology::GeneratorConfig topo{};

  // Content / workload.
  workload::ContentConfig content{};

  // Churn (paper: mean lifetime 10 min, var mean/2).
  workload::ChurnConfig churn{};

  // Attack campaign (agents = 0 -> no attack).
  attack::AttackConfig attack{};

  // Flash crowds: correlated legitimate query surges (disabled by default;
  // the false-cut stressor for threshold defenses).
  workload::FlashCrowdConfig flash{};

  // Defense.
  defense::Kind defense = defense::Kind::kNone;
  core::DdPoliceConfig ddpolice{};
  double naive_cut_threshold = 500.0;

  // Engine.
  flow::FlowConfig flow{};

  // Fault injection (all-zero by default: the scenario then builds no
  // FaultPlane at all and every subsystem runs its exact fault-free path).
  fault::FaultConfig fault{};

  // Run shape.
  double total_minutes = 30.0;
  double warmup_minutes = 3.0;  ///< excluded from averages

  /// Re-link under-connected good peers each minute (peers keep their
  /// connection count up via host caches; without this, false disconnects
  /// would permanently fragment the overlay).
  bool maintain_overlay = true;
  std::size_t maintain_min_degree = 3;
  /// Probability per minute that an under-connected peer finds replacement
  /// neighbours (host-cache discovery and connection establishment take
  /// time, so being wrongly disconnected carries a real service cost).
  double maintain_rate_per_minute = 0.5;

  /// Detect disconnected components each minute (after maintenance) and
  /// re-bootstrap stranded healthy peers into the main component. Off by
  /// default: the paper's overlay has no repair, and the default run must
  /// stay bit-identical.
  bool repair_partitions = false;
  p2p::RepairConfig repair{};

  // Observability (off by default: zero-cost path).
  ObsConfig obs{};

  /// Inspection hook, run at every completed minute after all mutation
  /// hooks (churn/attack/fault/defense/maintenance/repair) settled. Null
  /// (the default) registers nothing.
  std::function<void(double minute, const ScenarioView& view)> inspect;
};

struct ScenarioResult {
  std::vector<flow::MinuteReport> history;
  metrics::RunSummary summary;       ///< averaged over the measurement window
  metrics::ErrorTally errors;        ///< vs ground truth
  std::vector<core::Decision> decisions;
  std::vector<char> is_bad;          ///< ground truth per peer
  std::size_t attack_rejoins = 0;
  std::uint64_t defense_exchange_messages = 0;
  std::uint64_t defense_traffic_messages = 0;
  std::uint64_t defense_rounds = 0;
  double final_active_peers = 0.0;

  // Self-healing outcomes (empty/zero under CutPolicy::kPermanent).
  std::vector<core::ReinstateRecord> reinstatements;
  core::QuarantineStats quarantine{};
  std::uint64_t partition_sweeps = 0;   ///< healer invocations
  std::uint64_t partitions_seen = 0;    ///< sweeps that found > 1 component
  std::uint64_t peers_repaired = 0;     ///< stranded peers re-bootstrapped

  // Adaptive-band outcomes (all zero unless ddpolice.adaptive.enabled).
  std::uint64_t band_reestimates = 0;
  std::uint64_t suspicion_entries = 0;
  std::uint64_t suspicion_exits = 0;
  // Flash-crowd outcomes (zero unless flash.enabled).
  std::size_t flash_surges = 0;

  // Fault-injection outcomes (all zero on a fault-free run).
  fault::ControlCounters fault_control{};   ///< DD-POLICE timeout/retry tallies
  fault::ChannelCounters fault_channel{};   ///< link-level fates drawn
  std::size_t fault_crashes = 0;            ///< peers crash-stopped
  std::size_t fault_stalls = 0;             ///< stall episodes

  // Observability outputs (null unless the matching ObsConfig knob is on;
  // shared_ptr keeps ScenarioResult copyable for the bench harnesses).
  std::shared_ptr<obs::MetricsRegistry> metrics_registry;
  std::shared_ptr<obs::PhaseProfiler> profile;
  /// DD-POLICE's sub-phases (exchange, flag scan, rounds), a breakdown of
  /// `profile`'s "defense"; kept apart so `profile` still partitions the
  /// run's wall clock.
  std::shared_ptr<obs::PhaseProfiler> defense_profile;
  /// The flow tick's stages (arrivals, service+emit+clamp, fold), a
  /// breakdown of `profile`'s "flow_ticks", kept apart the same way.
  std::shared_ptr<obs::PhaseProfiler> flow_profile;
  std::shared_ptr<obs::ForensicsAccumulator> forensics;
  std::shared_ptr<obs::SeriesStore> series;
};

/// Range-check every numeric knob of a scenario (engine rates, protocol
/// thresholds, fault probabilities, run shape). Returns an empty string
/// when the configuration is usable, otherwise a human-readable
/// description of the first problem found.
std::string validate_config(const ScenarioConfig& config);

/// Build and run one scenario. Throws std::invalid_argument with the
/// validate_config() message if the configuration is out of range.
ScenarioResult run_scenario(const ScenarioConfig& config);

/// Same configuration with the attack and defense removed — the paper's
/// "no DDoS attack" reference curve and the S(t) baseline for damage.
ScenarioResult run_baseline(ScenarioConfig config);

/// Convenience: paper-shaped config at a given scale.
ScenarioConfig paper_scenario(std::size_t peers, std::size_t agents,
                              defense::Kind defense, std::uint64_t seed);

}  // namespace ddp::experiments
