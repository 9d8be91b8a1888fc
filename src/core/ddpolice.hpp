#pragma once

/// \file ddpolice.hpp
/// The DD-POLICE protocol (Sec. 3): every peer polices its direct
/// neighbours' query behaviour by cooperating with each neighbour's buddy
/// group. Three phases run at the engine's minute cadence:
///
///   1. neighbour-list exchange (Sec. 3.1) — periodic or event-driven;
///      received lists are snapshots that age until the next exchange, so
///      buddy groups can be stale (the source of misjudgment studied in
///      Sec. 3.7.1). Advertised lists are optionally verified with the
///      named peers; inconsistencies disconnect the liar.
///   2. neighbour query-traffic monitoring (Sec. 3.2) — per-link
///      per-minute Out_query/In_query counters, provided by the engine.
///   3. bad-peer recognition (Sec. 3.3) — a neighbour exceeding the
///      warning threshold triggers a buddy-group round: members exchange
///      Neighbor_Traffic messages (suppressed to one per suspect per
///      window) and each flagging judge records them in a BuddyRound; the
///      shared verdict step counts silent members as zero (Sec. 3.4),
///      computes g / s, and the judge disconnects at g > CT or s > CT.
///
/// The round record and the verdict live in indicators.hpp. DdPolice runs
/// them synchronously over the whole overlay: one call collects every
/// member's report, so it also hosts the simulation-side extras (list
/// verification, fault-plane retries, quarantine, adaptive bands).
/// core::LocalPolice (police.hpp) runs them per node, driven by messages.
///
/// Compromised peers can cheat in this protocol; their reporting/list
/// behaviour is injected through ReportPolicy / ListPolicy so the
/// experiment harness can reproduce Sec. 3.4's case analysis.

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/config.hpp"
#include "core/indicators.hpp"
#include "core/overlay_port.hpp"
#include "core/quarantine.hpp"
#include "fault/plane.hpp"
#include "obs/trace.hpp"
#include "topology/edge_index.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/types.hpp"

namespace ddp::obs {
class PhaseProfiler;
}  // namespace ddp::obs

namespace ddp::snapshot {
class Writer;
class Reader;
}  // namespace ddp::snapshot

namespace ddp::core {

/// Truthful counters handed to a report policy.
struct TrafficTruth {
  double out_to_suspect = 0.0;
  double in_from_suspect = 0.0;
};

/// What `reporter` answers inside the buddy group of `suspect`;
/// std::nullopt models refusal / mute (treated as zeros after timeout).
///
/// Contract: within one minute the answer must be a pure function of
/// (reporter, suspect, truth) — no RNG draws, no state. Every judge of a
/// round hears the same Neighbor_Traffic answer (Sec. 3.3's suppression
/// window), so DdPolice calls the policy at most once per (reporter,
/// suspect) per minute and hands that one answer to all of them.
using ReportPolicy = std::function<std::optional<TrafficTruth>(
    PeerId reporter, PeerId suspect, const TrafficTruth& truth)>;

/// What `owner` advertises as its neighbour list (the truth, sorted, is
/// passed in; liars fabricate or withhold entries). Called once per
/// receiver of each advertisement, so a policy may draw randomness per
/// receiver. Entries must name peers of the overlay (ids below the
/// graph's node_count); advertise throws std::invalid_argument otherwise.
using ListPolicy =
    std::function<std::vector<PeerId>(PeerId owner, std::vector<PeerId> truth)>;

/// Per-decision threshold source. DD-POLICE consults the installed policy
/// for both the per-link warning threshold (what makes a neighbour
/// suspicious at the monitor) and the per-pair cut threshold CT (what a
/// buddy round judges the indicators against). A null policy reproduces
/// the paper's static constants bit-for-bit; AdaptiveThresholds
/// (core/adaptive.hpp) learns both from per-link history bands.
class ThresholdPolicy {
 public:
  virtual ~ThresholdPolicy() = default;

  /// Queries/minute above which `judge` flags its neighbour `suspect`.
  virtual double warning_threshold(PeerId judge, PeerId suspect) const = 0;

  /// The CT `judge` applies to the indicators of `suspect` this round.
  virtual double cut_threshold(PeerId judge, PeerId suspect) const = 0;
};

class AdaptiveThresholds;

/// Checkpoint io for Decision, shared by every defense that records them.
void save_decision(snapshot::Writer& w, const Decision& d);
void load_decision(snapshot::Reader& r, Decision& d);

class DdPolice {
 public:
  DdPolice(OverlayPort& port, const DdPoliceConfig& config, util::Rng rng);
  ~DdPolice();  // out-of-line: AdaptiveThresholds is incomplete here

  /// Install cheating behaviours (defaults are honest).
  void set_report_policy(ReportPolicy policy) { report_policy_ = std::move(policy); }
  void set_list_policy(ListPolicy policy) { list_policy_ = std::move(policy); }

  /// Override the threshold source (null restores the static constants).
  /// Constructing with config.adaptive.enabled installs the built-in
  /// AdaptiveThresholds automatically; this seam exists for tests and
  /// future policies.
  void set_threshold_policy(ThresholdPolicy* policy) noexcept {
    policy_ = policy;
  }

  /// The built-in adaptive policy, or null when adaptive.enabled is off.
  AdaptiveThresholds* adaptive() noexcept { return adaptive_.get(); }
  const AdaptiveThresholds* adaptive() const noexcept { return adaptive_.get(); }

  /// Attach a fault plane: control messages then traverse its
  /// UnreliableChannel as real encoded wire bytes (lost, delayed,
  /// duplicated or corrupted per its config), peers it reports crashed or
  /// stalled stop answering, and each request runs the per-request
  /// timeout + bounded-retry + exponential-backoff loop before falling
  /// back to Sec. 3.4's count-as-zero rule. Null (the default) or a plane
  /// with all probabilities zero keeps the exact fault-free code path, so
  /// decisions stay bit-identical to an unfaulted run.
  void set_fault_plane(fault::FaultPlane* plane) noexcept { fault_ = plane; }

  /// Timeout/retry/corrupt-reject counters (zeros without a fault plane).
  const fault::ControlCounters& control_stats() const noexcept;

  /// Shard the per-minute flag scan (phase 2's monitor sweep) across the
  /// pool's workers. Requires the port's sent_last_minute() to be safe for
  /// concurrent const reads — true of the flow engine's cold counter array,
  /// NOT of the packet engine's advance-on-read sliding windows, so only
  /// flow-backed runs should attach a pool. The merge replays per-span hits
  /// in span (= PeerId) order, so flags, traces, counters and round order
  /// are bit-identical at any worker count. Null (the default) keeps the
  /// inline serial scan.
  void set_sweep_pool(util::ThreadPool* pool) noexcept { sweep_pool_ = pool; }

  /// Time the protocol's sub-phases into `profiler` (null detaches):
  /// "exchange" (list exchange and verification), "flag_scan" (the
  /// monitor sweep and its replay) and "rounds" (buddy rounds and the cuts
  /// they decide). Timing only; outputs are identical with or without it.
  void set_profiler(obs::PhaseProfiler* profiler);

  /// Attach a trace sink (null detaches). Emits the control-plane
  /// vocabulary: neighbor_list / list_violation on exchanges,
  /// suspect_flagged / indicator / suspect_cut during detection, and
  /// traffic_request/reply/retry/timeout plus corrupt_reject / late_reply
  /// for each Neighbor_Traffic collection. Out-of-line because the sink is
  /// also forwarded to the (incomplete-here) adaptive policy.
  void set_trace_sink(obs::TraceSink* sink) noexcept;
  const obs::Tracer& tracer() const noexcept { return tracer_; }

  /// The quarantine ledger, or null under CutPolicy::kPermanent.
  const QuarantineLedger* ledger() const noexcept {
    return ledger_ ? &*ledger_ : nullptr;
  }
  QuarantineLedger* ledger() noexcept { return ledger_ ? &*ledger_ : nullptr; }

  /// Run one protocol step; call at every completed simulated minute.
  void on_minute(double minute);

  const std::vector<Decision>& decisions() const noexcept { return decisions_; }

  /// Counters for the overhead/behaviour analyses.
  std::uint64_t exchange_messages() const noexcept { return exchange_messages_; }
  std::uint64_t traffic_messages() const noexcept { return traffic_messages_; }
  std::uint64_t rounds_run() const noexcept { return rounds_; }
  std::uint64_t suspicions() const noexcept { return suspicions_; }

  /// The snapshot a peer holds about a neighbour (empty if none) —
  /// exposed for tests and the exchange-frequency study.
  std::vector<PeerId> snapshot_of(PeerId holder, PeerId about) const;

  /// Serialize durable protocol state (neighbour-list snapshots, exchange
  /// schedule, decisions, counters, ledger, rng) into the writer's open
  /// section. Per-minute scratch (flagged set, judge lists, pending
  /// disconnects) is minute-local and excluded — checkpoints are taken at
  /// minute boundaries where it is empty by construction.
  void save(snapshot::Writer& w) const;

  /// Restore state saved by save(). The ledger presence (cut policy) must
  /// match the snapshot's; throws SnapshotError otherwise.
  void load(snapshot::Reader& r);

 private:
  /// A neighbour-list snapshot `holder` keeps about `about`. Snapshots
  /// deliberately outlive the holder-about edge (a cut or churned link
  /// does not erase what the holder learned), so they are NOT slot-keyed:
  /// each holder keeps a small dense vector scanned by `about` (buddy
  /// degree ~6), replacing the global (holder,about)-keyed hash map.
  struct Snapshot {
    PeerId about = kInvalidPeer;
    std::vector<PeerId> members;
    std::vector<PeerId> prev_members;  ///< previous advertisement generation
    double minute = -1.0;
  };

  const Snapshot* find_snapshot(PeerId holder, PeerId about) const noexcept;
  Snapshot& snapshot_for(PeerId holder, PeerId about);

  void exchange_phase(double minute);
  /// Send `truth` (p's sorted neighbours) through the list policy to one
  /// receiver. Returns true when the consistency check cut the link.
  bool advertise_to(PeerId p, PeerId receiver, const std::vector<PeerId>& truth,
                    double minute);
  void advertise(PeerId p, double minute);
  void flag_scan(double minute);
  void run_rounds(double minute);
  void run_round(PeerId suspect, const std::vector<PeerId>& judges,
                 double minute);
  /// Fill group_ with what `judge` believes the buddy group of `suspect`
  /// is: the advertised members, then unseen previous members, then the
  /// judge itself if absent.
  void believed_group(PeerId judge, PeerId suspect);
  /// What `member` answers this round about `suspect`, computed on first
  /// use and shared by every judge of the round; std::nullopt when it is
  /// down or refuses.
  const std::optional<TrafficTruth>& answer_of(PeerId member, PeerId suspect);
  /// The r = 2 cross-check's reading of `member`'s links other than the
  /// one to `suspect`: the largest last-minute Out_query and how many
  /// links were asked. Scanned on first use and shared by every judge of
  /// the round, like answer_of.
  struct OtherLinks {
    double max_sent = 0.0;
    std::size_t asked = 0;
  };
  const OtherLinks& other_links_of(PeerId member, PeerId suspect);
  /// Deliver `answer` to one judge's Neighbor_Traffic request, with its
  /// trace events; std::nullopt when the judge hears nothing (Sec. 3.4
  /// then counts the member as zero).
  std::optional<TrafficTruth> collect_report(
      PeerId member, PeerId suspect, const std::optional<TrafficTruth>& answer,
      double minute);
  /// True when a fault plane with non-zero fault rates is attached.
  bool transport_faulty() const noexcept {
    return fault_ != nullptr && fault_->control_active();
  }
  std::optional<TrafficTruth> collect_over_faulty_transport(
      PeerId member, PeerId suspect,
      const std::optional<TrafficTruth>& answer, double minute);
  bool deliver_list_over_faulty_transport(PeerId sender,
                                          std::vector<PeerId>& advertised);

  OverlayPort& port_;
  DdPoliceConfig config_;
  util::Rng rng_;
  obs::Tracer tracer_;
  std::optional<QuarantineLedger> ledger_;  ///< engaged under kQuarantine
  ReportPolicy report_policy_;
  ListPolicy list_policy_;
  fault::FaultPlane* fault_ = nullptr;
  std::unique_ptr<AdaptiveThresholds> adaptive_;  ///< when adaptive.enabled
  ThresholdPolicy* policy_ = nullptr;  ///< null => static paper thresholds

  topology::PeerMap<std::vector<Snapshot>> snapshots_;  ///< by holder
  std::size_t snapshot_count_ = 0;  ///< total held snapshots (ping costing)
  std::vector<std::pair<PeerId, PeerId>> pending_disconnects_;
  std::vector<double> next_exchange_minute_;
  std::vector<std::vector<PeerId>> last_advertised_;  ///< event-driven diffing
  /// Buddy-round scratch, reused across minutes: per-suspect judge lists
  /// (dense, by suspect) plus the suspects of this minute in first-flag
  /// order — the canonical round order.
  topology::PeerMap<std::vector<PeerId>> judges_scratch_;
  std::vector<PeerId> flagged_;
  /// One over-threshold observation from the flag scan. Each span records
  /// hits in judge-scan order; the serial replay walks spans in order, so
  /// the sequence is the same for one inline span or many pooled ones.
  struct FlagHit {
    PeerId judge = kInvalidPeer;
    PeerId suspect = kInvalidPeer;
    double out = 0.0;
  };
  util::ThreadPool* sweep_pool_ = nullptr;
  std::vector<std::vector<FlagHit>> flag_scratch_;  ///< per-span hit logs

  /// A set of peers that empties in O(1): a peer is in it when its slot
  /// holds the current epoch, and clear() moves to the next epoch.
  class PeerMarks {
   public:
    /// Empty the set and make room for ids below `peers`.
    void clear(std::size_t peers);
    bool contains(PeerId p) const noexcept { return epoch_of_[p] == epoch_; }
    /// Add `p`; false when it was already in the set.
    bool insert(PeerId p) noexcept {
      if (contains(p)) return false;
      epoch_of_[p] = epoch_;
      return true;
    }

   private:
    std::vector<std::uint32_t> epoch_of_;
    std::uint32_t epoch_ = 0;
  };
  /// Round and advertisement scratch, reused and sized by peers: the
  /// members already placed in group_ (or the previous list during an
  /// advertisement's check), the union of every judge's group this round,
  /// each member's answer this round (valid where answered_ holds it), and
  /// its r = 2 other-link reading.
  PeerMarks seen_;
  PeerMarks in_union_;
  PeerMarks answered_;
  std::vector<std::optional<TrafficTruth>> answers_;
  PeerMarks other_links_known_;        ///< r = 2: other_links_ is valid
  std::vector<OtherLinks> other_links_;
  std::vector<PeerId> group_;

  obs::PhaseProfiler* profiler_ = nullptr;
  std::size_t ph_exchange_ = 0, ph_flag_scan_ = 0, ph_rounds_ = 0;

  std::vector<Decision> decisions_;
  std::uint64_t exchange_messages_ = 0;
  std::uint64_t traffic_messages_ = 0;
  std::uint64_t rounds_ = 0;
  std::uint64_t suspicions_ = 0;
};

}  // namespace ddp::core
