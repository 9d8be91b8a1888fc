#pragma once

/// \file indicators.hpp
/// The paper's detection indicators (Definitions 2.1-2.3), as pure
/// functions over a buddy group's collected Neighbor_Traffic reports, and
/// the Sec. 3.3 round core built on them.
///
/// For suspect j with believed neighbour set {m_1..m_k} and per-minute
/// counters Q_xy (queries sent from x to y):
///
///   g(j,t)   = [ sum_m Q_{j,m} - (k-1) * sum_m Q_{m,j} ] / (k * q)
///   s(j,t,i) = [ Q_{j,i} - sum_{m != i} Q_{m,j} ] / q
///
/// Under the no-duplication forwarding assumption both equal
/// (queries issued by j per minute) / q; Definition 2.3 calls j bad when
/// either exceeds 1 (generalized to the cut threshold CT in Sec. 3.7.2).
///
/// Missing members (offline, never exchanged, or refusing to answer) are
/// included in k with zero counters — the paper's timeout rule (Sec. 3.4).
///
/// The round core both DD-POLICE judges share: a BuddyRound records one
/// round (the believed group in order, each member's first answer, silent
/// members as zeros), assess() is the verdict step (g, s, the CT test and
/// the `indicator` trace) and Verdict::convict() makes the Decision and
/// the `suspect_cut` trace. DdPolice and LocalPolice only drive it.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "obs/trace.hpp"
#include "util/types.hpp"

namespace ddp::core {

/// One member's contribution to a buddy-group round.
struct MemberReport {
  PeerId member = kInvalidPeer;
  /// Queries the member sent to the suspect in the past minute
  /// (Out_query(suspect) at the member; Q_{m,j}).
  double out_to_suspect = 0.0;
  /// Queries the suspect sent to the member in the past minute
  /// (In_query(suspect) at the member; Q_{j,m}).
  double in_from_suspect = 0.0;
  /// False when the member timed out / refused — counters are zeros then.
  bool responded = true;
};

/// One disconnect decision, for the metrics pipeline.
struct Decision {
  double minute = 0.0;
  PeerId judge = kInvalidPeer;
  PeerId suspect = kInvalidPeer;
  double g = 0.0;
  double s = 0.0;
  bool via_single = false;     ///< s (rather than g) crossed the threshold
  bool list_violation = false; ///< disconnected by the consistency check
  std::uint32_t believed_k = 0;   ///< buddy-group size the judge used
  std::uint32_t responders = 0;   ///< members that answered the round
  std::uint32_t true_degree = 0;  ///< suspect's actual degree at decision time
};

/// General Indicator g(j,t) over the collected reports.
/// `q` is the good-issue bound (Definition 2.1's denominator).
///
/// `input_credit_cap` bounds how much of the suspect's reported input can
/// be credited as forwardable: a good peer services at most its processing
/// capacity per minute (the Sec. 2.3 calibration, ~10,000), so input beyond
/// that cannot explain output. Pass +infinity for the paper's literal
/// Definition 2.1 (which assumes unbounded forwarding). The cap is what
/// keeps the indicator discriminative when the overlay is saturated and
/// every link runs hot.
/// Returns 0 for an empty group.
double general_indicator(const std::vector<MemberReport>& reports, double q,
                         double input_credit_cap =
                             std::numeric_limits<double>::infinity());

/// Single Indicator s(j,t,i) computed by judge `i` (which must appear in
/// `reports`; its in_from_suspect is Q_{j,i}). `input_credit_cap` as above:
/// the suspect cannot have forwarded more input onto the judge's link than
/// it was able to service.
double single_indicator(const std::vector<MemberReport>& reports, PeerId judge,
                        double q,
                        double input_credit_cap =
                            std::numeric_limits<double>::infinity());

/// Definition 2.3 / Sec. 3.7.2 decision: is j a bad peer at threshold CT?
bool is_bad(double g, double s, double cut_threshold);

/// One buddy-group round (Sec. 3.3) as its judge records it. Members keep
/// the order they were given, the judge included wherever it was placed;
/// each slot starts silent (zeros, responded = false) and takes the first
/// answer recorded for it.
class BuddyRound {
 public:
  explicit BuddyRound(const std::vector<PeerId>& members);

  /// Record `member`'s counters about the suspect. The first answer wins:
  /// repeats and non-members are ignored (a member listed twice answers
  /// once per entry, filled from the last recorded slot on). Returns
  /// whether the answer was recorded.
  bool record(PeerId member, double out_to_suspect, double in_from_suspect);

  bool has_member(PeerId member) const noexcept;
  bool answered(PeerId member) const noexcept;
  /// Every member has answered.
  bool complete() const noexcept;

  /// One report per member in member order; silent members are zeros
  /// (Sec. 3.4's timeout rule).
  const std::vector<MemberReport>& reports() const& noexcept { return slots_; }
  std::vector<MemberReport> reports() && noexcept { return std::move(slots_); }

 private:
  std::vector<MemberReport> slots_;
  std::size_t cursor_ = 0;  ///< one past the last recorded slot
};

/// What `judge` concluded about `suspect` from a closed round.
struct Verdict {
  PeerId judge = kInvalidPeer;
  PeerId suspect = kInvalidPeer;
  double minute = 0.0;
  double g = 0.0;
  double s = 0.0;
  double ct = 0.0;
  std::uint32_t k = 0;           ///< believed group size (reports judged)
  std::uint32_t responders = 0;  ///< members that answered

  /// Definition 2.3 at this verdict's CT.
  bool bad() const noexcept { return is_bad(g, s, ct); }

  /// The cut Decision for a bad verdict; emits `suspect_cut`.
  Decision convict(std::uint32_t true_degree, const obs::Tracer& tracer) const;
};

/// The verdict step: g and s over `reports` as seen by `judge` (q and the
/// input-credit cap from `config`), judged against `ct`, with the
/// `indicator` trace event {g, s, k, responders}.
Verdict assess(const std::vector<MemberReport>& reports, PeerId judge,
               PeerId suspect, double minute, const DdPoliceConfig& config,
               double ct, const obs::Tracer& tracer);

}  // namespace ddp::core
