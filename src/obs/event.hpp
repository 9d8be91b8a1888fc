#pragma once

/// \file event.hpp
/// Typed trace events: the vocabulary of the observability plane. Every
/// subsystem (sim, flow, p2p, defense, attack, fault) describes what it
/// did as a TraceEvent — simulated time, the peers involved, and a small
/// fixed set of key=value payload fields — and hands it to whatever
/// TraceSink the run installed. Events are plain trivially-copyable
/// structs so a ring buffer can retain them without allocation; field
/// keys are string literals with static storage duration.

#include <array>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string_view>

#include "util/types.hpp"

namespace ddp::obs {

/// Everything the simulator can put on a trace. Grouped by the layer that
/// emits it; docs/observability.md documents the payload of each.
enum class EventType : std::uint8_t {
  // Packet engine data plane (per descriptor). `query` is the
  // deterministic per-run query id (from kQueryIssued), `parent` the peer
  // the descriptor arrived from (-1 at the origin): together they encode
  // each query's flood tree losslessly (obs::build_flood_tree).
  kQueryIssued = 0,   ///< a=origin; kv: query, object, attack
  kQueryForwarded,    ///< a=from, b=to; kv: ttl, hops, query, parent
  kQueryDropped,      ///< a=peer, b=from (queue overflow); kv: queue, query
  kQueryDuplicate,    ///< a=peer, b=from dropped a seen GUID; kv: query
  kQueryHit,          ///< a=responder, b=origin; kv: object, hops, query, parent
  kHitDelivered,      ///< a=origin; kv: latency, query
  kQueryExpired,      ///< a=leaf, b=from (no forward); kv: query, ttl, hops

  // Flow engine (aggregate volumes; per completed minute / per action).
  // A ddpnode process emits kMinuteReport too, with a = itself and kv:
  // issued, forwarded, hits, dups, revoked, degree, conns (+ final = 1 on
  // its shutdown record).
  kMinuteReport,      ///< kv: traffic, attack, dropped, success
  kLinkDisconnected,  ///< a,b = endpoints of the cut link
  kEdgeAdded,         ///< a,b = endpoints of the new link
  kPeerOffline,       ///< a = peer whose flow state was torn down

  // Membership and attack campaign.
  kPeerJoined,        ///< a = rejoining peer (churn); a ddpnode at start:
                      ///< kv index, port, attacker
  kPeerLeft,          ///< a = departing peer (churn)
  kAttackStarted,     ///< kv: agents
  kAgentRejoined,     ///< a = agent that walked back in; kv: links
  kAgentActivated,    ///< a = picked agent (forensics); kv: rate
  kAgentMinute,       ///< a = agent, per minute (forensics); kv: out, drop_frac

  // DD-POLICE control plane.
  kNeighborListSent,  ///< a=advertiser, b=receiver; kv: entries
  kListViolation,     ///< a=suspect, b=judge (consistency check failed)
  kSuspectFlagged,    ///< a=suspect, b=judge; kv: out (last-minute rate)
  kIndicatorComputed, ///< a=suspect, b=judge; kv: g, s, k, responders
  kSuspectCut,        ///< a=suspect, b=judge; kv: g, s, via_single
  kTrafficRequest,    ///< a=member, b=suspect (Neighbor_Traffic request)
  kTrafficReply,      ///< a=member, b=suspect; kv: out, in
  kTrafficRetry,      ///< a=member, b=suspect; kv: attempt
  kTrafficTimeout,    ///< a=member, b=suspect (retries exhausted)
  kCorruptReject,     ///< a=member, b=suspect (undecodable/inconsistent)
  kLateReply,         ///< a=member, b=suspect; kv: rtt

  // Fault injection.
  kFaultCrash,        ///< a = crash-stopped peer
  kFaultStall,        ///< a = stalled peer; kv: until
  kFaultResume,       ///< a = peer resuming from a stall

  // Self-healing: quarantine ladder and partition repair.
  kPeerQuarantined,   ///< a = suspect; kv: strikes, release (minute)
  kPeerProbation,     ///< a = peer on probation; kv: links, budget
  kPeerReinstated,    ///< a = reinstated peer; kv: quarantined_minutes
  kPeerBanned,        ///< a = banned peer; kv: strikes
  kPartitionDetected, ///< kv: components, stranded, largest
  kPeerRebootstrapped,///< a = repaired peer; kv: links, attempts

  // Adaptive cut bands (core/adaptive.hpp) and flash-crowd workload.
  kBandReestimated,   ///< kv: links (bands updated), mature (total mature)
  kSuspicionEntered,  ///< a = peer over its suspicion rail; kv: ratio
  kSuspicionExited,   ///< a = peer back in band; kv: minutes
  kFlashCrowdStarted, ///< kv: participants, factor
  kFlashCrowdEnded,   ///< kv: participants

  // util::log bridge (t < 0: wall-layer, no sim clock available).
  kLog,               ///< kv: level; note = message (truncated)

  kCount_,            ///< sentinel, not a real event
};

inline constexpr std::size_t kEventTypeCount =
    static_cast<std::size_t>(EventType::kCount_);

/// Stable machine name ("query_issued", "suspect_cut", ...). Used as the
/// JSONL "type" string and by trace_tool filters.
const char* event_name(EventType type) noexcept;

/// Inverse of event_name; nullopt for unknown names.
std::optional<EventType> event_from_name(std::string_view name) noexcept;

/// One trace event. Trivially copyable: sinks may memcpy/retain freely.
struct TraceEvent {
  static constexpr std::size_t kMaxFields = 8;
  static constexpr std::size_t kNoteCapacity = 64;

  /// One key=value payload entry. `key` must be a string literal (or
  /// otherwise outlive every sink holding the event).
  struct Field {
    const char* key = nullptr;
    double value = 0.0;
  };

  SimTime t = 0.0;                 ///< simulated seconds; < 0 = wall layer
  EventType type = EventType::kLog;
  PeerId a = kInvalidPeer;         ///< subject peer (if any)
  PeerId b = kInvalidPeer;         ///< counterpart peer (if any)
  std::uint8_t n_fields = 0;
  std::array<Field, kMaxFields> fields{};
  char note[kNoteCapacity] = {};   ///< optional free text, NUL-terminated

  void add_field(const char* key, double value) noexcept {
    if (n_fields < kMaxFields) fields[n_fields++] = Field{key, value};
  }

  void set_note(std::string_view text) noexcept {
    const std::size_t n = text.size() < kNoteCapacity - 1
                              ? text.size()
                              : kNoteCapacity - 1;
    std::memcpy(note, text.data(), n);
    note[n] = '\0';
  }

  bool has_note() const noexcept { return note[0] != '\0'; }
};

static_assert(std::is_trivially_copyable_v<TraceEvent>,
              "ring-buffer sinks rely on memcpy-able events");

}  // namespace ddp::obs
