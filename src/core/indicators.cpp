#include "core/indicators.hpp"

#include <algorithm>

namespace ddp::core {

double general_indicator(const std::vector<MemberReport>& reports, double q,
                         double input_credit_cap) {
  const std::size_t k = reports.size();
  if (k == 0 || q <= 0.0) return 0.0;
  double out_of_suspect = 0.0;  // sum_m Q_{j,m}
  double into_suspect = 0.0;    // sum_m Q_{m,j}
  for (const auto& r : reports) {
    out_of_suspect += r.in_from_suspect;
    into_suspect += r.out_to_suspect;
  }
  into_suspect = std::min(into_suspect, input_credit_cap);
  const double kk = static_cast<double>(k);
  return (out_of_suspect - (kk - 1.0) * into_suspect) / (kk * q);
}

double single_indicator(const std::vector<MemberReport>& reports, PeerId judge,
                        double q, double input_credit_cap) {
  if (q <= 0.0) return 0.0;
  double q_ji = 0.0;
  bool found = false;
  double others_into_suspect = 0.0;
  for (const auto& r : reports) {
    if (r.member == judge) {
      q_ji = r.in_from_suspect;
      found = true;
    } else {
      others_into_suspect += r.out_to_suspect;
    }
  }
  if (!found) return 0.0;
  others_into_suspect = std::min(others_into_suspect, input_credit_cap);
  return (q_ji - others_into_suspect) / q;
}

bool is_bad(double g, double s, double cut_threshold) {
  return g > cut_threshold || s > cut_threshold;
}

BuddyRound::BuddyRound(const std::vector<PeerId>& members) {
  slots_.reserve(members.size());
  for (const PeerId m : members) slots_.push_back({m, 0.0, 0.0, false});
}

bool BuddyRound::record(PeerId member, double out_to_suspect,
                        double in_from_suspect) {
  // Searching from the cursor makes in-order recording O(1) per answer.
  for (std::size_t step = 0; step < slots_.size(); ++step) {
    const std::size_t i = (cursor_ + step) % slots_.size();
    if (slots_[i].member != member || slots_[i].responded) continue;
    slots_[i] = {member, out_to_suspect, in_from_suspect, true};
    cursor_ = i + 1;
    return true;
  }
  return false;
}

bool BuddyRound::has_member(PeerId member) const noexcept {
  return std::ranges::find(slots_, member, &MemberReport::member) !=
         slots_.end();
}

bool BuddyRound::answered(PeerId member) const noexcept {
  return std::ranges::any_of(slots_, [member](const MemberReport& r) {
    return r.member == member && r.responded;
  });
}

bool BuddyRound::complete() const noexcept {
  return std::ranges::all_of(slots_, &MemberReport::responded);
}

Verdict assess(const std::vector<MemberReport>& reports, PeerId judge,
               PeerId suspect, double minute, const DdPoliceConfig& config,
               double ct, const obs::Tracer& tracer) {
  const double q = config.good_issue_bound;
  const double cap = config.capacity_bound_per_minute;
  Verdict v{judge, suspect, minute,
            general_indicator(reports, q, cap),
            single_indicator(reports, judge, q, cap),
            ct, static_cast<std::uint32_t>(reports.size()),
            static_cast<std::uint32_t>(
                std::ranges::count(reports, true, &MemberReport::responded))};
  DDP_TRACE(tracer, obs::EventType::kIndicatorComputed, minutes(minute),
            suspect, judge,
            {{"g", v.g},
             {"s", v.s},
             {"k", static_cast<double>(v.k)},
             {"responders", static_cast<double>(v.responders)}});
  return v;
}

Decision Verdict::convict(std::uint32_t true_degree,
                          const obs::Tracer& tracer) const {
  const Decision d{.minute = minute,
                   .judge = judge,
                   .suspect = suspect,
                   .g = g,
                   .s = s,
                   .via_single = !(g > ct),
                   .believed_k = k,
                   .responders = responders,
                   .true_degree = true_degree};
  DDP_TRACE(tracer, obs::EventType::kSuspectCut, minutes(minute), suspect,
            judge,
            {{"g", g}, {"s", s}, {"via_single", d.via_single ? 1.0 : 0.0}});
  return d;
}

}  // namespace ddp::core
