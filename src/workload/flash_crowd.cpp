#include "workload/flash_crowd.hpp"

#include <cmath>
#include <limits>

#include "snapshot/state_io.hpp"

namespace ddp::workload {

namespace {
constexpr double kNever = std::numeric_limits<double>::infinity();
}  // namespace

std::string validate(const FlashCrowdConfig& cfg) {
  if (!cfg.enabled) return {};
  if (!std::isfinite(cfg.start_minute) || cfg.start_minute < 0.0) {
    return "flash.start_minute must be finite and >= 0";
  }
  if (!std::isfinite(cfg.surge_minutes) || cfg.surge_minutes <= 0.0) {
    return "flash.surge_minutes must be a finite value > 0";
  }
  if (!std::isfinite(cfg.repeat_every_minutes) ||
      cfg.repeat_every_minutes < 0.0) {
    return "flash.repeat_every_minutes must be finite and >= 0";
  }
  if (!std::isfinite(cfg.surge_factor) || cfg.surge_factor < 1.0) {
    return "flash.surge_factor must be finite and >= 1";
  }
  if (!(cfg.participation > 0.0) || cfg.participation > 1.0) {
    return "flash.participation must be within (0, 1]";
  }
  return {};
}

FlashCrowdDriver::FlashCrowdDriver(const FlashCrowdConfig& config,
                                   std::size_t node_count, util::Rng rng,
                                   ScaleFn set_scale, EligibleFn eligible)
    : config_(config),
      node_count_(node_count),
      rng_(rng),
      set_scale_(std::move(set_scale)),
      eligible_(std::move(eligible)),
      next_surge_minute_(config.enabled ? config.start_minute : kNever) {}

void FlashCrowdDriver::begin_surge(double minute) {
  participants_.clear();
  // Per-peer Bernoulli in ascending id order: deterministic regardless of
  // how the eligible set shifted since the last surge.
  for (PeerId p = 0; p < node_count_; ++p) {
    if (!eligible_(p)) continue;
    if (rng_.uniform() < config_.participation) participants_.push_back(p);
  }
  for (const PeerId p : participants_) set_scale_(p, config_.surge_factor);
  surge_end_minute_ = minute + config_.surge_minutes;
  next_surge_minute_ = config_.repeat_every_minutes > 0.0
                           ? minute + config_.repeat_every_minutes
                           : kNever;
  ++surges_;
  DDP_TRACE(tracer_, obs::EventType::kFlashCrowdStarted, minute * kMinute,
            kInvalidPeer, kInvalidPeer,
            {{"participants", static_cast<double>(participants_.size())},
             {"factor", config_.surge_factor}});
}

void FlashCrowdDriver::end_surge(double minute) {
  // Restore only peers the surge still owns: a participant that churned
  // offline or fell into the quarantine ladder mid-surge has its budget
  // managed elsewhere now.
  for (const PeerId p : participants_) {
    if (eligible_(p)) set_scale_(p, 1.0);
  }
  DDP_TRACE(tracer_, obs::EventType::kFlashCrowdEnded, minute * kMinute,
            kInvalidPeer, kInvalidPeer,
            {{"participants", static_cast<double>(participants_.size())}});
  participants_.clear();
  surge_end_minute_ = -1.0;
}

void FlashCrowdDriver::on_minute(double minute) {
  if (!config_.enabled) return;
  if (surging() && minute + 1e-9 >= surge_end_minute_) end_surge(minute);
  if (!surging() && minute + 1e-9 >= next_surge_minute_) begin_surge(minute);
}

void FlashCrowdDriver::save(snapshot::Writer& w) const {
  w.f64(next_surge_minute_);
  w.f64(surge_end_minute_);
  snapshot::save_u32_vector(w, participants_);
  w.u64(static_cast<std::uint64_t>(surges_));
  snapshot::save_rng(w, rng_);
}

void FlashCrowdDriver::load(snapshot::Reader& r) {
  next_surge_minute_ = r.f64();
  surge_end_minute_ = r.f64();
  snapshot::load_u32_vector(r, participants_, 1u << 24);
  surges_ = static_cast<std::size_t>(r.u64());
  snapshot::load_rng(r, rng_);
}

}  // namespace ddp::workload
