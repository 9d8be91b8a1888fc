#include "obs/profile.hpp"

#include <sstream>

#include "obs/metrics.hpp"
#include "util/table.hpp"

namespace ddp::obs {

const char* category_name(EventCategory category) noexcept {
  switch (category) {
    case EventCategory::kGeneric: return "generic";
    case EventCategory::kTransmit: return "transmit";
    case EventCategory::kService: return "service";
    case EventCategory::kPeriodic: return "periodic";
    case EventCategory::kFault: return "fault";
    case EventCategory::kCount_: break;
  }
  return "?";
}

// ------------------------------------------------------- EngineProfiler

void EngineProfiler::record(std::uint8_t category, std::uint64_t nanos,
                            std::size_t pending, SimTime now) noexcept {
  const std::size_t c =
      category < kEventCategoryCount
          ? category
          : static_cast<std::size_t>(EventCategory::kGeneric);
  ++stats_[c].events;
  stats_[c].wall_nanos += nanos;
  if (pending > max_pending_) max_pending_ = pending;
  pending_sum_ += static_cast<double>(pending);
  if (!any_) {
    first_sim_t_ = now;
    any_ = true;
  }
  last_sim_t_ = now;
}

std::uint64_t EngineProfiler::total_events() const noexcept {
  std::uint64_t n = 0;
  for (const auto& s : stats_) n += s.events;
  return n;
}

std::uint64_t EngineProfiler::total_wall_nanos() const noexcept {
  std::uint64_t n = 0;
  for (const auto& s : stats_) n += s.wall_nanos;
  return n;
}

double EngineProfiler::mean_pending() const noexcept {
  const std::uint64_t n = total_events();
  return n > 0 ? pending_sum_ / static_cast<double>(n) : 0.0;
}

double EngineProfiler::events_per_sim_minute() const noexcept {
  const SimTime span = sim_span();
  return span > 0.0 ? static_cast<double>(total_events()) / to_minutes(span)
                    : 0.0;
}

double EngineProfiler::events_per_wall_second() const noexcept {
  const std::uint64_t nanos = total_wall_nanos();
  return nanos > 0 ? static_cast<double>(total_events()) /
                         (static_cast<double>(nanos) / 1e9)
                   : 0.0;
}

void EngineProfiler::reset() noexcept {
  for (auto& s : stats_) s = CategoryStats{};
  max_pending_ = 0;
  pending_sum_ = 0.0;
  first_sim_t_ = last_sim_t_ = 0.0;
  any_ = false;
}

std::string EngineProfiler::report() const {
  util::Table t({"category", "events", "wall_ms", "mean_us"});
  for (std::size_t c = 0; c < kEventCategoryCount; ++c) {
    const auto& s = stats_[c];
    if (s.events == 0) continue;
    t.row()
        .cell(std::string(category_name(static_cast<EventCategory>(c))))
        .cell(s.events)
        .cell(static_cast<double>(s.wall_nanos) / 1e6, 2)
        .cell(s.mean_us(), 2);
  }
  std::ostringstream os;
  t.print(os, "engine dispatch profile");
  os << "events " << total_events() << ", max pending " << max_pending_
     << ", mean pending " << mean_pending() << ", "
     << events_per_sim_minute() << " events/sim-min, "
     << events_per_wall_second() << " events/wall-s\n";
  return os.str();
}

void EngineProfiler::export_to(MetricsRegistry& registry) const {
  for (std::size_t c = 0; c < kEventCategoryCount; ++c) {
    const auto& s = stats_[c];
    if (s.events == 0) continue;
    const std::string base =
        std::string("engine.") + category_name(static_cast<EventCategory>(c));
    registry.set(registry.gauge(base + "_events"),
                 static_cast<double>(s.events));
    registry.set(registry.gauge(base + "_wall_ms"),
                 static_cast<double>(s.wall_nanos) / 1e6);
  }
  registry.set(registry.gauge("engine.max_pending"),
               static_cast<double>(max_pending_));
  registry.set(registry.gauge("engine.mean_pending"), mean_pending());
  registry.set(registry.gauge("engine.events_per_sim_minute"),
               events_per_sim_minute());
  registry.set(registry.gauge("engine.events_per_wall_second"),
               events_per_wall_second());
}

// -------------------------------------------------------- PhaseProfiler

std::size_t PhaseProfiler::phase(std::string name) {
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    if (phases_[i].name == name) return i;
  }
  PhaseStat p;
  p.name = std::move(name);
  phases_.push_back(std::move(p));
  return phases_.size() - 1;
}

void PhaseProfiler::add(std::size_t id, std::uint64_t nanos,
                        std::uint64_t calls) noexcept {
  if (id >= phases_.size()) return;
  phases_[id].wall_nanos += nanos;
  phases_[id].calls += calls;
}

std::uint64_t PhaseProfiler::total_wall_nanos() const noexcept {
  std::uint64_t n = 0;
  for (const auto& p : phases_) n += p.wall_nanos;
  return n;
}

std::string PhaseProfiler::report(const std::string& title) const {
  const double total = static_cast<double>(total_wall_nanos());
  util::Table t({"phase", "calls", "wall_ms", "mean_us", "share_pct"});
  for (const auto& p : phases_) {
    const double mean_us =
        p.calls > 0 ? static_cast<double>(p.wall_nanos) /
                          static_cast<double>(p.calls) / 1e3
                    : 0.0;
    t.row()
        .cell(p.name)
        .cell(p.calls)
        .cell(static_cast<double>(p.wall_nanos) / 1e6, 2)
        .cell(mean_us, 2)
        .cell(total > 0.0 ? static_cast<double>(p.wall_nanos) / total * 100.0
                          : 0.0,
              1);
  }
  std::ostringstream os;
  t.print(os, title);
  return os.str();
}

void PhaseProfiler::export_to(MetricsRegistry& registry) const {
  for (const auto& p : phases_) {
    registry.set(registry.gauge("profile." + p.name + "_ms"),
                 static_cast<double>(p.wall_nanos) / 1e6);
  }
}

}  // namespace ddp::obs
