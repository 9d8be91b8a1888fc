#pragma once

/// \file profile.hpp
/// Wall-clock profiling instruments for the simulation engines.
///
/// EngineProfiler hooks into sim::Engine: the engine times each dispatched
/// callback (steady_clock, only when a profiler is attached) and reports
/// it here under the event's category, together with the live-event gauge
/// at dispatch time. PhaseProfiler is the coarser scenario-level
/// instrument: named phases (tick stepping, each minute hook) accumulate
/// wall time through RAII scopes, answering "where did this run's real
/// seconds go".

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace ddp::obs {

class MetricsRegistry;

/// Dispatch categories for engine events. A std::uint8_t tag travels with
/// every scheduled event; uncategorized events land in kGeneric.
enum class EventCategory : std::uint8_t {
  kGeneric = 0,   ///< untagged callbacks
  kTransmit,      ///< p2p descriptor deliveries
  kService,       ///< p2p queue service steps
  kPeriodic,      ///< periodic tasks
  kFault,         ///< fault-injection timeline events
  kCount_,
};

inline constexpr std::size_t kEventCategoryCount =
    static_cast<std::size_t>(EventCategory::kCount_);

const char* category_name(EventCategory category) noexcept;

/// Monotonic nanoseconds; the clock every profiling instrument shares.
inline std::uint64_t wall_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Per-category dispatch timing plus queue-depth gauges for one
/// sim::Engine. Attach with Engine::set_profiler; detach (nullptr) to
/// stop sampling.
class EngineProfiler {
 public:
  struct CategoryStats {
    std::uint64_t events = 0;
    std::uint64_t wall_nanos = 0;

    double mean_us() const noexcept {
      return events > 0 ? static_cast<double>(wall_nanos) /
                              static_cast<double>(events) / 1e3
                        : 0.0;
    }
  };

  /// Called by the engine after each dispatched callback.
  void record(std::uint8_t category, std::uint64_t nanos, std::size_t pending,
              SimTime now) noexcept;

  const CategoryStats& stats(EventCategory category) const noexcept {
    return stats_[static_cast<std::size_t>(category)];
  }
  std::uint64_t total_events() const noexcept;
  std::uint64_t total_wall_nanos() const noexcept;

  std::size_t max_pending() const noexcept { return max_pending_; }
  double mean_pending() const noexcept;

  /// Simulated span covered by the recorded events (seconds).
  SimTime sim_span() const noexcept {
    return last_sim_t_ > first_sim_t_ ? last_sim_t_ - first_sim_t_ : 0.0;
  }
  /// Events per simulated minute (throughput of the modelled system).
  double events_per_sim_minute() const noexcept;
  /// Events per wall second (throughput of the simulator itself).
  double events_per_wall_second() const noexcept;

  void reset() noexcept;

  /// Human-readable per-category table.
  std::string report() const;

  /// Export as `engine.*` gauges (events, wall_ms and mean_us per
  /// category, pending gauges, throughput).
  void export_to(MetricsRegistry& registry) const;

 private:
  CategoryStats stats_[kEventCategoryCount]{};
  std::size_t max_pending_ = 0;
  double pending_sum_ = 0.0;
  SimTime first_sim_t_ = 0.0;
  SimTime last_sim_t_ = 0.0;
  bool any_ = false;
};

/// Named wall-clock phases for scenario-level profiling. Phases register
/// once (stable ids, report in registration order) and accumulate through
/// Scope RAII guards or explicit add().
class PhaseProfiler {
 public:
  std::size_t phase(std::string name);

  void add(std::size_t id, std::uint64_t nanos,
           std::uint64_t calls = 1) noexcept;

  class Scope {
   public:
    Scope(PhaseProfiler& profiler, std::size_t id) noexcept
        : profiler_(profiler), id_(id), start_(wall_ns()) {}
    ~Scope() { profiler_.add(id_, wall_ns() - start_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    PhaseProfiler& profiler_;
    std::size_t id_;
    std::uint64_t start_;
  };

  struct PhaseStat {
    std::string name;
    std::uint64_t calls = 0;
    std::uint64_t wall_nanos = 0;
  };

  const std::vector<PhaseStat>& phases() const noexcept { return phases_; }
  std::uint64_t total_wall_nanos() const noexcept;

  /// Human-readable table: phase, calls, total ms, mean us, share %.
  std::string report(
      const std::string& title = "run phase profile (wall clock)") const;

  /// Export as `profile.<phase>_ms` gauges.
  void export_to(MetricsRegistry& registry) const;

 private:
  std::vector<PhaseStat> phases_;
};

/// Run `fn`, adding its wall time to `phase` when a profiler is attached.
template <typename Fn>
void timed(PhaseProfiler* profiler, std::size_t phase, Fn&& fn) {
  if (profiler == nullptr) {
    fn();
    return;
  }
  PhaseProfiler::Scope scope(*profiler, phase);
  fn();
}

}  // namespace ddp::obs
