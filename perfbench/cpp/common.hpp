#pragma once

/// \file common.hpp
/// Shared pieces of the benchmark binary: options, the span recorder of the
/// traced runs, operation and correctness checks, the outcome record every
/// workload fills, and small statistics helpers.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/ddpolice.hpp"
#include "util/types.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes per workload, for the benchmark's own test.
  bool smoke = false;
  /// Flow engine worker override (0 = the workload's own setting).
  unsigned flow_jobs = 0;
  /// Where the traced run writes its spans.
  std::string spans_path;
};

inline std::uint64_t mono_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(mono_ns() - start_ns) * 1e-9;
}

/// In-memory span recorder for the traced runs. The benchmark wraps each
/// public call it makes into the system in a span (name, start, end,
/// parent); spans stay in memory and are written once, when the run ends,
/// so no file I/O lands inside a timed region. Per-name totals (calls, wall
/// time, self time = wall time minus the time covered by child spans) are
/// exact for every span; raw records are capped so a loop of millions of
/// socket calls cannot exhaust memory. A parent always takes its record
/// slot before its children, so a stored child never has a missing parent.
class SpanTrace {
 public:
  static constexpr std::size_t kMaxStored = 100000;

  struct Totals {
    std::uint64_t calls = 0;
    std::uint64_t wall_ns = 0;
    std::uint64_t self_ns = 0;
  };

  explicit SpanTrace(bool enabled) : enabled_(enabled) {}

  /// Run `fn` inside a span called `name` (a string literal: the pointer is
  /// the key). With tracing off this is a plain call.
  template <typename Fn>
  decltype(auto) span(const char* name, Fn&& fn) {
    if (!enabled_) return fn();
    Guard guard(*this, name);
    return fn();
  }

  Totals totals(const std::string& name) const;
  double self_ms(const std::string& name) const {
    return static_cast<double>(totals(name).self_ns) * 1e-6;
  }
  double wall_ms(const std::string& name) const {
    return static_cast<double>(totals(name).wall_ns) * 1e-6;
  }
  /// Mean wall time per call, microseconds (0 without calls).
  double mean_us(const std::string& name) const;

  std::uint64_t spans_recorded() const noexcept { return recorded_; }

  /// Write the stored spans as JSON lines (one header line, then one line
  /// per span). Returns false when the file cannot be written.
  bool write(const std::string& path, const std::string& run_id) const;

 private:
  struct Open {
    std::size_t name = 0;
    std::int64_t record = -1;
    std::uint64_t start = 0;
    std::uint64_t child_ns = 0;
  };
  struct Record {
    std::size_t name = 0;
    std::int64_t parent = -1;
    std::uint64_t start = 0;
    std::uint64_t end = 0;
  };
  class Guard {
   public:
    Guard(SpanTrace& t, const char* name) : t_(t) { t_.open(name); }
    ~Guard() { t_.close(); }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    SpanTrace& t_;
  };

  std::size_t intern(const char* name);
  void open(const char* name);
  void close();

  bool enabled_;
  std::unordered_map<const char*, std::size_t> ids_;
  std::vector<std::string> names_;
  std::vector<Totals> totals_;
  std::vector<Open> stack_;
  std::vector<Record> records_;
  std::uint64_t recorded_ = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Operations (counted into attempted/failed) and correctness checks.
class Checks {
 public:
  /// One attempted operation; a false `ok` counts it failed.
  void op(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      note(what);
    }
  }
  /// Count `n` operations at once, `failed` of which failed.
  void ops(std::uint64_t n, std::uint64_t failed, const std::string& what) {
    attempted_ += n;
    failed_ += failed;
    if (failed > 0) note(what);
  }
  /// A correctness condition of the program's output.
  void verify(bool ok, const std::string& what) {
    if (!ok) {
      correct_ = false;
      note(what);
    }
  }

  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }
  bool correct() const noexcept { return correct_; }
  const std::vector<std::string>& notes() const noexcept { return notes_; }

 private:
  void note(const std::string& what) {
    if (notes_.size() < 20) notes_.push_back(what);
  }
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
  std::vector<std::string> notes_;
};

/// What one measurement pass of a workload produced.
struct Outcome {
  std::vector<double> setup_s;  ///< one sample per set-up
  /// Operations per host second: every trial's simulated minutes over
  /// their host time (sim workloads), or the 90th percentile over short
  /// chunks (socket workload).
  double ops_per_s = 0.0;
  /// Host seconds the pass measured (excludes set-up).
  double measured_s = 0.0;
  std::string digest;      ///< behaviour digest over every trial (sims)
  Metrics report;          ///< workload metrics by their published names
  Metrics layers;          ///< per-layer metrics (traced pass)
};

/// FNV-1a over raw bytes; the digests of minute series and decisions.
class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void f(double v) { bytes(&v, sizeof v); }
  void u(std::uint64_t v) { bytes(&v, sizeof v); }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void digest_decisions(Digest& d, const std::vector<ddp::core::Decision>& ds);

double median(std::vector<double> v);

/// Defense outcomes of a pass's trials, from each trial's decisions and
/// ground truth: distinct honest peers cut and the share of agents cut at
/// least once (means over trials), minutes from attack start to an agent's
/// first cut (median over every agent of every trial), and decisions in
/// total. An agent never cut counts as detected at the end of its trial,
/// so a run whose defense misses most agents reports its whole attack
/// window, not instant detection.
class DefenseTally {
 public:
  void add(const std::vector<ddp::core::Decision>& ds,
           const std::vector<char>& is_bad, double attack_start_minute,
           double end_minute);
  void report(Metrics& m) const;
  double detect_min_p50() const { return median(detect_); }

 private:
  std::vector<double> honest_, agents_cut_, detect_;
  double decisions_ = 0.0;
};

/// The judge's counters as per-layer metrics: suspicions, buddy rounds,
/// protocol messages, decisions, and decisions over rounds.
void police_layers(const ddp::core::DdPolice& police, Metrics& layers);

/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> v, double q);

/// Peak resident set of this process (VmHWM), MiB.
double peak_rss_mib();

inline bool finite_nonneg(double v) { return std::isfinite(v) && v >= 0.0; }

/// A sim pass repeats one trial, on the run's own seed, until its budget is
/// spent: at least two repeats, and another while at least half of it
/// (taking as long as the last one did) fits in the budget, so the pass
/// ends on average at the budget. The repeats do identical work, so they
/// must agree exactly, and the rate over all of them varies only with the
/// host.
inline bool another_repeat(int done, double elapsed_s, double last_s,
                           double budget_s) {
  return done < 2 || elapsed_s + 0.5 * last_s <= budget_s;
}

/// Seed of set-up sample k; sample 0 uses the run's own seed.
inline std::uint64_t trial_seed(std::uint64_t seed, int k) {
  return seed + 0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(k);
}

/// Mean of a list (0 when empty).
inline double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

// Workloads. Each runs one measurement pass sized to `budget_s` seconds.
Outcome run_flow20k_attack(const Options& o, bool traced, double budget_s,
                           SpanTrace& tr, Checks& checks);
Outcome run_paper2k(const Options& o, bool traced, double budget_s,
                    SpanTrace& tr, Checks& checks);
Outcome run_packet_flood(const Options& o, bool traced, double budget_s,
                         SpanTrace& tr, Checks& checks);
Outcome run_socket_loopback(const Options& o, bool traced, double budget_s,
                            SpanTrace& tr, Checks& checks);

}  // namespace perfbench
