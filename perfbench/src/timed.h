// One untraced engine run of a workload: set-up timed several times, run
// hygiene applied, the engine call timed, and the outcome guarded.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/fleet.h"
#include "core/streaming.h"
#include "fm/station_cache.h"
#include "measure.h"
#include "workloads.h"

namespace perfbench {

/// Wall seconds of repeated scenario builds each timed run measures.
inline constexpr double kSetupBudgetSeconds = 0.25;
inline constexpr int kMinSetups = 3;
inline constexpr int kMaxSetups = 2000;

/// The streaming engine options every city-stream run uses: one consumer
/// thread (producer + consumer = 2 threads), defaults otherwise.
fmbs::core::StreamingConfig city_streaming_config();

struct TimedRun {
  double sim_seconds = 0.0;
  double engine_seconds = 0.0;  ///< wall time of the engine call
  double rtf = 0.0;             ///< sim_seconds / engine_seconds
  CpuTimes engine_cpu;          ///< CPU seconds of the engine call
  /// Wall seconds from engine entry to the first decoded link the caller
  /// can see: the first on_link event for the streaming engine; the whole
  /// call for FleetEngine, which hands every link over when it returns.
  std::optional<double> first_link_seconds;
  double setup_seconds = 0.0;               ///< fastest of setup_samples
  std::vector<double> setup_samples;        ///< one per scenario build
  std::optional<double> peak_rss_mb;        ///< unset when reset failed
  bool threw = false;
  GuardVerdict verdict;
  fmbs::core::FleetStats fleet;             ///< fleet workloads only
  fmbs::fm::StationCache::Stats cache;
  std::size_t links = 0;
};

/// Runs the workload once. The scenario is built repeatedly, each build
/// timed, for half of `setup_budget_s` before the engine call (the last
/// build is run) and half after it; each half makes at least kMinSetups and
/// at most kMaxSetups builds. setup_seconds is the fastest build: a build
/// takes about 1 ms, and contention from other tenants of the host moves
/// single builds between two modes 1.7x apart, so the median of a run's
/// builds follows the mode mix while the fastest build follows the code. City-stream runs hand their engine result to
/// `city_result` when it is given (the traced run checks its replay
/// against it).
TimedRun run_timed(Workload w, std::uint64_t seed, double setup_budget_s,
                   fmbs::core::ScenarioResult* city_result = nullptr);

}  // namespace perfbench
