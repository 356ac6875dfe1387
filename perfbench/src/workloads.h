// The benchmark's three workloads: scene builders (all seeds derived from
// the one workload seed through core::derive_seed) and the outcome guards
// that decide whether a run counts as failed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/fleet.h"
#include "core/scenario.h"

namespace perfbench {

enum class Workload {
  kCityStream,      ///< StreamingEngine, Boston city scene, 1 consumer
  kFleetContested,  ///< FleetEngine, pure ALOHA, 1000 tags, 30 s window
  kFleetAnalytic,   ///< FleetEngine, slotted ALOHA, 10^5 tags, 30 s window
};

/// Parses a workload name ("city-stream", "fleet-contested",
/// "fleet-analytic"); throws std::invalid_argument on anything else.
Workload parse_workload(const std::string& name);
const char* workload_name(Workload w);

/// Simulated seconds of the city-stream scene: three times the streaming
/// engine's 2 s station horizon (loop mode) and past its 4 s decision
/// window, so the steady block loop dominates the run.
inline constexpr double kCitySeconds = 6.0;
/// The fleet workloads' window.
inline constexpr double kFleetWindowSeconds = 30.0;
inline constexpr std::size_t kContestedTags = 1000;
inline constexpr std::size_t kAnalyticTags = 100000;

/// Derived-seed streams: one index per independent consumer of randomness.
inline constexpr std::uint64_t kSceneSeedStream = 0;
inline constexpr std::uint64_t kStationSeedStream = 1;
inline constexpr std::uint64_t kTagStartSeedStream = 2;

/// Station program seed of the city-stream band: the survey default, as in
/// bench_streaming. The city posters overlay their FSK on station 0's
/// program, so their bit errors depend on that program's content, not on
/// noise or distance: with derived station seeds 4 of 16 seeds put 1-3
/// errors into a 128-bit burst at 4 ft and at 2 ft alike, and the
/// error-free guard would fail whatever the code. The fleet workloads,
/// whose guards do not read BER, derive their station seeds.
inline constexpr std::uint64_t kCityStationSeed = 1;

/// Seed of the fleets' base tag-start schedule. Independent uniform starts
/// per seed move the PHY cluster count of fleet-contested from 37 to 54
/// (engine time 8.4-11.2 s), which no run-level median can steady; the
/// workload seed instead rotates this schedule in time.
inline constexpr std::uint64_t kFleetScheduleSeed = 40;

/// Densest in-scene slice of the surveyed Boston band, station program and
/// RDS seeds derived from `station_seed`.
std::vector<fmbs::core::ScenarioStation> boston_band(std::uint64_t station_seed);

/// The streaming city scene of bench_streaming: the Boston band (station
/// seed kCityStationSeed), two SSB posters off the scene-center station into
/// a clear gateway slot, one phone on the slot and one car radio on the
/// broadcast. The seed derives the scene seed (noise, payload bits) and
/// jitters the tag starts inside the first 1.2 s.
fmbs::core::Scenario city_scene(std::uint64_t seed, double duration_seconds);

/// The fleet scene of bench_fleet_capacity: `num_tags` posters round-robin
/// over the band's gateway slots, one gateway phone per slot, each tag
/// bursting once at a uniform time in the window (kFleetScheduleSeed's
/// schedule rotated by a seed-derived offset).
fmbs::core::Scenario fleet_scene(std::uint64_t seed, std::size_t num_tags,
                                 double duration_seconds, bool slotted);

/// Builds the workload's scenario (the timed set-up step).
fmbs::core::Scenario build_scenario(Workload w, std::uint64_t seed);

/// Simulated scene seconds one engine call covers (rtf numerator).
double simulated_seconds(Workload w);

/// Result of a guard check: empty `failures` means the run is valid.
struct GuardVerdict {
  std::vector<std::string> failures;
  bool ok() const { return failures.empty(); }
};

/// city-stream: both poster links decode error-free (every packet clean on
/// the best link) and the run outlasts the station horizon.
GuardVerdict check_city(const fmbs::core::Scenario& sc,
                        const fmbs::core::ScenarioResult& result,
                        double station_horizon_seconds);

/// fleet-contested: at least one PHY cluster resolved, and the resolution
/// buckets partition the links.
GuardVerdict check_fleet_contested(const fmbs::core::FleetStats& stats);

/// fleet-analytic: zero PHY clusters, and the same partition.
GuardVerdict check_fleet_analytic(const fmbs::core::FleetStats& stats);

}  // namespace perfbench
