// The traced run. Per-layer numbers are taken from outside the program:
// the city-stream block loop is replayed, single-threaded, through each
// module's public calls, and every call is timed and its samples counted.
// No tracing code lives in src/. The fleet workloads add FleetStats and
// StationCache counts and the plan-vs-run wall split.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "json.h"
#include "workloads.h"

namespace perfbench {

/// Pipeline stages, named `<module>.<stage>` after the repo's modules.
enum class Stage : std::size_t {
  kStationSynth,  ///< fm: StationCache::render, FmModulator (loop mode)
  kUpsample,      ///< dsp: FirInterpolator, MPX -> RF rate
  kMix,           ///< dsp: Mixer::process_inplace, station offsets
  kReflect,       ///< tag: modulate_fsk, SubcarrierGenerator, reflection
  kSuperpose,     ///< channel: scale_into / accumulate_scaled
  kAwgn,          ///< channel: AwgnSource::add_to
  kTuner,         ///< rx: Tuner::process
  kDemod,         ///< fm: QuadratureDemodulator
  kStereo,        ///< fm: StereoStreamDecoder::push
  kDevice,        ///< rx: PhoneChainStream / CabinAcousticsStream
  kFsk,           ///< rx: StreamingBurstDemodulator
  kRds,           ///< rx: RdsStreamDecoder
  kPlan,          ///< core: resolve_scenario_plan + resolve_scene_pruning
  kCount,
};

inline constexpr std::size_t kNumStages = static_cast<std::size_t>(Stage::kCount);
const char* stage_name(Stage s);

struct StageStat {
  double seconds = 0.0;
  std::uint64_t calls = 0;
  /// Work items handed to the stage: samples for the DSP stages (output
  /// samples for the upsampler, input samples elsewhere; for rx.fsk and
  /// rx.rds the samples inside each decode window), (tag, receiver) links
  /// for core.plan.
  std::uint64_t samples = 0;
};

using StageTable = std::array<StageStat, kNumStages>;

/// A replay of one scenario's streaming block loop.
struct Replay {
  StageTable stages{};
  /// Work the shape implies: `samples` per stage, and `calls` = 1 for every
  /// stage the shape uses (check_replay requires calls there).
  StageTable expected{};
  /// The replay's decoded FSK links. The replay is the engine's loop,
  /// unthreaded, so compare_links expects them equal to the engine's.
  std::vector<fmbs::core::TagLinkReport> links;
};

/// Replays `sc` through the streaming block loop (loop-mode stations, one
/// segment, FSK tags), timing every public call.
Replay replay_streaming(const fmbs::core::Scenario& sc,
                        fmbs::units::Seconds station_horizon,
                        fmbs::units::Seconds decision_window);

/// Self-checks of a replay: samples equal the shape's expected count for
/// every stage, and every stage the shape uses has calls. Returns the
/// failures (empty = pass).
std::vector<std::string> check_replay(const Replay& replay);

/// Compares the replay's decoded links with the engine's.
std::vector<std::string> compare_links(
    const std::vector<fmbs::core::TagLinkReport>& replay,
    const fmbs::core::ScenarioResult& engine);

/// The traced run of a workload: one record with every per-layer metric.
JsonObject run_trace(Workload w, std::uint64_t seed);

}  // namespace perfbench
