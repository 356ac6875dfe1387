// Fig. 7 — SNR vs tag-receiver distance for ambient powers of -20..-60 dBm
// at the backscatter device (paper: a 1 kHz tone; usable SNR out to 20 ft at
// -30 dBm, close range still fine at -50 dBm).
//
// Runs as a scenario-level sweep: each grid cell is a one-tag Scenario (a
// 1 kHz tone backscattered over an unmodulated carrier) pushed through the
// ScenarioEngine by core::run_scenario_grid — per-cell seeds derive from the
// grid position and every cell shares one cached station render.
#include <iostream>

#include "audio/tone.h"
#include "core/scenario.h"
#include "dsp/spectrum.h"
#include "tag/baseband.h"

namespace {

constexpr double kToneHz = 1000.0;
constexpr double kDuration = 1.0;

fmbs::core::Scenario tone_scenario(double power_dbm, double distance_ft) {
  using namespace fmbs;
  core::Scenario sc;
  sc.name = "fig07";
  sc.seed = 0;          // derived per grid cell by the sweep seed policy
  core::ScenarioStation station;
  station.config.seed = 0;  // pinned sweep-wide: one shared station render
  // Fig. 6/7 methodology: "an FM station transmitting no audio information".
  station.config.program.genre = audio::ProgramGenre::kSilence;
  station.config.program.stereo = false;
  station.power = units::Dbm{power_dbm};
  sc.stations = {station};
  sc.settle = units::Seconds{0.0};
  sc.duration = units::Seconds{kDuration};

  core::ScenarioTag t;
  t.name = "tone-tag";
  t.custom_baseband = tag::compose_overlay_baseband(
      audio::make_tone(kToneHz, 1.0, kDuration, fm::kAudioRate),
      core::kOverlayLevel);
  t.distance_override = units::Feet{distance_ft};
  sc.tags.push_back(std::move(t));
  sc.receivers.push_back(core::phone_listening_to(sc.tags[0].subcarrier));
  return sc;
}

double received_tone_snr_db(const fmbs::core::ScenarioResult& result) {
  using namespace fmbs;
  const audio::MonoBuffer& mono = result.receivers[0].capture.mono;
  // Skip the filter-settling head before measuring, as run_tone_snr does.
  const auto skip = static_cast<std::size_t>(0.1 * fm::kAudioRate);
  const std::span<const float> body(mono.samples.data() + skip,
                                    mono.size() - skip);
  return dsp::tone_snr_db(body, fm::kAudioRate, kToneHz, 100.0, 15000.0);
}

}  // namespace

int main() {
  using namespace fmbs;

  const std::vector<double> distances_ft{1, 2, 4, 6, 8, 12, 16, 20};
  const std::vector<double> powers_dbm{-20, -30, -40, -50, -60};

  std::vector<core::ScenarioGridRow> rows;
  for (const double p : powers_dbm) {
    rows.push_back({std::to_string(static_cast<int>(p)) + "dBm",
                    [p](double d) { return tone_scenario(p, d); },
                    [](const core::ScenarioResult& result, double) {
                      return received_tone_snr_db(result);
                    }});
  }
  core::SweepRunner runner;
  const core::ScenarioEngine engine;  // captures kept: the metric needs audio
  const auto series = core::run_scenario_grid(runner, engine, rows, distances_ft);

  std::cout << "Fig. 7: received SNR of a 1 kHz backscattered tone\n"
               "(paper: ~50 dB at -20 dBm close in; ~20 ft usable at -30 dBm;\n"
               " still usable at close range at -50 dBm)\n\n";
  core::print_table(std::cout, "Fig 7: SNR (dB) vs distance (ft)", "dist_ft",
                    distances_ft, series, 1);
  return 0;
}
