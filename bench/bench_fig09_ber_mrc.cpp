// Fig. 9 — BER with maximal-ratio combining at 1.6 kbps, -40 dBm (paper:
// combining two transmissions already reduces BER significantly; the
// ambient program acts as uncorrelated noise across repetitions).
//
// Runs as a scenario-level sweep (finishing the migration started with
// fig07/fig08): each grid cell is a one-tag Scenario whose custom baseband
// carries the N repetitions, pushed through the ScenarioEngine by
// core::run_scenario_grid — per-cell seeds derive from the grid position
// and every cell shares one cached station render. The MRC combine +
// demodulate measurement runs in the cell's eval, exactly as the legacy
// harness did it.
#include <iostream>

#include "audio/tone.h"
#include "core/scenario.h"
#include "rx/mrc.h"
#include "tag/baseband.h"

namespace {

using namespace fmbs;

constexpr double kSettleSeconds = 0.08;  // receiver warm-up lead-in
constexpr std::size_t kBits = 480;
constexpr tag::DataRate kRate = tag::DataRate::k1600bps;

/// Per-cell payload content: deterministic in the grid position, shared by
/// the scenario factory and the eval without threading state between them.
std::vector<std::uint8_t> cell_bits(std::size_t reps, double distance_ft) {
  return tag::random_bits(
      kBits, core::derive_seed(0xF19, reps * 1000 +
                                          static_cast<std::uint64_t>(
                                              distance_ft * 10.0)));
}

audio::MonoBuffer repeated_payload(const std::vector<std::uint8_t>& bits,
                                   std::size_t reps) {
  const audio::MonoBuffer one = tag::modulate_fsk(bits, kRate, fm::kAudioRate);
  audio::MonoBuffer all = one;
  for (std::size_t r = 1; r < reps; ++r) all = audio::concat(all, one);
  return all;
}

core::Scenario mrc_scenario(std::size_t reps, double distance_ft) {
  core::Scenario sc;
  sc.name = "fig09";
  sc.seed = 0;          // derived per grid cell by the sweep seed policy
  core::ScenarioStation station;
  station.config.seed = 0;  // pinned sweep-wide: one shared station render
  station.config.program.genre = audio::ProgramGenre::kNews;
  station.power = units::Dbm{-40.0};
  sc.stations = {station};
  sc.settle = units::Seconds{0.0};  // the lead-in lives inside the custom baseband

  const audio::MonoBuffer all =
      repeated_payload(cell_bits(reps, distance_ft), reps);
  sc.duration = units::Seconds{all.duration_seconds() + kSettleSeconds + 0.15};

  core::ScenarioTag t;
  t.name = "mrc-tag";
  t.custom_baseband = tag::compose_overlay_baseband(
      audio::concat(audio::make_silence(kSettleSeconds, fm::kAudioRate), all),
      core::kOverlayLevel);
  t.distance_override = units::Feet{distance_ft};
  sc.tags.push_back(std::move(t));
  sc.receivers.push_back(core::phone_listening_to(sc.tags[0].subcarrier));
  return sc;
}

double mrc_ber(const core::ScenarioResult& result, std::size_t reps,
               double distance_ft) {
  const std::vector<std::uint8_t> bits = cell_bits(reps, distance_ft);
  const audio::MonoBuffer& full = result.receivers[0].capture.mono;
  // Drop the warm-up lead-in, then trim the padding tail so the N segments
  // tile exactly for the combiner.
  const auto skip = static_cast<std::size_t>(kSettleSeconds * fm::kAudioRate);
  const double payload_seconds =
      repeated_payload(bits, reps).duration_seconds();
  const auto payload_samples =
      static_cast<std::size_t>(payload_seconds * fm::kAudioRate);
  audio::MonoBuffer mono(
      std::vector<float>(
          full.samples.begin() + static_cast<std::ptrdiff_t>(skip),
          full.samples.begin() +
              static_cast<std::ptrdiff_t>(
                  std::min(full.size(), skip + payload_samples))),
      fm::kAudioRate);
  audio::MonoBuffer combined =
      reps == 1 ? mono : rx::mrc_combine(mono, reps, 0);
  // The pipeline group delay pushes the last symbol just past the trimmed
  // buffer; repetitions are cyclic, so the head restores the tail.
  const std::size_t extra = std::min<std::size_t>(combined.size(), 480);
  combined.samples.insert(
      combined.samples.end(), combined.samples.begin(),
      combined.samples.begin() + static_cast<std::ptrdiff_t>(extra));
  const rx::FskDemodResult demod =
      rx::demodulate_fsk(combined, kRate, bits.size());
  return rx::compare_bits(bits, demod.bits).ber;
}

}  // namespace

int main() {
  const std::vector<double> distances_ft{4, 8, 12, 16, 20};
  const std::vector<std::size_t> repetitions{1, 2, 3, 4};

  std::vector<core::ScenarioGridRow> rows;
  for (const std::size_t reps : repetitions) {
    rows.push_back({reps == 1 ? "No MRC" : std::to_string(reps) + "x MRC",
                    [reps](double d) { return mrc_scenario(reps, d); },
                    [reps](const core::ScenarioResult& result, double d) {
                      return mrc_ber(result, reps, d);
                    }});
  }
  core::SweepRunner runner;
  const core::ScenarioEngine engine;  // captures kept: the combiner needs audio
  const auto series = core::run_scenario_grid(runner, engine, rows, distances_ft);

  std::cout << "Fig. 9: BER with MRC, 1.6 kbps @ -40 dBm\n"
               "(paper: 2x combining already gives most of the gain)\n\n";
  core::print_table(std::cout, "Fig 9: BER vs distance with MRC", "dist_ft",
                    distances_ft, series, 4);
  return 0;
}
