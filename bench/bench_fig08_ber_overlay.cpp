// Fig. 8 — BER of overlay backscatter vs distance, power and bit rate
// (paper: (a) 100 bps near-zero to 6 ft at every power, >12 ft above
// -60 dBm; (b,c) 1.6/3.2 kbps low BER to 16 ft at >= -40 dBm; range shrinks
// as rate grows). Background: recorded-station programs (here: synthetic
// news content; see bench_ablations for the genre sweep).
//
// Runs as a scenario-level sweep: each grid cell is a one-tag Scenario whose
// FSK burst the engine composes, renders and scores itself
// (core::run_scenario_grid derives per-cell seeds and shares one cached
// station render across the whole figure).
#include <iostream>

#include "core/scenario.h"

namespace {

fmbs::core::Scenario ber_scenario(double power_dbm, double distance_ft,
                                  fmbs::tag::DataRate rate, std::size_t bits) {
  using namespace fmbs;
  core::Scenario sc;
  sc.name = "fig08";
  sc.seed = 0;          // derived per grid cell by the sweep seed policy
  core::ScenarioStation station;
  station.config.seed = 0;  // pinned sweep-wide: one shared station render
  station.config.program.genre = audio::ProgramGenre::kNews;
  station.power = units::Dbm{power_dbm};
  sc.stations = {station};
  sc.duration = units::Seconds{
      static_cast<double>(bits) / tag::bits_per_second(rate) + 0.15};

  core::ScenarioTag t;
  t.name = "tag";
  t.rate = rate;
  t.num_bits = bits;
  t.distance_override = units::Feet{distance_ft};
  sc.tags.push_back(std::move(t));
  sc.receivers.push_back(core::phone_listening_to(sc.tags[0].subcarrier));
  return sc;
}

}  // namespace

int main() {
  using namespace fmbs;

  const std::vector<double> distances_ft{2, 4, 6, 8, 12, 16, 20};
  const std::vector<double> powers_dbm{-20, -30, -40, -50, -60};
  struct RatePlan {
    tag::DataRate rate;
    std::size_t bits;
    const char* figure;
  };
  const std::vector<RatePlan> plans{
      {tag::DataRate::k100bps, 200, "Fig 8a: BFSK @ 100 bps"},
      {tag::DataRate::k1600bps, 640, "Fig 8b: FDM-4FSK @ 1.6 kbps"},
      {tag::DataRate::k3200bps, 960, "Fig 8c: FDM-4FSK @ 3.2 kbps"},
  };

  core::SweepRunner runner;
  const core::ScenarioEngine engine({.keep_captures = false});
  for (const auto& plan : plans) {
    std::vector<core::ScenarioGridRow> rows;
    for (const double p : powers_dbm) {
      rows.push_back({std::to_string(static_cast<int>(p)) + "dBm",
                      [p, &plan](double d) {
                        return ber_scenario(p, d, plan.rate, plan.bits);
                      },
                      [](const core::ScenarioResult& result, double) {
                        return result.best_per_tag.empty()
                                   ? 1.0
                                   : result.best_per_tag[0].burst.ber.ber;
                      }});
    }
    const auto series =
        core::run_scenario_grid(runner, engine, rows, distances_ft);
    core::print_table(std::cout, plan.figure, "dist_ft", distances_ft, series, 4);
    std::cout << "\n";
  }
  std::cout << "(paper shapes: 100 bps robust everywhere near; higher rates\n"
               " trade range; -60 dBm only works at the shortest distances)\n";
  return 0;
}
