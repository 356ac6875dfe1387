#include "selftest.h"

#include <iostream>
#include <string>
#include <vector>

#include "core/streaming.h"
#include "measure.h"
#include "timed.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace fmbs;

namespace {

class Checker {
 public:
  void expect(bool condition, const std::string& what) {
    std::cout << (condition ? "PASS " : "FAIL ") << what << "\n";
    if (!condition) ++failures_;
  }
  bool ok() const { return failures_ == 0; }

 private:
  int failures_ = 0;
};

core::FleetStats partitioned(std::size_t clusters) {
  core::FleetStats s;
  s.links_total = 10;
  s.analytic_clear = 4;
  s.analytic_collision = 4;
  s.phy_links = 2;
  s.phy_clusters = clusters;
  return s;
}

void guard_tests(Checker& c) {
  c.expect(check_fleet_contested(partitioned(1)).ok(),
           "fleet-contested guard accepts a valid run");
  c.expect(!check_fleet_contested(partitioned(0)).ok(),
           "fleet-contested guard rejects zero PHY clusters");
  core::FleetStats broken = partitioned(1);
  broken.analytic_clear -= 1;
  c.expect(!check_fleet_contested(broken).ok(),
           "fleet-contested guard rejects a broken partition");

  core::FleetStats analytic = partitioned(0);
  analytic.analytic_clear += analytic.phy_links;
  analytic.phy_links = 0;
  c.expect(check_fleet_analytic(analytic).ok(),
           "fleet-analytic guard accepts a valid run");
  analytic.phy_clusters = 1;
  c.expect(!check_fleet_analytic(analytic).ok(),
           "fleet-analytic guard rejects a PHY cluster");
  analytic.phy_clusters = 0;
  analytic.links_total += 1;
  c.expect(!check_fleet_analytic(analytic).ok(),
           "fleet-analytic guard rejects a broken partition");

  const core::Scenario sc = city_scene(7, kCitySeconds);
  core::ScenarioResult clean;
  for (std::size_t t = 0; t < sc.tags.size(); ++t) {
    core::TagLinkReport l;
    l.tag_index = t;
    l.burst.packets = 2;
    l.burst.packets_ok = 2;
    clean.best_per_tag.push_back(l);
  }
  c.expect(check_city(sc, clean, 2.0).ok(), "city guard accepts clean links");
  core::ScenarioResult errored = clean;
  errored.best_per_tag[1].burst.ber.ber = 1.0 / 128.0;
  errored.best_per_tag[1].burst.packets_ok = 1;
  c.expect(!check_city(sc, errored, 2.0).ok(),
           "city guard rejects a link with bit errors");
  core::ScenarioResult missing = clean;
  missing.best_per_tag.pop_back();
  c.expect(!check_city(sc, missing, 2.0).ok(),
           "city guard rejects a missing link");
  c.expect(!check_city(sc, clean, kCitySeconds + 1.0).ok(),
           "city guard rejects a run inside the station horizon");
}

void seed_tests(Checker& c) {
  for (const Workload w : {Workload::kCityStream, Workload::kFleetContested}) {
    const core::Scenario a = build_scenario(w, 3);
    const core::Scenario b = build_scenario(w, 3);
    const core::Scenario d = build_scenario(w, 4);
    bool same = a.seed == b.seed && a.tags.size() == b.tags.size();
    bool differs = a.seed != d.seed;
    for (std::size_t t = 0; t < a.tags.size(); ++t) {
      same = same && a.tags[t].start == b.tags[t].start;
    }
    differs = differs && a.tags[0].start != d.tags[0].start;
    const bool stations_move =
        a.stations[0].config.seed != d.stations[0].config.seed;
    c.expect(same, std::string(workload_name(w)) + ": same seed, same inputs");
    c.expect(differs, std::string(workload_name(w)) +
                          ": another seed moves the scene seed and tag starts");
    c.expect(stations_move == (w != Workload::kCityStream),
             std::string(workload_name(w)) +
                 (w == Workload::kCityStream
                      ? ": station program seed stays fixed"
                      : ": another seed moves the station seeds"));
  }
}

void trace_tests(Checker& c) {
  // A short city scene, still past the 2 s station horizon.
  const core::Scenario sc = city_scene(5, 2.5);
  const core::StreamingConfig config = city_streaming_config();
  reset_station_cache();
  const core::ScenarioResult engine = core::StreamingEngine(config).run(sc);
  reset_station_cache();
  const Replay replay =
      replay_streaming(sc, config.station_horizon, config.decision_window);
  const std::vector<std::string> failures = check_replay(replay);
  for (const std::string& f : failures) std::cout << "  " << f << "\n";
  c.expect(failures.empty(), "replay samples match the shape, every stage called");
  const std::vector<std::string> diffs = compare_links(replay.links, engine);
  for (const std::string& f : diffs) std::cout << "  " << f << "\n";
  c.expect(diffs.empty() && !replay.links.empty(),
           "replay decodes the engine's links exactly");
  c.expect(replay.stages[static_cast<std::size_t>(Stage::kAwgn)].samples ==
               sc.receivers.size() * 26 * 240000ULL,
           "channel.awgn = receivers x 2.4 MS/s x padded run (2.6 s)");

  Replay short_count = replay;
  short_count.stages[static_cast<std::size_t>(Stage::kTuner)].samples -= 1;
  c.expect(!check_replay(short_count).empty(),
           "self-check rejects a sample count off by one");
  Replay uncalled = replay;
  uncalled.stages[static_cast<std::size_t>(Stage::kRds)] = StageStat{};
  uncalled.expected[static_cast<std::size_t>(Stage::kRds)].samples = 0;
  c.expect(!check_replay(uncalled).empty(),
           "self-check rejects a used stage with zero calls");
  std::vector<core::TagLinkReport> altered = replay.links;
  altered.front().burst.packets_ok += 1;
  c.expect(!compare_links(altered, engine).empty(),
           "link comparison rejects a differing decode");
}

}  // namespace

bool run_selftest() {
  Checker c;
  guard_tests(c);
  seed_tests(c);
  trace_tests(c);
  std::cout << (c.ok() ? "selftest: all checks passed" : "selftest: FAILED")
            << "\n";
  return c.ok();
}

}  // namespace perfbench
