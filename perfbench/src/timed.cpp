#include "timed.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

#include "core/streaming.h"
#include "measure.h"

namespace perfbench {

using namespace fmbs;

core::StreamingConfig city_streaming_config() {
  core::StreamingConfig config;
  config.consumer_threads = 1;
  return config;
}

TimedRun run_timed(Workload w, std::uint64_t seed, double setup_budget_s,
                   core::ScenarioResult* city_result) {
  TimedRun run;
  run.sim_seconds = simulated_seconds(w);

  // Builds for half the budget, timing each; returns the last build.
  const auto timed_setups = [&] {
    core::Scenario sc;
    double spent = 0.0;
    for (int i = 0;
         i < kMaxSetups && (i < kMinSetups || spent < 0.5 * setup_budget_s);
         ++i) {
      const double t0 = now_seconds();
      core::Scenario built = build_scenario(w, seed);
      run.setup_samples.push_back(now_seconds() - t0);
      spent += run.setup_samples.back();
      sc = std::move(built);  // the previous build is freed outside the timing
    }
    return sc;
  };
  const core::Scenario sc = timed_setups();

  reset_station_cache();
  const bool rss_reset = reset_peak_rss();
  const CpuTimes cpu0 = cpu_times();
  try {
    if (w == Workload::kCityStream) {
      core::StreamingConfig config = city_streaming_config();
      std::atomic<double> first_event{-1.0};
      double t0 = 0.0;
      config.on_link = [&](const core::StreamingLinkEvent&) {
        double unset = -1.0;
        first_event.compare_exchange_strong(unset, now_seconds());
      };
      const core::StreamingEngine engine(std::move(config));
      t0 = now_seconds();
      const core::ScenarioResult result = engine.run(sc);
      run.engine_seconds = now_seconds() - t0;
      if (first_event.load() >= 0.0) {
        run.first_link_seconds = first_event.load() - t0;
      }
      for (const auto& rr : result.receivers) run.links += rr.links.size();
      run.verdict = check_city(sc, result,
                               city_streaming_config().station_horizon.raw());
      if (!run.first_link_seconds) {
        run.verdict.failures.push_back("no on_link event");
      }
      if (city_result != nullptr) *city_result = result;
    } else {
      const core::FleetEngine engine;
      const double t0 = now_seconds();
      const core::FleetResult result = engine.run(sc);
      run.engine_seconds = now_seconds() - t0;
      run.first_link_seconds = run.engine_seconds;
      run.links = result.links.size();
      run.fleet = result.stats;
      run.verdict = w == Workload::kFleetContested
                        ? check_fleet_contested(result.stats)
                        : check_fleet_analytic(result.stats);
    }
  } catch (const std::exception& e) {
    run.threw = true;
    run.verdict.failures.push_back(std::string("threw: ") + e.what());
  }
  const CpuTimes cpu1 = cpu_times();
  run.engine_cpu = CpuTimes{cpu1.user - cpu0.user, cpu1.system - cpu0.system};
  if (rss_reset) run.peak_rss_mb = peak_rss_mb();
  run.cache = fm::StationCache::instance().stats();
  if (run.engine_seconds > 0.0) run.rtf = run.sim_seconds / run.engine_seconds;
  // The second half of the set-up samples, taken after the engine call: the
  // host's speed drifts on a scale of seconds, and two windows sample it
  // better than one.
  if (setup_budget_s > 0.0) timed_setups();
  run.setup_seconds =
      *std::min_element(run.setup_samples.begin(), run.setup_samples.end());
  return run;
}

}  // namespace perfbench
