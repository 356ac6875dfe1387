#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>
#include <utility>

#include "core/rng.h"
#include "fm/constants.h"
#include "survey/city_survey.h"
#include "tag/fsk.h"

namespace perfbench {

using namespace fmbs;

Workload parse_workload(const std::string& name) {
  if (name == "city-stream") return Workload::kCityStream;
  if (name == "fleet-contested") return Workload::kFleetContested;
  if (name == "fleet-analytic") return Workload::kFleetAnalytic;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kCityStream:
      return "city-stream";
    case Workload::kFleetContested:
      return "fleet-contested";
    case Workload::kFleetAnalytic:
      return "fleet-analytic";
  }
  return "?";
}

std::vector<core::ScenarioStation> boston_band(std::uint64_t station_seed) {
  const auto cities = survey::builtin_city_spectra();
  const survey::CitySpectrum* boston = nullptr;
  for (const auto& city : cities) {
    if (city.name == "Boston") boston = &city;
  }
  if (boston == nullptr) throw std::runtime_error("no Boston survey");
  core::SurveySceneReport report;
  for (const int channel : boston->detectable_channels) {
    core::SurveySceneReport candidate = core::stations_from_survey_report(
        *boston, channel, units::Hertz{core::kMaxStationOffsetHz},
        station_seed);
    if (candidate.stations.size() > report.stations.size()) {
      report = std::move(candidate);
    }
  }
  return report.stations;
}

core::Scenario city_scene(std::uint64_t seed, double duration_seconds) {
  core::Scenario sc;
  sc.name = "city-stream";
  sc.stations = boston_band(kCityStationSeed);
  sc.duration = units::Seconds{duration_seconds};
  sc.seed = core::derive_seed(seed, kSceneSeedStream);

  // A gateway slot one full channel spacing clear of every licensed carrier
  // and a legal SSB shift from the scene center (station 0 at 0 Hz).
  double slot_hz = 0.0;
  for (double c = 400e3; c <= 1000e3 + 1.0; c += 100e3) {
    double min_dist = 1e12;
    for (const auto& st : sc.stations) {
      min_dist = std::min(min_dist, std::abs(c - st.offset.raw()));
    }
    if (min_dist >= fm::kChannelSpacingHz - 1e-6) {
      slot_hz = c;
      break;
    }
  }
  if (slot_hz == 0.0) throw std::runtime_error("no clear gateway slot");

  std::mt19937_64 rng(core::derive_seed(seed, kTagStartSeedStream));
  std::uniform_real_distribution<double> jitter(0.0, 0.1);
  for (std::size_t i = 0; i < 2; ++i) {
    core::ScenarioTag t;
    t.name = "poster" + std::to_string(i);
    t.station_index = 0;
    t.subcarrier.shift = units::Hertz{slot_hz};
    t.subcarrier.mode = tag::SubcarrierMode::kSingleSideband;
    t.rate = tag::DataRate::k1600bps;
    t.num_bits = 128;
    t.packet_bits = 64;
    t.distance_override = units::Feet{4.0 + 2.0 * static_cast<double>(i)};
    // Both bursts end inside the first 1.2 s, as in bench_streaming.
    t.start = units::Seconds{0.3 + 0.6 * static_cast<double>(i) + jitter(rng)};
    sc.tags.push_back(std::move(t));
  }

  core::ScenarioReceiver phone;
  phone.name = "gateway";
  phone.kind = core::ReceiverKind::kPhone;
  phone.tune_offset = units::Hertz{slot_hz};
  sc.receivers.push_back(std::move(phone));

  core::ScenarioReceiver car;
  car.name = "car";
  car.kind = core::ReceiverKind::kCar;
  car.tune_offset = units::Hertz{0.0};
  sc.receivers.push_back(std::move(car));
  return sc;
}

namespace {

/// Backscatter slots of a coordinated deployment (bench_fleet_capacity's
/// rule): 100 kHz grid positions a channel spacing clear of every carrier,
/// reachable with a legal SSB shift, pairwise a channel spacing apart.
struct FleetSlot {
  double offset_hz = 0.0;
  std::vector<std::size_t> feeders;
};

std::vector<FleetSlot> gateway_slots(
    const std::vector<core::ScenarioStation>& stations) {
  std::vector<FleetSlot> slots;
  for (double c = -1000e3; c <= 1000e3 + 1.0; c += 100e3) {
    if (std::abs(c) > core::kMaxStationOffsetHz) continue;
    double min_dist = 1e12;
    for (const auto& st : stations) {
      min_dist = std::min(min_dist, std::abs(c - st.offset.raw()));
    }
    if (min_dist < fm::kChannelSpacingHz - 1e-6) continue;
    FleetSlot slot;
    slot.offset_hz = c;
    for (std::size_t s = 0; s < stations.size(); ++s) {
      const double shift = std::abs(c - stations[s].offset.raw());
      if (shift >= 400e3 - 1e-6 && shift <= 1000e3 + 1e-6) {
        slot.feeders.push_back(s);
      }
    }
    if (slot.feeders.empty()) continue;
    if (!slots.empty() &&
        std::abs(c - slots.back().offset_hz) < fm::kChannelSpacingHz - 1e-6) {
      continue;
    }
    slots.push_back(std::move(slot));
  }
  if (slots.empty()) throw std::runtime_error("no gateway slots in the band");
  return slots;
}

}  // namespace

core::Scenario fleet_scene(std::uint64_t seed, std::size_t num_tags,
                           double duration_seconds, bool slotted) {
  constexpr std::size_t kBurstBits = 128;  // 0.08 s at 1.6 kbps
  core::Scenario sc;
  sc.name = slotted ? "fleet-analytic" : "fleet-contested";
  sc.stations = boston_band(core::derive_seed(seed, kStationSeedStream));
  sc.seed = core::derive_seed(seed, kSceneSeedStream);
  sc.duration = units::Seconds{duration_seconds};
  const std::vector<FleetSlot> slots = gateway_slots(sc.stations);

  const double burst_seconds =
      tag::fsk_burst_seconds(kBurstBits, tag::DataRate::k1600bps, fm::kMpxRate);
  // One fixed uniform schedule, rotated in time by a seeded offset: every
  // seed gets its own starts, still uniform over the window, while the
  // pairwise contention (and so the PHY cluster count the run renders)
  // changes only across the wrap.
  const double span =
      duration_seconds - burst_seconds - 2.0 * core::kBurstGuardSeconds;
  std::mt19937_64 schedule(kFleetScheduleSeed);
  std::uniform_real_distribution<double> at(0.0, span);
  std::mt19937_64 rng(core::derive_seed(seed, kTagStartSeedStream));
  const double rotation = std::uniform_real_distribution<double>(0.0, span)(rng);
  sc.tags.reserve(num_tags);
  for (std::size_t i = 0; i < num_tags; ++i) {
    const FleetSlot& slot = slots[i % slots.size()];
    const std::size_t s =
        slot.feeders[(i / slots.size()) % slot.feeders.size()];
    core::ScenarioTag t;
    t.name = "tag" + std::to_string(i);
    t.station_index = static_cast<int>(s);
    t.subcarrier.shift =
        units::Hertz{slot.offset_hz - sc.stations[s].offset.raw()};
    t.subcarrier.mode = tag::SubcarrierMode::kSingleSideband;
    t.rate = tag::DataRate::k1600bps;
    t.num_bits = kBurstBits;
    t.packet_bits = 64;
    t.distance_override = units::Feet{4.0 + static_cast<double>(i % 5)};
    t.start = units::Seconds{std::fmod(at(schedule) + rotation, span)};
    if (slotted) t.mac.kind = tag::MacKind::kSlottedAloha;
    sc.tags.push_back(std::move(t));
  }
  for (const FleetSlot& slot : slots) {
    core::ScenarioReceiver phone;
    phone.name = "gateway@" + std::to_string(slot.offset_hz / 1e3) + "kHz";
    phone.kind = core::ReceiverKind::kPhone;
    phone.tune_offset = units::Hertz{slot.offset_hz};
    sc.receivers.push_back(std::move(phone));
  }
  return sc;
}

core::Scenario build_scenario(Workload w, std::uint64_t seed) {
  switch (w) {
    case Workload::kCityStream:
      return city_scene(seed, kCitySeconds);
    case Workload::kFleetContested:
      return fleet_scene(seed, kContestedTags, kFleetWindowSeconds, false);
    case Workload::kFleetAnalytic:
      return fleet_scene(seed, kAnalyticTags, kFleetWindowSeconds, true);
  }
  throw std::logic_error("unhandled workload");
}

double simulated_seconds(Workload w) {
  return w == Workload::kCityStream ? kCitySeconds : kFleetWindowSeconds;
}

GuardVerdict check_city(const core::Scenario& sc,
                        const core::ScenarioResult& result,
                        double station_horizon_seconds) {
  GuardVerdict v;
  if (sc.settle.raw() + sc.duration.raw() <= station_horizon_seconds) {
    v.failures.push_back("run does not outlast the station horizon");
  }
  for (std::size_t t = 0; t < sc.tags.size(); ++t) {
    const core::TagLinkReport* best = nullptr;
    for (const core::TagLinkReport& l : result.best_per_tag) {
      if (l.tag_index == t) best = &l;
    }
    const std::string name = sc.tags[t].name;
    if (best == nullptr) {
      v.failures.push_back(name + ": no decoded link");
      continue;
    }
    if (best->burst.packets == 0 ||
        best->burst.packets_ok != best->burst.packets ||
        best->burst.ber.ber != 0.0) {
      v.failures.push_back(name + ": link not error-free");
    }
  }
  return v;
}

namespace {

void check_partition(const core::FleetStats& stats, GuardVerdict& v) {
  if (stats.links_total == 0) v.failures.push_back("no links resolved");
  if (stats.analytic_clear + stats.analytic_collision + stats.phy_links !=
      stats.links_total) {
    v.failures.push_back("resolution buckets do not partition the links");
  }
}

}  // namespace

GuardVerdict check_fleet_contested(const core::FleetStats& stats) {
  GuardVerdict v;
  if (stats.phy_clusters == 0) v.failures.push_back("no PHY cluster resolved");
  check_partition(stats, v);
  return v;
}

GuardVerdict check_fleet_analytic(const core::FleetStats& stats) {
  GuardVerdict v;
  if (stats.phy_clusters != 0) v.failures.push_back("PHY clusters present");
  check_partition(stats, v);
  return v;
}

}  // namespace perfbench
