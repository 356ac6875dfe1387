// The scene pipeline's two drivers on the survey-driven Boston city scene:
// wall time, real-time factor, block throughput and peak RSS at 5 s / 30 s /
// 120 s simulated. ScenarioEngine (reported as "batch") runs the pipeline
// inline in exact mode, so its footprint grows linearly with the run (one
// full-run render per station, whole-run decision windows), while
// StreamingEngine's stays flat at its bounded ring + decode windows — and
// pipelined block rendering costs no throughput for the privilege.
//
// Modes:
//   (default)       all three durations, both engines, human-readable table
//   --json <path>   same sweep written as JSON (CI's bench-baselines job
//                   regenerates BENCH_streaming.json with this)
//   --smoke         fast acceptance run (CI build-and-test step): 5 s city
//                   run through both engines, decoded-results equality and
//                   a sane real-time factor asserted
#include <chrono>
#include <cmath>
#include <cstddef>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/fmbs.h"
#include "core/streaming.h"
#include "fm/station_cache.h"

namespace {

using namespace fmbs;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- Peak-RSS accounting ----------------------------------------------------

/// VmHWM from /proc/self/status, in KiB (0 if unreadable).
std::size_t peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      std::size_t kb = 0;
      fields >> kb;
      return kb;
    }
  }
  return 0;
}

/// Resets the kernel's peak-RSS watermark so each phase measures its own
/// high-water mark rather than inheriting the previous phase's. Best-effort:
/// needs write access to /proc/self/clear_refs ("5" = reset VmHWM).
bool reset_peak_rss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  if (!clear_refs) return false;
  clear_refs << "5";
  return static_cast<bool>(clear_refs);
}

// ---- The Boston city scene --------------------------------------------------

/// Densest in-scene slice of the surveyed Boston band (same selection as
/// bench_fleet_capacity and bench_scenario_multitag).
std::vector<core::ScenarioStation> boston_band() {
  const auto cities = survey::builtin_city_spectra();
  const survey::CitySpectrum* boston = nullptr;
  for (const auto& city : cities) {
    if (city.name == "Boston") boston = &city;
  }
  if (boston == nullptr) throw std::runtime_error("no Boston survey");
  core::SurveySceneReport report;
  for (const int channel : boston->detectable_channels) {
    core::SurveySceneReport candidate =
        core::stations_from_survey_report(*boston, channel);
    if (candidate.stations.size() > report.stations.size()) {
      report = std::move(candidate);
    }
  }
  return report.stations;
}

/// City scene: the full Boston band, two posters backscattering off the
/// scene-center station into a clear gateway channel, one phone on the
/// gateway channel and one car radio on the broadcast itself. The decode
/// work per block is fixed; only the duration varies.
core::Scenario city_scene(double duration_seconds) {
  core::Scenario sc;
  sc.name = "boston-streaming";
  sc.stations = boston_band();
  sc.duration = units::Seconds{duration_seconds};
  sc.seed = 20170327;

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
    // Both bursts inside the first 1.2 s so the same scene works from the
    // sub-horizon smoke run up to the 120 s soak point.
    t.start = units::Seconds{0.3 + 0.7 * static_cast<double>(i)};
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

// ---- The sweep --------------------------------------------------------------

struct Point {
  std::string engine;
  double duration_seconds = 0.0;
  double wall_seconds = 0.0;
  double real_time_factor = 0.0;
  double blocks_per_second = 0.0;
  std::size_t peak_rss_kb = 0;
  bool peak_rss_reset = false;
  std::size_t streaming_peak_buffer_bytes = 0;
  double aggregate_goodput_bps = 0.0;
  std::size_t links = 0;
};

std::size_t count_links(const core::ScenarioResult& result) {
  std::size_t n = 0;
  for (const auto& rr : result.receivers) n += rr.links.size();
  return n;
}

/// One timed engine run. The station cache is cleared first so every phase
/// pays (and measures) its own synthesis, and the RSS watermark is reset so
/// the phase reports its own footprint, not a previous phase's.
template <typename RunFn>
Point measure(const std::string& engine, double duration, RunFn&& run) {
  fm::StationCache::instance().clear();
  Point p;
  p.engine = engine;
  p.duration_seconds = duration;
  p.peak_rss_reset = reset_peak_rss();
  const double t0 = now_seconds();
  const core::ScenarioResult result = run(city_scene(duration));
  p.wall_seconds = now_seconds() - t0;
  p.peak_rss_kb = peak_rss_kb();
  p.real_time_factor = duration / p.wall_seconds;
  // The pipeline renders in 0.1 s blocks; block throughput is the simulated
  // block count over the wall time (batch points get the same accounting so
  // the columns compare).
  p.blocks_per_second = (duration / 0.1) / p.wall_seconds;
  p.streaming_peak_buffer_bytes = result.scene.streaming_peak_buffer_bytes;
  p.aggregate_goodput_bps = result.aggregate_goodput_bps;
  p.links = count_links(result);
  return p;
}

core::ScenarioResult run_batch(const core::Scenario& sc) {
  // keep_captures off: the comparison is engine footprint, not result-object
  // audio retention (which would dwarf everything at 120 s).
  return core::ScenarioEngine(core::ScenarioEngineConfig{.keep_captures =
                                                             false})
      .run(sc);
}

core::ScenarioResult run_streaming(const core::Scenario& sc) {
  return core::StreamingEngine(core::StreamingConfig{}).run(sc);
}

std::vector<Point> run_sweep(const std::vector<double>& durations) {
  std::vector<Point> points;
  for (const double d : durations) {
    // Streaming first: its watermark is the small one, so a reset failure
    // (monotone VmHWM) can only make the streaming numbers look *worse*.
    points.push_back(measure("streaming", d, run_streaming));
    points.push_back(measure("batch", d, run_batch));
    const Point& s = points[points.size() - 2];
    const Point& b = points.back();
    std::cerr << "  " << d << " s: streaming " << s.wall_seconds
              << " s wall (RTF " << s.real_time_factor << ", peak "
              << s.peak_rss_kb << " KiB), batch " << b.wall_seconds
              << " s wall (RTF " << b.real_time_factor << ", peak "
              << b.peak_rss_kb << " KiB)\n";
  }
  return points;
}

void write_json(std::ostream& out, const std::vector<Point>& points,
                std::size_t stations) {
  out << "{\n";
  out << "  \"scenario\": \"boston-streaming\",\n";
  out << "  \"stations_in_scene\": " << stations << ",\n";
  out << "  \"receivers\": 2,\n";
  out << "  \"tags\": 2,\n";
  out << "  \"block_seconds\": 0.1,\n";
  out << "  \"consumer_threads\": 1,\n";
  out << "  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    out << "    {\"engine\": \"" << p.engine << "\", \"duration_seconds\": "
        << p.duration_seconds << ", \"wall_seconds\": " << p.wall_seconds
        << ", \"real_time_factor\": " << p.real_time_factor
        << ", \"blocks_per_second\": " << p.blocks_per_second
        << ", \"peak_rss_kb\": " << p.peak_rss_kb << ", \"peak_rss_reset\": "
        << (p.peak_rss_reset ? "true" : "false")
        << ", \"streaming_peak_buffer_bytes\": "
        << p.streaming_peak_buffer_bytes << ", \"aggregate_goodput_bps\": "
        << p.aggregate_goodput_bps << ", \"links\": " << p.links << "}"
        << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
}

int run_bench(const std::string& json_path) {
  const std::size_t stations = city_scene(5.0).stations.size();
  std::cerr << "boston city scene: " << stations
            << " stations, 2 tags, 2 receivers\n";
  const std::vector<Point> points = run_sweep({5.0, 30.0, 120.0});
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot write " << json_path << "\n";
      return 1;
    }
    write_json(out, points, stations);
    std::cerr << "wrote " << json_path << "\n";
  } else {
    std::cout << "engine     sim_s   wall_s    RTF  blocks/s  peak_MiB"
                 "  stream_buf_MiB\n";
    for (const Point& p : points) {
      std::printf("%-9s %6.0f %8.2f %6.2f %9.1f %9.1f %15.2f\n",
                  p.engine.c_str(), p.duration_seconds, p.wall_seconds,
                  p.real_time_factor, p.blocks_per_second,
                  static_cast<double>(p.peak_rss_kb) / 1024.0,
                  static_cast<double>(p.streaming_peak_buffer_bytes) /
                      (1024.0 * 1024.0));
    }
  }
  return 0;
}

int run_smoke() {
  // 1.8 s keeps the run (plus settle) inside the default 2 s station
  // horizon: the streaming engine takes its exact path, so decoded results
  // must match batch bit for bit. Past the horizon the station program
  // loops by design and only the committed-golden equivalence holds.
  constexpr double kSmokeSeconds = 1.8;
  const Point stream = measure("streaming", kSmokeSeconds, run_streaming);
  const Point batch = measure("batch", kSmokeSeconds, run_batch);
  std::cerr << "smoke: streaming RTF " << stream.real_time_factor
            << ", batch RTF " << batch.real_time_factor << "\n";
  if (stream.links == 0 || batch.links == 0) {
    std::cerr << "FAIL: no decoded links on the city scene\n";
    return 1;
  }
  if (stream.links != batch.links ||
      stream.aggregate_goodput_bps != batch.aggregate_goodput_bps) {
    std::cerr << "FAIL: streaming decode diverges from batch ("
              << stream.links << " links @ " << stream.aggregate_goodput_bps
              << " bps vs " << batch.links << " @ "
              << batch.aggregate_goodput_bps << ")\n";
    return 1;
  }
  if (stream.streaming_peak_buffer_bytes == 0) {
    std::cerr << "FAIL: streaming run reported no bounded-buffer ledger\n";
    return 1;
  }
  if (stream.real_time_factor <= 0.0) {
    std::cerr << "FAIL: nonsensical real-time factor\n";
    return 1;
  }
  std::cerr << "smoke OK: " << stream.links << " links, goodput "
            << stream.aggregate_goodput_bps << " bps\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") return run_smoke();
    if (arg == "--json" && i + 1 < argc) return run_bench(argv[i + 1]);
  }
  return run_bench("");
}
