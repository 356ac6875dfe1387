#include "trace.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "channel/awgn.h"
#include "channel/superpose.h"
#include "core/fleet.h"
#include "core/streaming.h"
#include "dsp/fir.h"
#include "dsp/nco.h"
#include "fm/demodulator.h"
#include "fm/modulator.h"
#include "fm/station_cache.h"
#include "fm/stereo_stream.h"
#include "measure.h"
#include "rx/device_stream.h"
#include "rx/fsk_stream.h"
#include "rx/multitag.h"
#include "rx/rds_stream.h"
#include "rx/tuner.h"
#include "tag/baseband.h"
#include "tag/fsk.h"
#include "tag/subcarrier.h"
#include "timed.h"

namespace perfbench {

using namespace fmbs;

const char* stage_name(Stage s) {
  static constexpr const char* kNames[kNumStages] = {
      "fm.station_synth", "dsp.upsample", "dsp.mix",   "tag.reflect",
      "channel.superpose", "channel.awgn", "rx.tuner",  "fm.demod",
      "fm.stereo",         "rx.device",    "rx.fsk",    "rx.rds",
      "core.plan"};
  return kNames[static_cast<std::size_t>(s)];
}

namespace {

// The streaming engine's block geometry (core/streaming.cpp).
constexpr std::size_t kBlockMpx = 24000;  // 0.1 s at 240 kHz
constexpr std::size_t kUp = static_cast<std::size_t>(fm::kMpxToRfFactor);
constexpr std::size_t kBlockRf = kBlockMpx * kUp;

/// Times one call into a stage and books its work count.
template <typename Fn>
decltype(auto) timed_call(StageTable& table, Stage stage, std::uint64_t samples,
                          Fn&& fn) {
  StageStat& st = table[static_cast<std::size_t>(stage)];
  st.calls += 1;
  st.samples += samples;
  const double t0 = now_seconds();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    st.seconds += now_seconds() - t0;
  } else {
    decltype(auto) out = fn();
    st.seconds += now_seconds() - t0;
    return out;
  }
}

struct ReplayTag {
  bool needed = false;
  std::vector<std::uint8_t> bits;
  dsp::rvec wave;
  std::size_t wave_begin = 0;
  std::size_t wave_len = 0;
  std::size_t active_begin = 0;
  std::size_t active_end = 0;
  double start_seconds = 0.0;
  double burst_seconds = 0.0;
  std::unique_ptr<tag::SubcarrierGenerator> subcarrier;
  dsp::cvec reflected;
  bool active = false;
};

struct ReplayCollector {
  std::size_t tag = 0;
  rx::BurstWindowBounds bounds;
  rx::StreamingBurstDemodulator demod;
  std::size_t pushed = 0;  // audio samples pushed so far
  bool done = false;
};

struct ReplayReceiver {
  fm::QuadratureDemodulator demod{units::Hertz{fm::kMaxDeviationHz},
                                  fm::kMpxRate};
  std::optional<fm::StereoStreamDecoder> stereo;
  std::optional<rx::PhoneChainStream> phone;
  std::optional<rx::CabinAcousticsStream> cabin;
  std::optional<rx::RdsStreamDecoder> station_rds;
  bool station_rds_done = false;
  std::vector<ReplayCollector> fsk;
  dsp::rvec left, right, mono;
};

std::size_t window_in(std::size_t pushed, const rx::BurstWindowBounds& b) {
  if (pushed <= b.begin) return 0;
  return std::min(pushed - b.begin, b.length);
}

void finish_collector(StageTable& table, std::size_t receiver,
                      ReplayCollector& c, std::vector<core::TagLinkReport>& out) {
  core::TagLinkReport link;
  link.tag_index = c.tag;
  link.receiver_index = receiver;
  link.burst = timed_call(table, Stage::kFsk, 0, [&] { return c.demod.finish(); });
  out.push_back(std::move(link));
  c.done = true;
}

/// Device chain and burst collectors on freshly decoded audio.
void feed_audio(StageTable& table, std::size_t receiver, ReplayReceiver& rr,
                std::vector<core::TagLinkReport>& out) {
  if (rr.left.empty()) return;
  timed_call(table, Stage::kDevice, rr.left.size(), [&] {
    rr.mono.resize(rr.left.size());
    for (std::size_t i = 0; i < rr.mono.size(); ++i) {
      rr.mono[i] = 0.5F * (rr.left[i] + rr.right[i]);
    }
    if (rr.phone) rr.phone->process_inplace(rr.mono);
    if (rr.cabin) rr.cabin->process_inplace(rr.mono);
  });
  for (ReplayCollector& c : rr.fsk) {
    if (c.done) continue;
    const std::size_t before = window_in(c.pushed, c.bounds);
    c.pushed += rr.mono.size();
    const std::size_t in_window = window_in(c.pushed, c.bounds) - before;
    timed_call(table, Stage::kFsk, in_window, [&] { c.demod.push(rr.mono); });
    if (c.demod.window_complete()) finish_collector(table, receiver, c, out);
  }
}

}  // namespace

Replay replay_streaming(const core::Scenario& sc, units::Seconds station_horizon,
                        units::Seconds decision_window) {
  Replay rep;
  StageTable& T = rep.stages;
  if (sc.stations.empty()) {
    throw std::invalid_argument("replay: multi-station scenes only");
  }

  // ---- core.plan --------------------------------------------------------
  const std::uint64_t links_planned = sc.tags.size() * sc.receivers.size();
  const core::ScenarioPlan plan = timed_call(
      T, Stage::kPlan, links_planned,
      [&] { return core::resolve_scenario_plan(sc); });
  const core::ScenePruning pruning = timed_call(T, Stage::kPlan, 0, [&] {
    return core::resolve_scene_pruning(sc, plan, core::SceneRendering::kSparse);
  });
  if (plan.num_segments != 1) {
    throw std::invalid_argument("replay: single-segment scenes only");
  }
  const double total_seconds = plan.total_seconds;
  if (total_seconds <= station_horizon.raw()) {
    throw std::invalid_argument("replay: run must outlast the station horizon");
  }
  const std::size_t num_stations = plan.num_stations;
  const auto run_len =
      static_cast<std::size_t>(total_seconds * fm::kMpxRate + 0.5);
  const std::size_t padded = (run_len + kBlockMpx - 1) / kBlockMpx * kBlockMpx;
  const std::size_t num_blocks = padded / kBlockMpx;
  const std::vector<int>& sel = plan.selected_station[0];

  // ---- fm.station_synth: horizon renders, looped through a modulator ----
  fm::StationCache::SceneScope scope(fm::StationCache::instance());
  std::vector<std::shared_ptr<const fm::StationSignal>> renders(num_stations);
  std::vector<fm::FmModulator> loop_mod;
  std::vector<std::size_t> loop_pos(num_stations, 0);
  std::vector<std::optional<dsp::FirInterpolator<dsp::cfloat>>> up(num_stations);
  std::vector<std::optional<dsp::Mixer>> mixer(num_stations);
  const std::vector<float> up_taps =
      dsp::fir_design_lowpass((16 * kUp) | 1U, 0.45 / static_cast<double>(kUp));
  const auto horizon_samples = static_cast<std::uint64_t>(
      std::llround(station_horizon.raw() * fm::kMpxRate));
  loop_mod.reserve(num_stations);
  for (std::size_t s = 0; s < num_stations; ++s) {
    loop_mod.emplace_back(sc.stations[s].config.deviation, fm::kMpxRate);
    if (!pruning.station_needed[s]) continue;
    renders[s] = timed_call(T, Stage::kStationSynth, horizon_samples, [&] {
      return scope.render(sc.stations[s].config, station_horizon);
    });
    up[s].emplace(up_taps, kUp);
    if (plan.station_offset[s] != 0.0) {
      mixer[s].emplace(plan.station_offset[s], fm::kRfRate);
    }
  }

  // ---- tag.reflect set-up: payload bits and burst waveforms -------------
  std::vector<ReplayTag> tags(sc.tags.size());
  for (std::size_t t = 0; t < sc.tags.size(); ++t) {
    const core::ScenarioTag& cfg = sc.tags[t];
    const core::ScenarioTagPlan& tp = plan.tags[t];
    if (tp.custom_baseband || tp.rds || cfg.fading) {
      throw std::invalid_argument("replay: plain FSK tags only");
    }
    ReplayTag& rt = tags[t];
    rt.subcarrier = std::make_unique<tag::SubcarrierGenerator>(cfg.subcarrier);
    rt.bits = tag::random_bits(cfg.num_bits, tp.content_seed);
    rt.start_seconds = tp.start_seconds;
    rt.burst_seconds = tp.burst_seconds;
    rt.needed = tp.transmitted && pruning.tag_needed[t];
    if (!rt.needed) continue;
    const auto lead =
        static_cast<std::size_t>(rt.start_seconds * fm::kAudioRate + 0.5);
    rt.wave = timed_call(T, Stage::kReflect, 0, [&] {
      return tag::compose_overlay_baseband(
          tag::modulate_fsk(rt.bits, cfg.rate, fm::kAudioRate), cfg.level,
          fm::kMpxRate);
    });
    rt.wave_begin = lead * static_cast<std::size_t>(fm::kMpxRate / fm::kAudioRate);
    rt.wave_len = std::min(rt.wave.size(),
                           rt.wave_begin < padded ? padded - rt.wave_begin : 0);
    rt.active_begin = static_cast<std::size_t>(
        std::max(0.0, rt.start_seconds - core::kBurstGuardSeconds) * fm::kMpxRate);
    rt.active_end = std::min(
        padded, static_cast<std::size_t>(
                    (rt.start_seconds + rt.burst_seconds + core::kBurstGuardSeconds) *
                    fm::kMpxRate));
  }

  // ---- Receivers: noise, tuner and the decode chain ---------------------
  std::vector<channel::AwgnSource> noise;
  std::vector<rx::Tuner> tuners;
  std::vector<ReplayReceiver> rxs(sc.receivers.size());
  for (std::size_t r = 0; r < sc.receivers.size(); ++r) {
    const core::ScenarioReceiver& rcfg = sc.receivers[r];
    noise.emplace_back(core::receiver_noise_floor(rcfg),
                       units::Hertz{fm::kChannelSpacingHz}, fm::kRfRate,
                       plan.receiver_noise_seed[r]);
    rx::TunerConfig tuner_cfg;
    tuner_cfg.offset_hz = rcfg.tune_offset.raw();
    tuners.emplace_back(tuner_cfg);
    fm::StereoDecoderConfig sdc = rcfg.stereo_decoder;
    sdc.mpx_rate = fm::kMpxRate;
    ReplayReceiver& rr = rxs[r];
    rr.stereo.emplace(sdc, padded, decision_window);
    if (rcfg.kind == core::ReceiverKind::kCar) {
      rr.cabin.emplace(rcfg.cabin, sdc.audio_rate);
    } else {
      rr.phone.emplace(rcfg.phone, sdc.audio_rate);
    }
    const auto decim =
        static_cast<std::size_t>(sdc.mpx_rate / sdc.audio_rate + 0.5);
    const std::size_t audio_len = padded / decim;
    for (std::size_t t = 0; t < sc.tags.size(); ++t) {
      const std::size_t s = static_cast<std::size_t>(sel[t]);
      if (!plan.tags[t].transmitted ||
          !core::tag_audible_at(sc.tags[t], units::Hertz{plan.station_offset[s]},
                                rcfg.tune_offset)) {
        continue;
      }
      rx::BurstSpec burst;
      burst.rate = sc.tags[t].rate;
      burst.bits = tags[t].bits;
      burst.start_seconds = tags[t].start_seconds;
      burst.packet_bits = sc.tags[t].packet_bits;
      rr.fsk.push_back(ReplayCollector{
          t, rx::burst_window_bounds(burst, sdc.audio_rate, audio_len),
          rx::StreamingBurstDemodulator(burst, sdc.audio_rate, audio_len), 0,
          false});
    }
    for (std::size_t s = 0; s < num_stations; ++s) {
      const fm::StationConfig& st = sc.stations[s].config;
      if (std::abs(plan.station_offset[s] - rcfg.tune_offset.raw()) < 1.0) {
        if (st.rds_level > 0.0) {
          rr.station_rds.emplace(
              fm::kMpxRate, padded, 0.0, -1.0,
              std::min(decision_window.raw(), station_horizon.raw()));
        }
        break;
      }
    }
  }

  // ---- The block loop ----------------------------------------------------
  std::vector<dsp::cvec> st_rf(num_stations);
  dsp::rvec loop_mpx(kBlockMpx);
  dsp::rvec tag_bb(kBlockMpx);
  dsp::cvec rf;
  for (std::size_t b = 0; b < num_blocks; ++b) {
    const std::size_t start = b * kBlockMpx;
    std::size_t stations_mixed = 0;
    for (std::size_t s = 0; s < num_stations; ++s) {
      if (!pruning.station_needed[s]) continue;
      const dsp::rvec& mpx = renders[s]->mpx;
      const dsp::cvec iq = timed_call(T, Stage::kStationSynth, kBlockMpx, [&] {
        std::size_t pos = loop_pos[s];
        for (std::size_t i = 0; i < kBlockMpx; ++i) {
          loop_mpx[i] = mpx[pos];
          if (++pos == mpx.size()) pos = 0;
        }
        loop_pos[s] = pos;
        return loop_mod[s].process(loop_mpx);
      });
      st_rf[s] = timed_call(T, Stage::kUpsample, kBlockRf,
                            [&] { return up[s]->process(iq); });
      if (mixer[s]) {
        timed_call(T, Stage::kMix, kBlockRf,
                   [&] { mixer[s]->process_inplace(st_rf[s]); });
      }
      ++stations_mixed;
    }

    std::size_t active_tags = 0;
    for (std::size_t t = 0; t < tags.size(); ++t) {
      ReplayTag& rt = tags[t];
      rt.active = rt.needed && start < rt.active_end &&
                  start + kBlockMpx > rt.active_begin;
      if (!rt.active) continue;
      ++active_tags;
      timed_call(T, Stage::kReflect, kBlockRf, [&] {
        std::fill(tag_bb.begin(), tag_bb.end(), 0.0F);
        const std::size_t lo = std::max(start, rt.wave_begin);
        const std::size_t hi =
            std::min(start + kBlockMpx, rt.wave_begin + rt.wave_len);
        if (lo < hi) {
          std::copy(rt.wave.begin() + static_cast<std::ptrdiff_t>(lo - rt.wave_begin),
                    rt.wave.begin() + static_cast<std::ptrdiff_t>(hi - rt.wave_begin),
                    tag_bb.begin() + static_cast<std::ptrdiff_t>(lo - start));
        }
        const dsp::cvec& incident = st_rf[static_cast<std::size_t>(sel[t])];
        rt.reflected = rt.subcarrier->process(tag_bb);
        for (std::size_t i = 0; i < incident.size(); ++i) {
          rt.reflected[i] *= incident[i];
        }
        const std::size_t zlo =
            rt.active_begin > start ? (rt.active_begin - start) * kUp : 0;
        const std::size_t zhi = rt.active_end < start + kBlockMpx
                                    ? (rt.active_end - start) * kUp
                                    : rt.reflected.size();
        std::fill(rt.reflected.begin(),
                  rt.reflected.begin() + static_cast<std::ptrdiff_t>(zlo),
                  dsp::cfloat(0.0F, 0.0F));
        std::fill(rt.reflected.begin() + static_cast<std::ptrdiff_t>(zhi),
                  rt.reflected.end(), dsp::cfloat(0.0F, 0.0F));
      });
    }

    for (std::size_t r = 0; r < sc.receivers.size(); ++r) {
      rf.resize(kBlockRf);
      timed_call(T, Stage::kSuperpose,
                 (stations_mixed + active_tags) * kBlockRf, [&] {
                   channel::scale_into(rf, st_rf[0], plan.g_direct[0][r][0]);
                   for (std::size_t s = 1; s < num_stations; ++s) {
                     if (!pruning.station_needed[s]) continue;
                     channel::accumulate_scaled(rf, st_rf[s],
                                                plan.g_direct[0][r][s]);
                   }
                   for (std::size_t t = 0; t < tags.size(); ++t) {
                     if (!tags[t].active) continue;
                     channel::accumulate_scaled(rf, tags[t].reflected,
                                                plan.g_back[0][r][t]);
                   }
                 });
      timed_call(T, Stage::kAwgn, kBlockRf, [&] { noise[r].add_to(rf); });
      const dsp::cvec iq = timed_call(T, Stage::kTuner, kBlockRf,
                                      [&] { return tuners[r].process(rf); });

      // Consumer side, inline.
      ReplayReceiver& rr = rxs[r];
      const dsp::rvec mpx = timed_call(T, Stage::kDemod, iq.size(),
                                       [&] { return rr.demod.process(iq); });
      if (rr.station_rds && !rr.station_rds_done) {
        timed_call(T, Stage::kRds, mpx.size(), [&] { rr.station_rds->push(mpx); });
        if (rr.station_rds->window_complete()) {
          timed_call(T, Stage::kRds, 0, [&] { (void)rr.station_rds->finish(); });
          rr.station_rds_done = true;
        }
      }
      rr.left.clear();
      rr.right.clear();
      timed_call(T, Stage::kStereo, mpx.size(),
                 [&] { rr.stereo->push(mpx, rr.left, rr.right); });
      feed_audio(T, r, rr, rep.links);
    }
  }

  // ---- Drain -------------------------------------------------------------
  for (std::size_t r = 0; r < rxs.size(); ++r) {
    ReplayReceiver& rr = rxs[r];
    rr.left.clear();
    rr.right.clear();
    timed_call(T, Stage::kStereo, 0, [&] { rr.stereo->finish(rr.left, rr.right); });
    feed_audio(T, r, rr, rep.links);
    if (rr.station_rds && !rr.station_rds_done) {
      timed_call(T, Stage::kRds, 0, [&] { (void)rr.station_rds->finish(); });
    }
    for (ReplayCollector& c : rr.fsk) {
      if (!c.done) finish_collector(T, r, c, rep.links);
    }
  }

  // ---- Expected work, from the shape alone -------------------------------
  StageTable& E = rep.expected;
  auto expect = [&](Stage s, std::uint64_t samples) {
    E[static_cast<std::size_t>(s)].samples = samples;
    E[static_cast<std::size_t>(s)].calls = 1;  // the stage must be used
  };
  std::uint64_t needed = 0;
  std::uint64_t offset_stations = 0;
  for (std::size_t s = 0; s < num_stations; ++s) {
    if (!pruning.station_needed[s]) continue;
    ++needed;
    if (plan.station_offset[s] != 0.0) ++offset_stations;
  }
  std::uint64_t tag_blocks = 0;  // (tag, block) pairs inside a burst window
  for (const ReplayTag& rt : tags) {
    if (!rt.needed || rt.active_end <= rt.active_begin) continue;
    tag_blocks += (rt.active_end + kBlockMpx - 1) / kBlockMpx -
                  rt.active_begin / kBlockMpx;
  }
  const std::uint64_t receivers = sc.receivers.size();
  const std::uint64_t rf_samples = num_blocks * kBlockRf;    // per receiver
  const std::uint64_t mpx_samples = num_blocks * kBlockMpx;  // per receiver
  expect(Stage::kPlan, links_planned);
  expect(Stage::kStationSynth, needed * (horizon_samples + mpx_samples));
  expect(Stage::kUpsample, needed * rf_samples);
  expect(Stage::kMix, offset_stations * rf_samples);
  expect(Stage::kReflect, tag_blocks * kBlockRf);
  expect(Stage::kSuperpose,
         receivers * (needed * rf_samples + tag_blocks * kBlockRf));
  expect(Stage::kAwgn, receivers * rf_samples);
  expect(Stage::kTuner, receivers * rf_samples);
  expect(Stage::kDemod, receivers * mpx_samples);
  expect(Stage::kStereo, receivers * mpx_samples);
  const auto decim = static_cast<std::uint64_t>(fm::kMpxRate / fm::kAudioRate + 0.5);
  expect(Stage::kDevice, receivers * mpx_samples / decim);
  std::uint64_t fsk_window = 0;
  std::uint64_t rds_window = 0;
  for (const ReplayReceiver& rr : rxs) {
    for (const ReplayCollector& c : rr.fsk) fsk_window += c.bounds.length;
    if (rr.station_rds) {
      const auto len = static_cast<std::uint64_t>(
          std::min(decision_window.raw(), station_horizon.raw()) * fm::kMpxRate);
      rds_window += (len + kBlockMpx - 1) / kBlockMpx * kBlockMpx;
    }
  }
  expect(Stage::kFsk, fsk_window);
  expect(Stage::kRds, rds_window);
  return rep;
}

std::vector<std::string> check_replay(const Replay& replay) {
  std::vector<std::string> failures;
  for (std::size_t i = 0; i < kNumStages; ++i) {
    const StageStat& got = replay.stages[i];
    const StageStat& want = replay.expected[i];
    const std::string name = stage_name(static_cast<Stage>(i));
    if (want.calls > 0 && got.calls == 0) {
      failures.push_back(name + ": no calls");
    }
    if (got.samples != want.samples) {
      failures.push_back(name + ": " + std::to_string(got.samples) +
                         " samples, expected " + std::to_string(want.samples));
    }
  }
  return failures;
}

std::vector<std::string> compare_links(
    const std::vector<core::TagLinkReport>& replay,
    const core::ScenarioResult& engine) {
  std::vector<std::string> failures;
  std::size_t engine_links = 0;
  for (const auto& rr : engine.receivers) engine_links += rr.links.size();
  if (engine_links != replay.size()) {
    failures.push_back("replay decoded " + std::to_string(replay.size()) +
                       " links, engine " + std::to_string(engine_links));
  }
  for (const core::TagLinkReport& l : replay) {
    const core::TagLinkReport* match = nullptr;
    if (l.receiver_index < engine.receivers.size()) {
      for (const auto& e : engine.receivers[l.receiver_index].links) {
        if (e.tag_index == l.tag_index) match = &e;
      }
    }
    const std::string id = "link (tag " + std::to_string(l.tag_index) +
                           ", receiver " + std::to_string(l.receiver_index) + ")";
    if (match == nullptr) {
      failures.push_back(id + ": absent from the engine result");
    } else if (match->burst.ber.ber != l.burst.ber.ber ||
               match->burst.packets_ok != l.burst.packets_ok ||
               match->burst.bits_delivered != l.burst.bits_delivered) {
      failures.push_back(id + ": replay decode differs from the engine's");
    }
  }
  return failures;
}

namespace {

std::uint64_t count(std::size_t n) { return static_cast<std::uint64_t>(n); }

double stage_total(const StageTable& stages) {
  double total = 0.0;
  for (const StageStat& st : stages) total += st.seconds;
  return total;
}

/// Adds the four per-stage metrics of every stage to `m`.
void stage_metrics(JsonObject& m, const StageTable& stages, double sim_seconds) {
  const double total = stage_total(stages);
  for (std::size_t i = 0; i < kNumStages; ++i) {
    const StageStat& st = stages[i];
    const std::string name = stage_name(static_cast<Stage>(i));
    m.num(name + ".self_s_per_sim_s", st.seconds / sim_seconds)
        .integer(name + ".calls", static_cast<long long>(st.calls))
        .num(name + ".msamples", static_cast<double>(st.samples) / 1e6)
        .num(name + ".share", total > 0.0 ? st.seconds / total : 0.0);
  }
}

}  // namespace

JsonObject run_trace(Workload w, std::uint64_t seed) {
  // The untraced engine run: the coverage denominator, the fleet counts and
  // the outcome guard.
  core::ScenarioResult engine_result;
  const TimedRun engine_run = run_timed(w, seed, 0.0, &engine_result);
  std::vector<std::string> failures = engine_run.verdict.failures;

  StageTable stages{};
  const double sim_seconds = engine_run.sim_seconds;
  double fleet_run_s = 0.0;
  if (w == Workload::kCityStream) {
    const core::Scenario sc = build_scenario(w, seed);
    const core::StreamingConfig config = city_streaming_config();
    reset_station_cache();
    const Replay replay =
        replay_streaming(sc, config.station_horizon, config.decision_window);
    stages = replay.stages;
    for (const std::string& f : check_replay(replay)) failures.push_back(f);
    for (const std::string& f : compare_links(replay.links, engine_result)) {
      failures.push_back(f);
    }
  } else {
    fleet_run_s = engine_run.engine_seconds;
    const core::Scenario sc = build_scenario(w, seed);
    const core::ScenarioPlan plan = timed_call(
        stages, Stage::kPlan, count(sc.tags.size() * sc.receivers.size()),
        [&] { return core::resolve_scenario_plan(sc); });
    timed_call(stages, Stage::kPlan, 0, [&] {
      return core::resolve_scene_pruning(sc, plan, core::SceneRendering::kSparse);
    });
  }

  const double replay_total = stage_total(stages);
  const fmbs::fm::StationCache::Stats& cache = engine_run.cache;
  const std::uint64_t lookups = cache.hits + cache.misses;

  JsonObject m;
  stage_metrics(m, stages, sim_seconds);
  m.integer("fleet.phy_clusters", static_cast<long long>(engine_run.fleet.phy_clusters))
      .integer("fleet.phy_links", static_cast<long long>(engine_run.fleet.phy_links))
      .num("fleet.phy_subscene_s", engine_run.fleet.phy_subscene_seconds)
      .integer("fleet.analytic_clear",
               static_cast<long long>(engine_run.fleet.analytic_clear))
      .integer("fleet.analytic_collision",
               static_cast<long long>(engine_run.fleet.analytic_collision))
      .integer("fm.cache_hits", static_cast<long long>(cache.hits))
      .integer("fm.cache_misses", static_cast<long long>(cache.misses))
      .num("fm.cache_hit_ratio",
           lookups > 0 ? static_cast<double>(cache.hits) /
                             static_cast<double>(lookups)
                       : 0.0)
      .num("core.plan_s", stages[static_cast<std::size_t>(Stage::kPlan)].seconds)
      .num("core.fleet_run_s", fleet_run_s)
      .num("trace.coverage", engine_run.engine_seconds > 0.0
                                 ? replay_total / engine_run.engine_seconds
                                 : 0.0)
      .num("trace.engine_rtf", engine_run.rtf);

  JsonObject rec;
  rec.str("kind", "trace")
      .str("workload", workload_name(w))
      .integer("seed", static_cast<long long>(seed))
      .boolean("ok", failures.empty())
      .strings("failures", failures)
      .object("metrics", m);
  return rec;
}

}  // namespace perfbench
