#include "core/scene_pipeline.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "channel/awgn.h"
#include "channel/fading.h"
#include "channel/superpose.h"
#include "dsp/fir.h"
#include "dsp/nco.h"
#include "fm/demodulator.h"
#include "fm/modulator.h"
#include "fm/stereo_stream.h"
#include "rx/device_stream.h"
#include "rx/fsk_stream.h"
#include "rx/phone_chain.h"
#include "rx/rds_stream.h"
#include "rx/tuner.h"
#include "tag/baseband.h"
#include "tag/fsk.h"
#include "tag/subcarrier.h"

namespace fmbs::core {

namespace {

constexpr std::size_t kUpFactor = static_cast<std::size_t>(fm::kMpxToRfFactor);
constexpr std::size_t kBlockRf = kBlockMpx * kUpFactor;

/// One tag link's decode window riding a receiver's stream: an FSK burst
/// collector on the decoded audio, or an RDS burst decoder on the MPX.
template <typename Decoder>
struct Collector {
  std::size_t tag = 0;
  std::size_t seg = 0;  // segment owning the burst midpoint
  Decoder decoder;
  bool done = false;
  TagLinkReport link;
};
using FskCollector = Collector<rx::StreamingBurstDemodulator>;
using RdsCollector = Collector<rx::RdsStreamDecoder>;

}  // namespace

/// Renderer-side per-station state. Exact mode streams blocks straight out
/// of the cached full-run render; loop mode cycles a horizon render's MPX
/// through a persistent modulator, keeping the carrier phase continuous
/// across the seam at O(horizon) memory. Never reset at segment boundaries.
struct PipelineStation {
  std::shared_ptr<const fm::StationSignal> render;
  std::optional<dsp::FirInterpolator<dsp::cfloat>> up;
  std::optional<dsp::Mixer> mixer;
  std::optional<fm::FmModulator> loop_mod;
  std::size_t loop_pos = 0;  // next MPX sample of the cycled horizon
  dsp::cvec loop_iq;         // per-block re-modulated IQ (loop mode)
};

/// Renderer-side per-tag state. Only the burst's own waveform is kept:
/// outside [wave_begin, wave_begin + wave.size()) the baseband is zero by
/// construction (the FIR interpolator's zero state makes the compact
/// waveform bit-equal to the slice of a padded full-run baseband).
struct PipelineTag {
  dsp::rvec owned;               // a composed burst waveform
  std::span<const float> wave;   // `owned`, or a custom baseband in place
  std::size_t wave_begin = 0;    // MPX sample where `wave` starts
  std::size_t active_begin = 0;  // switch-on window, MPX samples
  std::size_t active_end = 0;
  std::vector<std::uint8_t> bits;  // FSK payload; empty for other tags
  std::unique_ptr<tag::SubcarrierGenerator> subcarrier;
  std::unique_ptr<channel::FadingProcess> fading;
  /// Root of the tag's fading streams. Single-segment runs construct one
  /// process from it; segmented runs re-derive one per segment in the block
  /// loop, so a walk's geometry changes actually decorrelate the fade.
  std::uint64_t fading_seed = 0;
  std::size_t fading_segment = static_cast<std::size_t>(-1);
};

/// Renderer-side per-receiver state.
struct ReceiverFrontEnd {
  channel::AwgnSource noise;
  rx::Tuner tuner;
};

/// Everything one receiver's decode chain needs, touched by one thread at a
/// time while blocks flow and read by the driver only once it is drained.
struct ReceiverStream {
  fm::QuadratureDemodulator demod;
  fm::StereoStreamDecoder stereo;
  std::optional<rx::PhoneChainStream> phone;
  std::optional<rx::CabinAcousticsStream> cabin;
  std::vector<FskCollector> fsk;
  std::vector<RdsCollector> rds;
  std::optional<rx::RdsStreamDecoder> station_rds;  // while its window is open
  std::optional<rx::RdsLinkReport> station_rds_report;
  dsp::rvec left, right, mono;  // per-block audio scratch
  /// keep_captures: the whole run's MPX, L/R and device-chain mono, appended
  /// block by block; drain() adds the device-chain stereo.
  std::optional<ReceiverCapture> capture;

  ReceiverStream(const fm::StereoDecoderConfig& stereo_cfg, std::size_t padded,
                 units::Seconds decision_window)
      : demod(units::Hertz{fm::kMaxDeviationHz}, fm::kMpxRate),
        stereo(stereo_cfg, padded, decision_window) {}
};

namespace {

/// Shared read-only context of the decode chains.
struct LinkContext {
  const Scenario& sc;
  const ScenarioPlan& plan;
  const std::function<void(const StreamingLinkEvent&)>& on_link;
};

void announce(const LinkContext& ctx, StreamingLinkEvent::Kind kind,
              double now, const TagLinkReport& link) {
  if (!ctx.on_link) return;
  ctx.on_link({.kind = kind,
               .receiver_index = link.receiver_index,
               .tag_index = link.tag_index,
               .stream_seconds = now,
               .link = link});
}

/// Scores a closed tag-link window. An RDS link reports its block error
/// rate where an FSK link reports BER (so best-link selection treats both
/// alike) and delivers the 16 info bits of every clean block.
template <typename Decoder>
void finalize(const LinkContext& ctx, std::size_t r, Collector<Decoder>& c,
              double now) {
  TagLinkReport& link = c.link;
  constexpr bool kRds = std::is_same_v<Decoder, rx::RdsStreamDecoder>;
  if constexpr (kRds) {
    link.rds = c.decoder.finish();
    link.burst.ber.ber = link.rds->bler;
    link.burst.bits_delivered = link.rds->blocks_ok * 16;
  } else {
    link.burst = c.decoder.finish();
  }
  link.tag_index = c.tag;
  link.receiver_index = r;
  link.backscatter_rx_power_dbm = ctx.plan.rx_power_dbm[c.seg][r][c.tag];
  link.goodput_bps =
      static_cast<double>(link.burst.bits_delivered) / ctx.sc.duration.raw();
  c.done = true;
  announce(ctx,
           kRds ? StreamingLinkEvent::Kind::kRdsBurst
                : StreamingLinkEvent::Kind::kFskBurst,
           now, link);
}

/// Pushes a block into every open collector, closing completed windows.
template <typename Decoder>
void push_open(const LinkContext& ctx, std::size_t r,
               std::vector<Collector<Decoder>>& collectors,
               std::span<const float> block, double now) {
  for (Collector<Decoder>& c : collectors) {
    if (c.done) continue;
    c.decoder.push(block);
    if (c.decoder.window_complete()) finalize(ctx, r, c, now);
  }
}

void finalize_station_rds(const LinkContext& ctx, std::size_t r,
                          ReceiverStream& rs, double now) {
  rs.station_rds_report = rs.station_rds->finish();
  rs.station_rds.reset();  // a whole-run window is as large as the run
  TagLinkReport link;
  link.receiver_index = r;
  link.rds = rs.station_rds_report;
  announce(ctx, StreamingLinkEvent::Kind::kStationRds, now, link);
}

/// Feeds freshly decoded audio (rs.left/rs.right) through the device chain
/// into every open burst collector (and the kept capture).
void feed_audio(const LinkContext& ctx, std::size_t r, ReceiverStream& rs,
                double now) {
  if (rs.left.empty()) return;
  rs.mono.resize(rs.left.size());
  for (std::size_t i = 0; i < rs.mono.size(); ++i) {
    rs.mono[i] = 0.5F * (rs.left[i] + rs.right[i]);
  }
  if (rs.phone) rs.phone->process_inplace(rs.mono);
  if (rs.cabin) rs.cabin->process_inplace(rs.mono);
  if (rs.capture) {
    auto append = [](std::vector<float>& to, const dsp::rvec& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(rs.capture->fm.audio.left, rs.left);
    append(rs.capture->fm.audio.right, rs.right);
    append(rs.capture->mono.samples, rs.mono);
  }
  push_open(ctx, r, rs.fsk, rs.mono, now);
}

}  // namespace

ScenePipeline::ScenePipeline(const Scenario& sc, ScenePipelineOptions options)
    : scenario_(sc),
      options_(std::move(options)),
      plan_(resolve_scenario_plan(sc)),
      scope_(fm::StationCache::instance()) {
  const ScenarioPlan& plan = plan_;
  const std::size_t num_stations = plan.num_stations;
  const std::vector<double>& station_offset = plan.station_offset;
  const std::vector<std::vector<int>>& sel = plan.selected_station;
  ScenarioResult& result = result_;

  // Runs within the horizon use one exact full-run render per station;
  // longer runs render the horizon once and loop it. Each needed station is
  // rendered once and reused across every timeline segment — segmentation
  // changes geometry, never the broadcast.
  loop_mode_ = options_.station_horizon &&
               plan.total_seconds > options_.station_horizon->raw();
  const units::Seconds render_seconds{
      loop_mode_ ? options_.station_horizon->raw() : plan.total_seconds};
  result.station_renders.assign(num_stations, nullptr);
  result.station_renders[0] =
      scope_.render(sc.stations[0].config, render_seconds);
  content_len_ = result.station_renders[0]->iq.size();
  const std::size_t run_len =
      loop_mode_
          ? static_cast<std::size_t>(plan.total_seconds * fm::kMpxRate + 0.5)
          : content_len_;
  const std::size_t padded = (run_len + kBlockMpx - 1) / kBlockMpx * kBlockMpx;
  num_blocks_ = padded / kBlockMpx;

  result.receivers.resize(sc.receivers.size());
  result.segments.resize(plan.num_segments);
  for (std::size_t k = 0; k < plan.num_segments; ++k) {
    const auto [s0, s1] = plan.segment_bounds(k);
    result.segments[k] = ScenarioSegmentReport{s0, s1, sel[k]};
  }

  // ---- Demand-driven pruning and the remaining station renders. ------------
  pruning_ = resolve_scene_pruning(sc, plan, options_.scene_rendering);
  const std::vector<char>& station_needed = pruning_.station_needed;
  const std::vector<char>& tag_needed = pruning_.tag_needed;
  for (std::size_t s = 1; s < num_stations; ++s) {
    if (!station_needed[s]) continue;
    result.station_renders[s] =
        scope_.render(sc.stations[s].config, render_seconds);
    if (result.station_renders[s]->iq.size() != content_len_) {
      throw std::logic_error("ScenePipeline: station render length mismatch");
    }
  }
  result.scene.stations_total = num_stations;
  result.scene.tags_total = sc.tags.size();
  result.scene.stations_rendered = static_cast<std::size_t>(
      std::count(station_needed.begin(), station_needed.end(), 1));
  result.scene.tags_rendered = static_cast<std::size_t>(
      std::count(tag_needed.begin(), tag_needed.end(), 1));

  // ---- Per-tag state and compact burst waveforms. --------------------------
  result.mac.resize(sc.tags.size());
  tags_.resize(sc.tags.size());
  for (std::size_t i = 0; i < sc.tags.size(); ++i) {
    const ScenarioTag& t = sc.tags[i];
    const ScenarioTagPlan& tp = plan.tags[i];
    PipelineTag& st = tags_[i];
    st.subcarrier = std::make_unique<tag::SubcarrierGenerator>(t.subcarrier);
    if (t.fading) {
      st.fading_seed = tp.fading_seed;
      if (plan.num_segments == 1) {
        st.fading = std::make_unique<channel::FadingProcess>(
            *t.fading, fm::kRfRate, st.fading_seed);
      }
    }
    if (tp.custom_baseband) {
      // Always on, default MAC report; the block stager zero-pads the
      // user's baseband to the scene length.
      st.wave = t.custom_baseband;
      st.active_end = padded;
      continue;
    }
    if (!tp.rds) st.bits = tag::random_bits(t.num_bits, tp.content_seed);
    result.mac[i] = TagMacReport{tp.transmitted, tp.deferrals,
                                 tp.start_seconds, tp.last_sensed_dbm};
    // A silent burst never switches on; an inaudible one keeps its MAC
    // report but its waveform is never composed.
    if (!tp.transmitted || !tag_needed[i]) continue;
    if (tp.rds) {
      // RDS burst: generated directly at the MPX rate (the biphase/BPSK
      // waveform needs no audio-rate stage).
      const auto nsamp = static_cast<std::size_t>(
          std::ceil(tp.burst_seconds * fm::kMpxRate));
      st.owned = tag::compose_rds_baseband(tp.rds_bits, nsamp, t.rds_level);
      st.wave_begin = static_cast<std::size_t>(tp.start_seconds * fm::kMpxRate);
    } else {
      // FSK burst: silence(start) ++ fsk through the overlay interpolator
      // maps the silent prefix to an exact zero prefix (zero filter state),
      // so composing the payload alone and offsetting it is bit-equal to
      // the padded full-run baseband at O(burst) memory.
      const auto lead =
          static_cast<std::size_t>(tp.start_seconds * fm::kAudioRate + 0.5);
      st.owned = tag::compose_overlay_baseband(
          tag::modulate_fsk(st.bits, t.rate, fm::kAudioRate), t.level,
          fm::kMpxRate);
      st.wave_begin =
          lead * static_cast<std::size_t>(fm::kMpxRate / fm::kAudioRate);
    }
    st.wave = st.owned;
    st.active_begin = static_cast<std::size_t>(
        std::max(0.0, tp.start_seconds - kBurstGuardSeconds) * fm::kMpxRate);
    st.active_end = std::min(
        padded, static_cast<std::size_t>((tp.start_seconds + tp.burst_seconds +
                                          kBurstGuardSeconds) *
                                         fm::kMpxRate));
  }

  // ---- Per-station front ends. ---------------------------------------------
  const std::vector<float> up_taps = dsp::fir_design_lowpass(
      (16 * kUpFactor) | 1U, 0.45 / static_cast<double>(kUpFactor));
  stations_.resize(num_stations);
  for (std::size_t s = 0; s < num_stations; ++s) {
    if (!station_needed[s]) continue;  // never enters the scene
    PipelineStation& src = stations_[s];
    src.render = result.station_renders[s];
    src.up.emplace(up_taps, kUpFactor);
    if (station_offset[s] != 0.0) {
      src.mixer.emplace(station_offset[s], fm::kRfRate);
    }
    if (loop_mode_) {
      src.loop_mod.emplace(sc.stations[s].config.deviation, fm::kMpxRate);
    }
  }

  // ---- Per-receiver front ends and decode chains. --------------------------
  front_ends_.reserve(sc.receivers.size());
  streams_.resize(sc.receivers.size());
  std::size_t decode_bytes = 0;
  for (std::size_t r = 0; r < sc.receivers.size(); ++r) {
    const ScenarioReceiver& rx = sc.receivers[r];
    rx::TunerConfig tuner_cfg;
    tuner_cfg.offset_hz = rx.tune_offset.raw();
    front_ends_.push_back(ReceiverFrontEnd{
        channel::AwgnSource(receiver_noise_floor(rx),
                            units::Hertz{fm::kChannelSpacingHz}, fm::kRfRate,
                            plan.receiver_noise_seed[r]),
        rx::Tuner(tuner_cfg)});

    fm::StereoDecoderConfig sdc = rx.stereo_decoder;
    sdc.mpx_rate = fm::kMpxRate;
    streams_[r] = std::make_unique<ReceiverStream>(sdc, padded,
                                                   options_.decision_window);
    ReceiverStream& rs = *streams_[r];
    if (rx.kind == ReceiverKind::kCar) {
      rs.cabin.emplace(rx.cabin, sdc.audio_rate);
    } else {
      rs.phone.emplace(rx.phone, sdc.audio_rate);
    }
    if (options_.keep_captures) {
      rs.capture.emplace();
      rs.capture->fm.audio.sample_rate = sdc.audio_rate;
      rs.capture->mono.sample_rate = sdc.audio_rate;
    }
    const auto decim =
        static_cast<std::size_t>(sdc.mpx_rate / sdc.audio_rate + 0.5);

    // Tag links. A burst lives on the channel of the station its tag
    // reflected while on the air: route by the segment holding the burst
    // midpoint. Custom-baseband tags have no payload to score; the MAC kept
    // untransmitted bursts silent. RDS bursts decode over their on-air
    // window only, so the reflected station's continuous RDS outside the
    // burst cannot steal carrier/timing lock.
    for (std::size_t t = 0; t < sc.tags.size(); ++t) {
      const ScenarioTagPlan& tp = plan.tags[t];
      if (tp.custom_baseband || !tp.transmitted) continue;
      const std::size_t seg =
          plan.segment_of_time(tp.start_seconds + 0.5 * tp.burst_seconds);
      const units::Hertz station{
          station_offset[static_cast<std::size_t>(sel[seg][t])]};
      if (!tag_audible_at(sc.tags[t], station, rx.tune_offset)) continue;
      if (tp.rds) {
        rs.rds.push_back(RdsCollector{
            t, seg,
            rx::RdsStreamDecoder(fm::kMpxRate, padded, tp.start_seconds,
                                 tp.burst_seconds + kRdsDecodeSlackSeconds),
            false, TagLinkReport{}});
        continue;
      }
      rx::BurstSpec burst;
      burst.rate = sc.tags[t].rate;
      burst.bits = tags_[t].bits;
      burst.start_seconds = tp.start_seconds;
      burst.packet_bits = sc.tags[t].packet_bits;
      rs.fsk.push_back(FskCollector{
          t, seg,
          rx::StreamingBurstDemodulator(burst, sdc.audio_rate, padded / decim),
          false, TagLinkReport{}});
    }
    // The tuned channel's own broadcast RDS: the scene-station PS name any
    // unmodified RDS radio parked on this channel displays.
    const fm::StationConfig* tuned_station = nullptr;
    for (std::size_t s = 0; s < num_stations; ++s) {
      if (std::abs(station_offset[s] - rx.tune_offset.raw()) < 1.0) {
        tuned_station = &sc.stations[s].config;
        break;
      }
    }
    if (tuned_station != nullptr && tuned_station->rds_level > 0.0) {
      // In loop mode the station MPX past the first horizon period is a
      // re-cycle whose RDS group alignment breaks at every seam (the horizon
      // rarely holds a whole number of groups), so the ambient-RDS verdict
      // is reached within the first period — where the streamed content is
      // bit-exact — rather than diluted with seam garbage.
      const double station_window =
          loop_mode_ ? std::min(options_.decision_window.raw(),
                                options_.station_horizon->raw())
                     : options_.decision_window.raw();
      rs.station_rds.emplace(fm::kMpxRate, padded, 0.0, -1.0, station_window);
    }

    decode_bytes += rs.stereo.decision_buffer_bytes();
    decode_bytes +=
        (rs.stereo.decision_buffer_bytes() / sizeof(float) / decim) * 2 *
        sizeof(float);  // the L/R chunk the decision flush emits
    decode_bytes += kBlockMpx * sizeof(float);  // per-block MPX scratch
    for (const auto& c : rs.fsk) decode_bytes += c.decoder.buffer_bytes();
    for (const auto& c : rs.rds) decode_bytes += c.decoder.buffer_bytes();
    if (rs.station_rds) decode_bytes += rs.station_rds->buffer_bytes();
  }

  // ---- The bounded-buffer ledger. ------------------------------------------
  // Every buffer whose lifetime spans the run, summed up front (all sizes are
  // known before the first sample). None scales with the run duration.
  std::size_t bytes = kBlockRf * sizeof(dsp::cfloat);  // RF compose
  bytes += kBlockMpx * sizeof(float);                  // tag baseband staging
  for (std::size_t s = 0; s < num_stations; ++s) {
    if (!station_needed[s]) continue;
    bytes += kBlockRf * sizeof(dsp::cfloat);  // the station's RF block
    if (loop_mode_) {
      bytes += stations_[s].render->mpx.size() * sizeof(float);
      bytes += stations_[s].render->iq.size() * sizeof(dsp::cfloat);
      bytes += kBlockMpx * sizeof(dsp::cfloat);  // re-modulated block
    }
  }
  if (loop_mode_) bytes += kBlockMpx * sizeof(float);  // MPX cycle scratch
  // A tag's reflected-IQ scratch lives only across its active blocks (the
  // renderer frees it once the burst window passes), so the ledger charges
  // the worst-case number of *simultaneously* active tags, not the tag
  // count: a long run of staggered bursts buffers like a single burst.
  std::vector<std::pair<std::size_t, int>> active_edges;
  for (std::size_t t = 0; t < sc.tags.size(); ++t) {
    const PipelineTag& st = tags_[t];
    if (!tag_needed[t] || st.active_end <= st.active_begin) continue;
    active_edges.emplace_back(st.active_begin / kBlockMpx, +1);
    active_edges.emplace_back((st.active_end + kBlockMpx - 1) / kBlockMpx, -1);
  }
  std::sort(active_edges.begin(), active_edges.end());
  std::ptrdiff_t concurrent = 0;
  std::ptrdiff_t peak_concurrent = 0;
  for (const auto& [block, edge] : active_edges) {
    concurrent += edge;
    peak_concurrent = std::max(peak_concurrent, concurrent);
  }
  bytes += static_cast<std::size_t>(peak_concurrent) * kBlockRf *
           sizeof(dsp::cfloat);
  for (const PipelineTag& st : tags_) bytes += st.owned.size() * sizeof(float);
  bytes += decode_bytes;
  // Full blocks stream as spans straight out of the cached renders; only a
  // partial final block is staged, into one block of shared scratch.
  if (!loop_mode_ && padded != content_len_) {
    result.scene.scene_scratch_bytes = kBlockMpx * sizeof(dsp::cfloat);
  }
  buffer_bytes_ = bytes + result.scene.scene_scratch_bytes;
}

ScenePipeline::~ScenePipeline() = default;

void ScenePipeline::render(
    const std::function<std::vector<dsp::cvec>*(std::size_t)>& acquire,
    const std::function<void(std::size_t)>& publish) {
  const Scenario& sc = scenario_;
  const ScenarioPlan& plan = plan_;
  const std::size_t num_stations = plan.num_stations;
  const std::vector<std::vector<int>>& sel = plan.selected_station;
  const std::vector<char>& station_needed = pruning_.station_needed;
  const std::vector<char>& tag_needed = pruning_.tag_needed;
  const std::size_t blocks_per_segment =
      plan.segment_seconds > 0.0
          ? static_cast<std::size_t>(
                std::llround(plan.segment_seconds / kBlockSeconds))
          : 0;

  std::vector<dsp::cvec> st_rf(num_stations);
  std::vector<dsp::cvec> reflected(sc.tags.size());
  std::vector<char> tag_active(sc.tags.size(), 0);
  dsp::cvec scene_scratch(result_.scene.scene_scratch_bytes /
                          sizeof(dsp::cfloat));
  dsp::rvec tag_bb(kBlockMpx);
  dsp::rvec loop_mpx(loop_mode_ ? kBlockMpx : 0);
  dsp::cvec rf;
  for (std::size_t block = 0; block < num_blocks_; ++block) {
    const std::size_t start = block * kBlockMpx;
    // The segment owning this block (blocks past the nominal end, the
    // padding, stay on the last segment's geometry).
    const std::size_t seg =
        plan.num_segments == 1
            ? 0
            : std::min(plan.num_segments - 1, block / blocks_per_segment);

    for (std::size_t s = 0; s < num_stations; ++s) {
      if (!station_needed[s]) continue;
      PipelineStation& src = stations_[s];
      std::span<const dsp::cfloat> st_block;
      if (loop_mode_) {
        // Cycle the horizon's MPX through the persistent modulator: the
        // carrier phase rides straight across the content seam.
        const dsp::rvec& mpx = src.render->mpx;
        for (float& x : loop_mpx) {
          x = mpx[src.loop_pos];
          if (++src.loop_pos == mpx.size()) src.loop_pos = 0;
        }
        src.loop_iq = src.loop_mod->process(loop_mpx);
        st_block = src.loop_iq;
      } else if (start + kBlockMpx <= content_len_) {
        st_block = std::span<const dsp::cfloat>(
            src.render->iq.data() + start, kBlockMpx);
      } else {
        // Partial final block: stage the remaining render samples and hold
        // the final one through the pad — the FM carrier continues at its
        // last phase, so the discriminator sees silence, not a click.
        const std::size_t have = content_len_ - start;
        std::copy(src.render->iq.begin() + static_cast<std::ptrdiff_t>(start),
                  src.render->iq.end(), scene_scratch.begin());
        std::fill(scene_scratch.begin() + static_cast<std::ptrdiff_t>(have),
                  scene_scratch.end(), src.render->iq.back());
        st_block = scene_scratch;
      }
      st_rf[s] = src.up->process(st_block);
      if (src.mixer) src.mixer->process_inplace(st_rf[s]);
    }

    for (std::size_t t = 0; t < tags_.size(); ++t) {
      PipelineTag& st = tags_[t];
      if (!tag_needed[t]) continue;  // stays zero in tag_active
      tag_active[t] =
          start < st.active_end && start + kBlockMpx > st.active_begin;
      if (!tag_active[t]) {
        // Past its burst window the tag contributes nothing again: return
        // its block-sized reflected scratch (the ledger charges only
        // concurrently active tags on the strength of this).
        if (!reflected[t].empty()) dsp::cvec().swap(reflected[t]);
        continue;
      }
      // Stage this block's slice of the tag baseband: the waveform inside
      // its range, zeros outside.
      std::fill(tag_bb.begin(), tag_bb.end(), 0.0F);
      const std::size_t lo = std::max(start, st.wave_begin);
      const std::size_t hi =
          std::min(start + kBlockMpx, st.wave_begin + st.wave.size());
      if (lo < hi) {
        std::copy(st.wave.begin() + (lo - st.wave_begin),
                  st.wave.begin() + (hi - st.wave_begin),
                  tag_bb.begin() + static_cast<std::ptrdiff_t>(lo - start));
      }
      // reflected = B(t) x incident (the tag's selected station in this
      // segment — a handoff moves the reflection to the new station's
      // carrier), with motion fading on the tag path.
      const dsp::cvec& incident = st_rf[static_cast<std::size_t>(sel[seg][t])];
      dsp::cvec& b = reflected[t];
      b = st.subcarrier->process(tag_bb);
      for (std::size_t i = 0; i < incident.size(); ++i) b[i] *= incident[i];
      if (sc.tags[t].fading) {
        if (plan.num_segments > 1 && st.fading_segment != seg) {
          st.fading = std::make_unique<channel::FadingProcess>(
              *sc.tags[t].fading, fm::kRfRate,
              derive_seed(st.fading_seed, seg));
          st.fading_segment = seg;
        }
        st.fading->apply(b);
      }
      // The switch is off outside the burst window: no reflection at all.
      const std::size_t on =
          st.active_begin > start ? (st.active_begin - start) * kUpFactor : 0;
      const std::size_t off = st.active_end < start + kBlockMpx
                                  ? (st.active_end - start) * kUpFactor
                                  : b.size();
      std::fill(b.begin(), b.begin() + static_cast<std::ptrdiff_t>(on),
                dsp::cfloat(0.0F, 0.0F));
      std::fill(b.begin() + static_cast<std::ptrdiff_t>(off), b.end(),
                dsp::cfloat(0.0F, 0.0F));
    }

    std::vector<dsp::cvec>* out = acquire(block);
    if (out == nullptr) return;
    out->resize(sc.receivers.size());
    rf.resize(st_rf[0].size());
    for (std::size_t r = 0; r < sc.receivers.size(); ++r) {
      channel::scale_into(rf, st_rf[0], plan.g_direct[seg][r][0]);
      for (std::size_t s = 1; s < num_stations; ++s) {
        if (!station_needed[s]) continue;
        channel::accumulate_scaled(rf, st_rf[s], plan.g_direct[seg][r][s]);
      }
      for (std::size_t t = 0; t < tags_.size(); ++t) {
        if (!tag_active[t]) continue;
        channel::accumulate_scaled(rf, reflected[t], plan.g_back[seg][r][t]);
      }
      front_ends_[r].noise.add_to(rf);
      (*out)[r] = front_ends_[r].tuner.process(rf);
    }
    publish(block);
  }
}

void ScenePipeline::consume(std::size_t r, std::size_t index,
                            std::span<const dsp::cfloat> iq) {
  const LinkContext ctx{scenario_, plan_, options_.on_link};
  const double now = static_cast<double>(index + 1) * kBlockSeconds;
  ReceiverStream& rs = *streams_[r];
  const dsp::rvec mpx = rs.demod.process(iq);
  if (rs.capture) {
    rs.capture->fm.mpx.insert(rs.capture->fm.mpx.end(), mpx.begin(),
                              mpx.end());
  }
  if (rs.station_rds) {
    rs.station_rds->push(mpx);
    if (rs.station_rds->window_complete()) {
      finalize_station_rds(ctx, r, rs, now);
    }
  }
  push_open(ctx, r, rs.rds, mpx, now);
  rs.left.clear();
  rs.right.clear();
  rs.stereo.push(mpx, rs.left, rs.right);
  feed_audio(ctx, r, rs, now);
}

void ScenePipeline::drain(std::size_t r) {
  // Truncated windows were clamped to the run up front, so their reports
  // match a one-shot decode of the same truncated capture.
  const LinkContext ctx{scenario_, plan_, options_.on_link};
  const double now = static_cast<double>(num_blocks_) * kBlockSeconds;
  ReceiverStream& rs = *streams_[r];
  rs.left.clear();
  rs.right.clear();
  rs.stereo.finish(rs.left, rs.right);
  feed_audio(ctx, r, rs, now);
  if (rs.station_rds) finalize_station_rds(ctx, r, rs, now);
  for (RdsCollector& c : rs.rds) {
    if (!c.done) finalize(ctx, r, c, now);
  }
  for (FskCollector& c : rs.fsk) {
    if (!c.done) finalize(ctx, r, c, now);
  }
  if (rs.capture) {
    // The mono capture is the device-chain stream the FSK collectors
    // decoded. A phone records both channels through matched chains; a car's
    // cabin microphone records one mono mix.
    ReceiverCapture& cap = *rs.capture;
    cap.fm.stereo_mode = rs.stereo.stereo_mode();
    cap.fm.pilot_snr_db = rs.stereo.pilot_snr_db();
    cap.stereo = rs.phone ? rx::apply_phone_chain(
                                cap.fm.audio, scenario_.receivers[r].phone)
                          : audio::StereoBuffer::dual_mono(cap.mono);
    result_.receivers[r].capture = std::move(cap);
    rs.capture.reset();
  }
}

ScenarioResult ScenePipeline::finish() {
  // Every receiver's links in routing order (FSK, then RDS); the best link
  // per tag is the lowest BER (or BLER) across every receiver that hears it.
  std::vector<TagLinkReport> best(scenario_.tags.size());
  std::vector<char> heard(scenario_.tags.size(), 0);
  for (std::size_t r = 0; r < streams_.size(); ++r) {
    ReceiverStream& rs = *streams_[r];
    ScenarioReceiverResult& rr = result_.receivers[r];
    for (const FskCollector& c : rs.fsk) rr.links.push_back(c.link);
    for (const RdsCollector& c : rs.rds) rr.links.push_back(c.link);
    for (const TagLinkReport& link : rr.links) {
      const std::size_t t = link.tag_index;
      if (!heard[t] || link.burst.ber.ber < best[t].burst.ber.ber) {
        best[t] = link;
        heard[t] = 1;
      }
    }
    rr.station_rds = rs.station_rds_report;
  }
  for (std::size_t t = 0; t < scenario_.tags.size(); ++t) {
    if (!heard[t]) continue;
    result_.aggregate_goodput_bps += best[t].goodput_bps;
    result_.best_per_tag.push_back(best[t]);
  }
  return std::move(result_);
}

}  // namespace fmbs::core
