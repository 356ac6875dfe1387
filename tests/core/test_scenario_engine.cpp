// Property tests for the multi-tag scenario engine:
//  * the experiment harness's one-tag scenario builder renders exactly the
//    scenario it documents (same RF scene, noise draws and receiver chain),
//  * K tags on K disjoint channels each decode exactly as they do solo
//    (spectrum separation really isolates them),
//  * the demod router, channel planner and audibility rules behave.
#include "core/scenario.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>

#include "audio/tone.h"
#include "fm/station_cache.h"
#include "tag/baseband.h"
#include "tag/channel_plan.h"

namespace fmbs::core {
namespace {

// ---- The experiment harness's scenario builder ----------------------------

TEST(ScenarioEngine, ExperimentScenarioMatchesFieldByFieldScenario) {
  const double duration = 0.3;
  const audio::MonoBuffer tone =
      audio::make_tone(2000.0, 0.8, duration, fm::kAudioRate);
  const dsp::rvec bb = tag::compose_overlay_baseband(tone, kOverlayLevel);
  const auto fading = channel::fading_for_mobility(channel::Mobility::kWalking);

  for (const ReceiverKind kind : {ReceiverKind::kPhone, ReceiverKind::kCar}) {
    ExperimentPoint point;
    point.tag_power = units::Dbm{-35.0};
    point.distance = units::Feet{6.0};
    point.genre = audio::ProgramGenre::kNews;
    point.stereo_station = false;
    point.receiver = kind;
    point.seed = 7;
    point.station_seed = 6;
    Scenario built = experiment_scenario(point, bb, units::Seconds{duration},
                                         /*ambient_receiver=*/true);
    built.tags[0].fading = fading;

    // The same measurement written out field by field.
    Scenario manual;
    ScenarioStation station;
    station.config.program.genre = audio::ProgramGenre::kNews;
    station.config.program.stereo = false;
    station.config.seed = 6;
    station.power = units::Dbm{-35.0};
    manual.stations = {station};
    manual.settle = units::Seconds{0.0};
    manual.duration = units::Seconds{duration};
    manual.seed = 7 + 0x200000;
    ScenarioTag t;
    t.custom_baseband = bb;
    t.distance_override = units::Feet{6.0};
    t.fading = fading;
    t.fading_seed = 7 + 0x200000 + 1;
    manual.tags.push_back(t);
    ScenarioReceiver rx;
    rx.kind = kind;
    rx.tune_offset = units::Hertz{fm::kDefaultBackscatterShiftHz};
    rx.noise_seed = 7 + 0x200000;
    if (kind == ReceiverKind::kCar) {
      rx.stereo_decoder.force_mono = true;
      rx.link.use_two_ray = true;
      rx.link.tag_height = units::Meters{1.52};
      rx.link.rx_height = units::Meters{1.5};
    }
    manual.receivers.push_back(rx);
    ScenarioReceiver ambient = rx;
    ambient.tune_offset = units::Hertz{0.0};
    ambient.noise_seed = 7 + 0x200000 + 0x9e3779b9ULL;
    manual.receivers.push_back(ambient);

    const ScenarioResult a = ScenarioEngine().run(built);
    const ScenarioResult b = ScenarioEngine().run(manual);
    ASSERT_EQ(a.receivers.size(), 2U);
    ASSERT_EQ(b.receivers.size(), 2U);
    for (std::size_t r = 0; r < 2; ++r) {
      const ReceiverCapture& ca = a.receivers[r].capture;
      const ReceiverCapture& cb = b.receivers[r].capture;
      ASSERT_FALSE(ca.mono.samples.empty());
      EXPECT_EQ(ca.mono.samples, cb.mono.samples) << "receiver " << r;
      EXPECT_EQ(ca.stereo.left, cb.stereo.left) << "receiver " << r;
      EXPECT_EQ(ca.stereo.right, cb.stereo.right) << "receiver " << r;
    }
  }

  // An empty baseband is an unmodulated always-on switch: one zero sample,
  // so the engine does not mistake the tag for an FSK payload tag.
  const Scenario idle =
      experiment_scenario(ExperimentPoint{}, {}, units::Seconds{duration});
  EXPECT_EQ(idle.tags[0].custom_baseband, dsp::rvec(1, 0.0F));
}

// ---- Disjoint channels isolate tags ----------------------------------------

Scenario disjoint_scenario(std::size_t num_tags) {
  Scenario sc;
  sc.name = "disjoint";
  ScenarioStation station;
  station.config.program.genre = audio::ProgramGenre::kNews;
  station.config.program.stereo = false;
  station.config.seed = 33;
  station.power = units::Dbm{-35.0};
  sc.stations = {station};
  sc.seed = 33;
  sc.duration = units::Seconds{0.25};
  const auto plan = tag::plan_subcarrier_channels(num_tags);
  for (std::size_t i = 0; i < num_tags; ++i) {
    ScenarioTag t;
    t.name = "tag" + std::to_string(i);
    t.subcarrier = plan[i].subcarrier;
    t.rate = tag::DataRate::k1600bps;
    t.num_bits = 96;
    t.distance_override = units::Feet{6.0};
    sc.tags.push_back(std::move(t));
    sc.receivers.push_back(phone_listening_to(plan[i].subcarrier));
  }
  return sc;
}

TEST(ScenarioEngine, DisjointChannelTagsMatchTheirSoloRuns) {
  constexpr std::size_t kTags = 3;
  const Scenario all = disjoint_scenario(kTags);
  const ScenarioEngine engine;
  const ScenarioResult together = engine.run(all);
  ASSERT_EQ(together.best_per_tag.size(), kTags);

  for (std::size_t i = 0; i < kTags; ++i) {
    // Solo run: same tag, same seeds (explicitly pinned to the multi-run
    // derived values so content and noise draws are unchanged), same rx.
    Scenario solo = all;
    solo.tags = {all.tags[i]};
    solo.tags[0].seed = derive_seed(all.seed, 0x1000 + i);
    solo.receivers = {all.receivers[i]};
    solo.receivers[0].noise_seed = derive_seed(all.seed, 0x3000 + i);
    const ScenarioResult alone = engine.run(solo);
    ASSERT_EQ(alone.best_per_tag.size(), 1U);

    const auto& multi = together.best_per_tag[i];
    const auto& single = alone.best_per_tag[0];
    EXPECT_EQ(multi.tag_index, i);
    // Spectrum separation: adjacent-channel leakage must not flip any bit
    // relative to the tag running alone.
    EXPECT_EQ(multi.burst.ber.bit_errors, single.burst.ber.bit_errors) << i;
    EXPECT_EQ(multi.burst.ber.bits_compared, single.burst.ber.bits_compared) << i;
    EXPECT_EQ(multi.burst.ber.bit_errors, 0U) << "link should be clean at -35 dBm";
  }
}

// ---- Same-channel collision is physical ------------------------------------

TEST(ScenarioEngine, SameChannelOverlapCollidesAndStaggerRecovers) {
  Scenario sc;
  ScenarioStation station;
  station.config.program.genre = audio::ProgramGenre::kNews;
  station.config.program.stereo = false;
  station.config.seed = 21;  // a quiet program stretch under the burst window
  station.power = units::Dbm{-20.0};
  sc.stations = {station};
  sc.seed = 21;
  sc.duration = units::Seconds{0.35};
  for (int i = 0; i < 2; ++i) {
    ScenarioTag t;
    t.name = i == 0 ? "a" : "b";
    t.rate = tag::DataRate::k1600bps;  // robust solo at this power/range
    t.num_bits = 128;
    t.distance_override = units::Feet{3.0};
    t.start = units::Seconds{0.0};  // fully overlapping bursts
    sc.tags.push_back(std::move(t));
  }
  ScenarioReceiver rx;
  rx.tune_offset = units::Hertz{sc.tags[0].subcarrier.shift.raw()};
  sc.receivers.push_back(rx);

  const ScenarioEngine engine;
  const ScenarioResult collided = engine.run(sc);
  ASSERT_EQ(collided.best_per_tag.size(), 2U);
  // Equal-power overlap on one channel destroys both packets.
  for (const auto& link : collided.best_per_tag) {
    EXPECT_GT(link.burst.ber.ber, 0.08) << "collision should corrupt the payload";
    EXPECT_EQ(link.burst.packets_ok, 0U);
  }

  // Stagger the second tag clear of the first: both decode cleanly.
  Scenario staggered = sc;
  staggered.tags[1].start = units::Seconds{0.15};  // 128 bits @ 1.6 kbps = 80 ms
  const ScenarioResult apart = engine.run(staggered);
  ASSERT_EQ(apart.best_per_tag.size(), 2U);
  for (const auto& link : apart.best_per_tag) {
    EXPECT_EQ(link.burst.ber.bit_errors, 0U)
        << "staggered burst should be clean, tag " << link.tag_index;
  }
  EXPECT_GT(apart.aggregate_goodput_bps, collided.aggregate_goodput_bps);
}

// ---- Channel planner -------------------------------------------------------

TEST(ChannelPlan, DisjointUpToCapacityThenShared) {
  const std::size_t cap = tag::max_disjoint_channels();
  EXPECT_EQ(cap, 8U);  // 4 raster channels x 2 signs at the 2.4 MHz scene

  const auto four = tag::plan_subcarrier_channels(4);
  for (const auto& a : four) {
    EXPECT_EQ(a.subcarrier.mode, tag::SubcarrierMode::kBandlimitedSquare);
    EXPECT_FALSE(a.shared);
    EXPECT_GE(std::abs(a.subcarrier.shift.raw()), 400000.0);
  }

  const auto eight = tag::plan_subcarrier_channels(8);
  std::set<double> shifts;
  for (const auto& a : eight) {
    EXPECT_EQ(a.subcarrier.mode, tag::SubcarrierMode::kSingleSideband);
    EXPECT_FALSE(a.shared);
    shifts.insert(a.subcarrier.shift.raw());
  }
  EXPECT_EQ(shifts.size(), 8U);  // all distinct signed channels

  const auto ten = tag::plan_subcarrier_channels(10);
  EXPECT_FALSE(ten[7].shared);
  EXPECT_TRUE(ten[8].shared);  // band full: round-robin reuse
  EXPECT_TRUE(ten[9].shared);
  EXPECT_EQ(ten[8].subcarrier.shift.raw(), ten[0].subcarrier.shift.raw());

  EXPECT_THROW(tag::plan_subcarrier_channels(0), std::invalid_argument);
}

TEST(ChannelPlan, AudibilityFollowsWaveformMirrors) {
  ScenarioTag square;
  square.subcarrier.shift = units::Hertz{600000.0};
  square.subcarrier.mode = tag::SubcarrierMode::kBandlimitedSquare;
  const units::Hertz center{0.0};  // the reflected station's carrier
  EXPECT_TRUE(tag_audible_at(square, center, units::Hertz{600000.0}));
  EXPECT_TRUE(tag_audible_at(square, center, units::Hertz{-600000.0}));  // mirror copy
  EXPECT_FALSE(tag_audible_at(square, center, units::Hertz{400000.0}));
  EXPECT_FALSE(tag_audible_at(square, center, units::Hertz{0.0}));  // ambient rx hears no tag data

  ScenarioTag ssb = square;
  ssb.subcarrier.mode = tag::SubcarrierMode::kSingleSideband;
  EXPECT_TRUE(tag_audible_at(ssb, center, units::Hertz{600000.0}));
  EXPECT_FALSE(tag_audible_at(ssb, center, units::Hertz{-600000.0}));  // mirror suppressed
}

// ---- Multi-station scenes ---------------------------------------------------

ScenarioStation make_station(const std::string& name, double offset_hz,
                             double power_dbm, std::uint64_t seed,
                             audio::ProgramGenre genre) {
  ScenarioStation st;
  st.name = name;
  st.offset = units::Hertz{offset_hz};
  st.power = units::Dbm{power_dbm};
  st.config.program.genre = genre;
  st.config.program.stereo = false;
  st.config.seed = seed;
  return st;
}

TEST(ScenarioMultiStation, StationPowerFollowsGeometry) {
  ScenarioStation far = make_station("far", 0.0, -30.0, 1,
                                     audio::ProgramGenre::kNews);
  // Far field: uniform everywhere.
  EXPECT_DOUBLE_EQ(station_power_at(far, {0.0, 0.0}).raw(), -30.0);
  EXPECT_DOUBLE_EQ(station_power_at(far, {500.0, -200.0}).raw(), -30.0);

  ScenarioStation near = far;
  near.position = ScenePosition{100.0, 0.0};
  // At the origin the reference power holds; half the distance = +6 dB.
  EXPECT_NEAR(station_power_at(near, {0.0, 0.0}).raw(), -30.0, 1e-12);
  EXPECT_NEAR(station_power_at(near, {50.0, 0.0}).raw(),
              -30.0 + 20.0 * std::log10(2.0),
              1e-9);
  EXPECT_LT(station_power_at(near, {-100.0, 0.0}).raw(), -36.0);
}

TEST(ScenarioMultiStation, TagsSelectTheStrongestStation) {
  Scenario sc;
  sc.seed = 91;
  ScenarioStation a =
      make_station("west", 0.0, -28.0, 91, audio::ProgramGenre::kNews);
  a.position = ScenePosition{-60.0, 0.0};
  ScenarioStation b =
      make_station("east", 800e3, -30.0, 92, audio::ProgramGenre::kPop);
  b.position = ScenePosition{60.0, 0.0};
  sc.stations = {a, b};
  sc.settle = units::Seconds{0.0};
  sc.duration = units::Seconds{0.05};
  for (const double x : {-10.0, 10.0}) {
    ScenarioTag t;
    t.name = x < 0 ? "west-tag" : "east-tag";
    t.position = {x, 0.0};
    t.custom_baseband = dsp::rvec(1, 0.0F);  // unmodulated: selection only
    sc.tags.push_back(std::move(t));
  }
  // A third tag pinned against the geometric choice.
  ScenarioTag pinned = sc.tags[1];
  pinned.name = "pinned-west";
  pinned.station_index = 0;
  sc.tags.push_back(std::move(pinned));
  sc.receivers.emplace_back();

  const ScenarioResult r = ScenarioEngine({.keep_captures = false}).run(sc);
  const std::vector<int>& selected = r.segments[0].selected_station;
  ASSERT_EQ(selected.size(), 3U);
  EXPECT_EQ(selected[0], 0);  // west tag hears the west station best
  EXPECT_EQ(selected[1], 1);  // east tag flips to the east station
  EXPECT_EQ(selected[2], 0);  // explicit index wins
  ASSERT_EQ(r.station_renders.size(), 2U);
}

// The acceptance property of the multi-station scene: spectrally disjoint
// stations superpose linearly — each receiver's capture matches the
// corresponding single-station run to within the tuner's adjacent-channel
// leakage (the only path by which the other station can reach it).
TEST(ScenarioMultiStation, DisjointStationsSuperposeWithinTunerLeakage) {
  const ScenarioStation a =
      make_station("A", 0.0, -30.0, 61, audio::ProgramGenre::kNews);
  const ScenarioStation b =
      make_station("B", 800e3, -33.0, 62, audio::ProgramGenre::kPop);

  Scenario both;
  both.name = "two-station";
  both.seed = 61;
  both.stations = {a, b};
  both.duration = units::Seconds{0.25};
  ScenarioTag t;
  t.name = "tag";
  t.subcarrier.shift = units::Hertz{400e3};  // station A's tag, channel at +400 kHz
  t.rate = tag::DataRate::k1600bps;
  t.num_bits = 96;
  t.distance_override = units::Feet{4.0};
  t.seed = 777;  // pinned so the solo run reuses the same content
  both.tags = {t};
  ScenarioReceiver rx_tag = phone_listening_to(t.subcarrier);
  rx_tag.name = "tag-rx";
  rx_tag.noise_seed = 5001;
  ScenarioReceiver rx_b;
  rx_b.name = "b-rx";
  rx_b.tune_offset = units::Hertz{b.offset.raw()};  // parked on station B's carrier
  rx_b.noise_seed = 5002;
  both.receivers = {rx_tag, rx_b};

  const ScenarioEngine engine;
  const ScenarioResult r_both = engine.run(both);

  Scenario only_a = both;
  only_a.stations = {a};
  only_a.receivers = {rx_tag};
  const ScenarioResult r_a = engine.run(only_a);

  Scenario only_b = both;
  only_b.stations = {b};
  only_b.tags.clear();  // the tag belongs to station A's scene
  only_b.receivers = {rx_b};
  const ScenarioResult r_b = engine.run(only_b);

  // The tag decodes identically with and without the far station on air.
  ASSERT_EQ(r_both.best_per_tag.size(), 1U);
  ASSERT_EQ(r_a.best_per_tag.size(), 1U);
  EXPECT_EQ(r_both.best_per_tag[0].burst.ber.bit_errors,
            r_a.best_per_tag[0].burst.ber.bit_errors);
  EXPECT_EQ(r_both.best_per_tag[0].burst.ber.bit_errors, 0U);

  // Relative RMS error over [t0, t1): comparisons are windowed to where a
  // deterministic signal dominates the channel — outside a burst the FM
  // demodulator outputs pure receiver noise, which is chaotic under any
  // perturbation and says nothing about superposition.
  auto rel_rms_diff = [](const audio::MonoBuffer& x, const audio::MonoBuffer& y,
                         double t0, double t1) {
    EXPECT_EQ(x.size(), y.size());
    const auto i0 = static_cast<std::size_t>(t0 * fm::kAudioRate);
    const auto i1 = std::min(static_cast<std::size_t>(t1 * fm::kAudioRate),
                             std::min(x.size(), y.size()));
    double err = 0.0, sig = 0.0;
    for (std::size_t i = i0; i < i1; ++i) {
      const double d =
          static_cast<double>(x.samples[i]) - static_cast<double>(y.samples[i]);
      err += d * d;
      sig += static_cast<double>(x.samples[i]) * x.samples[i];
    }
    return std::sqrt(err / std::max(sig, 1e-30));
  };
  // 70 dB of tuner stopband keeps the cross-station error orders of
  // magnitude below the wanted audio (measured ~8e-5 / ~5e-6 here).
  EXPECT_LT(rel_rms_diff(r_both.receivers[0].capture.mono,
                         r_a.receivers[0].capture.mono, 0.085, 0.14),
            1e-3);  // the tag burst window
  EXPECT_LT(rel_rms_diff(r_both.receivers[1].capture.mono,
                         r_b.receivers[0].capture.mono, 0.02, 0.33),
            1e-4);  // station B program, past the front-end warm-up
}

TEST(ScenarioMultiStation, AudibilityFollowsTheStationOffset) {
  ScenarioTag square;
  square.subcarrier.shift = units::Hertz{600e3};
  square.subcarrier.mode = tag::SubcarrierMode::kBandlimitedSquare;
  // Station at -800 kHz: mirror channels land at -200 kHz and -1.4 MHz.
  EXPECT_TRUE(tag_audible_at(square, units::Hertz{-800e3}, units::Hertz{-200e3}));
  EXPECT_TRUE(tag_audible_at(square, units::Hertz{-800e3}, units::Hertz{-1400e3}));
  EXPECT_FALSE(tag_audible_at(square, units::Hertz{-800e3}, units::Hertz{600e3}));
  EXPECT_FALSE(tag_audible_at(square, units::Hertz{-800e3}, units::Hertz{-800e3}));  // the carrier itself

  ScenarioTag ssb = square;
  ssb.subcarrier.mode = tag::SubcarrierMode::kSingleSideband;
  ssb.subcarrier.shift = units::Hertz{-600e3};
  EXPECT_TRUE(tag_audible_at(ssb, units::Hertz{800e3}, units::Hertz{200e3}));
  EXPECT_FALSE(tag_audible_at(ssb, units::Hertz{800e3}, units::Hertz{1400e3}));  // mirror suppressed
}

TEST(ScenarioMultiStation, StationsFromSurveyMapTheNeighborhood) {
  survey::CitySpectrum city;
  city.name = "Testville";
  city.detectable_channels = {48, 49, 51, 53, 90};
  city.detectable_power_dbm = {-50.0, -25.0, -60.0, -40.0, -20.0};

  const auto stations = stations_from_survey(city, 49);
  // Channel 90 is 8.2 MHz up-band: outside the 2.4 MHz scene.
  ASSERT_EQ(stations.size(), 4U);
  // Sorted by |offset|: the listen channel itself is station 0.
  EXPECT_DOUBLE_EQ(stations[0].offset.raw(), 0.0);
  EXPECT_DOUBLE_EQ(stations[0].power.raw(), -25.0);
  EXPECT_DOUBLE_EQ(stations[1].offset.raw(), -200e3);
  EXPECT_DOUBLE_EQ(stations[1].power.raw(), -50.0);
  EXPECT_DOUBLE_EQ(stations[2].offset.raw(), 400e3);
  EXPECT_DOUBLE_EQ(stations[3].offset.raw(), 800e3);
  // Distinct deterministic content per channel.
  std::set<std::uint64_t> seeds;
  for (const auto& st : stations) seeds.insert(st.config.seed);
  EXPECT_EQ(seeds.size(), stations.size());
  // A tighter cap trims the scene.
  EXPECT_EQ(stations_from_survey(city, 49, units::Hertz{300e3}).size(), 2U);
  // A survey that places no station is a misconfiguration, not an empty band.
  EXPECT_THROW(stations_from_survey(city, 0, units::Hertz{100e3}), std::invalid_argument);
}

// Regression: a surveyed channel outside the scene bandwidth must never be
// clamped or aliased onto a wrong in-scene carrier — it is excluded, and the
// exclusion is reported instead of silent.
TEST(ScenarioMultiStation, SurveyReportsTheStationsItCannotPlace) {
  survey::CitySpectrum city;
  city.name = "Testville";
  city.detectable_channels = {48, 49, 51, 53, 90};
  city.detectable_power_dbm = {-50.0, -25.0, -60.0, -40.0, -20.0};

  const SurveySceneReport report = stations_from_survey_report(city, 49);
  EXPECT_EQ(report.stations.size(), 4U);
  ASSERT_EQ(report.warnings.size(), 1U);  // channel 90, 8.2 MHz up-band
  EXPECT_NE(report.warnings[0].find("Testville@"), std::string::npos);
  EXPECT_NE(report.warnings[0].find("skipped"), std::string::npos);

  // A caller-supplied cap wider than the scene clamps to the scene: the
  // strong out-of-scene station stays excluded, never aliased in.
  const SurveySceneReport wide = stations_from_survey_report(city, 49, units::Hertz{100e6});
  EXPECT_EQ(wide.stations.size(), 4U);
  EXPECT_EQ(wide.warnings.size(), 1U);
  for (const ScenarioStation& st : wide.stations) {
    EXPECT_LE(std::abs(st.offset.raw()), kMaxStationOffsetHz);
  }
  // Every scene the report builds is one the engine accepts (nothing inside
  // can trip the engine's own offset validation).
  const SurveySceneReport tight = stations_from_survey_report(city, 49, units::Hertz{300e3});
  EXPECT_EQ(tight.stations.size(), 2U);
  EXPECT_EQ(tight.warnings.size(), 3U);  // channels 51, 53 and 90 trimmed

  // The plain vector API is the report's stations, warnings dropped.
  EXPECT_EQ(stations_from_survey(city, 49).size(), report.stations.size());
}

// ---- Validation ------------------------------------------------------------

TEST(ScenarioEngine, RejectsInconsistentScenarios) {
  const ScenarioEngine engine;
  // The station list is the only description of the band: a scene without
  // one has no ambient power anywhere, so it is rejected by name.
  Scenario no_stations;
  no_stations.receivers.emplace_back();
  no_stations.tags.emplace_back();
  try {
    engine.run(no_stations);
    ADD_FAILURE() << "an empty station list was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("stations"), std::string::npos)
        << e.what();
  }

  Scenario sc;
  sc.stations.push_back(make_station("st", 0.0, -30.0, 1,
                                     audio::ProgramGenre::kSilence));
  EXPECT_THROW(engine.run(sc), std::invalid_argument);  // no receivers

  sc.receivers.emplace_back();
  sc.duration = units::Seconds{0.0};
  EXPECT_THROW(engine.run(sc), std::invalid_argument);

  sc.duration = units::Seconds{0.1};
  ScenarioTag t;
  t.num_bits = 6400;  // 2 s at 3.2 kbps cannot fit in 0.1 s
  t.rate = tag::DataRate::k3200bps;
  sc.tags.push_back(t);
  EXPECT_THROW(engine.run(sc), std::invalid_argument);

  // A station carrier parked outside the 2.4 MHz scene would alias.
  Scenario wide;
  wide.receivers.emplace_back();
  wide.stations.push_back(make_station("edge", 1.2e6, -30.0, 1,
                                       audio::ProgramGenre::kSilence));
  EXPECT_THROW(engine.run(wide), std::invalid_argument);

  // A tag pinned to a station index the scene does not have.
  Scenario bad_index;
  bad_index.receivers.emplace_back();
  bad_index.stations.push_back(make_station("only", 0.0, -30.0, 1,
                                            audio::ProgramGenre::kSilence));
  ScenarioTag pinned;
  pinned.custom_baseband = dsp::rvec(1, 0.0F);
  pinned.station_index = 3;
  bad_index.tags.push_back(std::move(pinned));
  EXPECT_THROW(engine.run(bad_index), std::invalid_argument);
}

// Unit validation at the config boundary: durations and windows that the
// strong types can represent but the engine cannot honor are rejected before
// any rendering starts (previously a negative settle silently corrupted the
// timeline; a zero duration divided the goodput by zero).
TEST(ScenarioEngine, RejectsNonPositiveDurationAndNegativeSettle) {
  Scenario base;
  base.receivers.emplace_back();
  base.stations.push_back(make_station("st", 0.0, -30.0, 1,
                                       audio::ProgramGenre::kSilence));

  Scenario zero_duration = base;
  zero_duration.duration = units::Seconds{0.0};
  EXPECT_THROW(resolve_scenario_plan(zero_duration), std::invalid_argument);

  Scenario negative_duration = base;
  negative_duration.duration = units::Seconds{-0.5};
  EXPECT_THROW(resolve_scenario_plan(negative_duration), std::invalid_argument);

  Scenario negative_settle = base;
  negative_settle.duration = units::Seconds{0.2};
  negative_settle.settle = units::Seconds{-0.05};
  EXPECT_THROW(resolve_scenario_plan(negative_settle), std::invalid_argument);

  // The same shape with a legal settle resolves fine.
  Scenario ok = base;
  ok.duration = units::Seconds{0.2};
  ok.settle = units::Seconds{0.05};
  EXPECT_NO_THROW(resolve_scenario_plan(ok));

  // Non-finite values pass every check written as `x <= bound`; they are
  // rejected by name instead of running to nonsense BERs (or escaping as
  // std::length_error from a NaN-sized allocation).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Scenario with_tag = ok;
  with_tag.tags.emplace_back();
  ASSERT_NO_THROW(resolve_scenario_plan(with_tag));

  Scenario nan_position = with_tag;
  nan_position.tags[0].position.x_m = nan;
  EXPECT_THROW(resolve_scenario_plan(nan_position), std::invalid_argument);

  // Scene inputs are rejected before they select a station or index a link
  // table, with a message naming the entity and the field.
  auto expect_rejected = [](const Scenario& sc, const std::string& field) {
    try {
      resolve_scenario_plan(sc);
      ADD_FAILURE() << field << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  Scenario nan_station_position = with_tag;
  nan_station_position.stations[0].position = ScenePosition{nan, 0.0};
  expect_rejected(nan_station_position, "station \"st\" position");

  Scenario zero_distance = with_tag;
  zero_distance.tags[0].name = "t0";
  zero_distance.tags[0].distance_override = units::Feet{0.0};
  expect_rejected(zero_distance, "tag \"t0\" distance_override");

  Scenario negative_distance = zero_distance;
  negative_distance.tags[0].distance_override = units::Feet{-3.0};
  expect_rejected(negative_distance, "tag \"t0\" distance_override");

  // Station, program, tag and receiver levels: a NaN here used to run to a
  // BER near 0.5 (or no links at all), and a bad deviation surfaced only as
  // FmModulator's message, which names neither the station nor the field.
  Scenario zero_deviation = with_tag;
  zero_deviation.stations[0].config.deviation = units::Hertz{0.0};
  expect_rejected(zero_deviation, "station \"st\" config.deviation");

  Scenario negative_deviation = with_tag;
  negative_deviation.stations[0].config.deviation = units::Hertz{-75000.0};
  expect_rejected(negative_deviation, "station \"st\" config.deviation");

  Scenario nan_rds_level = with_tag;
  nan_rds_level.stations[0].config.rds_level = nan;
  expect_rejected(nan_rds_level, "station \"st\" config.rds_level");

  Scenario negative_ambience = with_tag;
  negative_ambience.stations[0].config.program.ambience_level = -0.01;
  expect_rejected(negative_ambience,
                  "station \"st\" config.program.ambience_level");

  Scenario nan_tag_level = zero_distance;
  nan_tag_level.tags[0].distance_override.reset();
  nan_tag_level.tags[0].level = nan;
  expect_rejected(nan_tag_level, "tag \"t0\" level");

#ifdef NDEBUG
  // Strong unit types assert finiteness at construction when assertions are
  // live, so a NaN Seconds/Dbm only reaches the plan in release builds.
  Scenario nan_duration = ok;
  nan_duration.duration = units::Seconds{nan};
  EXPECT_THROW(resolve_scenario_plan(nan_duration), std::invalid_argument);

  Scenario inf_settle = ok;
  inf_settle.settle = units::Seconds{std::numeric_limits<double>::infinity()};
  EXPECT_THROW(resolve_scenario_plan(inf_settle), std::invalid_argument);

  Scenario nan_start = with_tag;
  nan_start.tags[0].start = units::Seconds{nan};
  EXPECT_THROW(resolve_scenario_plan(nan_start), std::invalid_argument);

  Scenario nan_station_power = with_tag;
  nan_station_power.stations[0].power = units::Dbm{nan};
  expect_rejected(nan_station_power, "station \"st\" power");

  Scenario nan_offset = with_tag;
  nan_offset.stations[0].offset = units::Hertz{nan};
  expect_rejected(nan_offset, "station \"st\" offset");

  Scenario nan_distance = zero_distance;
  nan_distance.tags[0].distance_override = units::Feet{nan};
  expect_rejected(nan_distance, "tag \"t0\" distance_override");

  Scenario nan_noise = with_tag;
  nan_noise.receivers[0].name = "rx0";
  nan_noise.receivers[0].noise_200khz = units::Dbm{nan};
  expect_rejected(nan_noise, "receiver \"rx0\" noise_200khz");

  Scenario nan_deviation = with_tag;
  nan_deviation.stations[0].config.deviation = units::Hertz{nan};
  expect_rejected(nan_deviation, "station \"st\" config.deviation");

  Scenario nan_tune = with_tag;
  nan_tune.receivers[0].name = "rx0";
  nan_tune.receivers[0].tune_offset = units::Hertz{nan};
  expect_rejected(nan_tune, "receiver \"rx0\" tune_offset");

  Scenario nan_gain = with_tag;
  nan_gain.receivers[0].name = "rx0";
  nan_gain.receivers[0].rx_antenna_gain = units::Db{nan};
  expect_rejected(nan_gain, "receiver \"rx0\" rx_antenna_gain");

  Scenario nan_segment = with_tag;
  nan_segment.timeline.segment = units::Seconds{nan};
  expect_rejected(nan_segment, "timeline.segment");
#endif
}

}  // namespace
}  // namespace fmbs::core
