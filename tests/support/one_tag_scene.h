// Shared helper for the single-link physics tests: one tag backscattering the
// scene-center station into one phone, written out field by field so each
// test states exactly the scene it measures.
#pragma once

#include "channel/link_budget.h"
#include "core/scenario.h"
#include "dsp/types.h"

namespace fmbs::test {

/// A one-tag, one-phone Scenario: `baseband` (FM_back at the MPX rate) as the
/// tag's always-on switch waveform, one far-field station at `tag_power`,
/// `distance` from tag to phone, no settle window, and noise seed 42 (fading
/// seed 43). The receiver noise floor is pinned to the phone's, so switching
/// `receivers[0].kind` to a car changes only the device chain. Tests adjust
/// the station (`sc.stations[0]`) and the entities before running it.
inline core::Scenario one_tag_scene(const dsp::rvec& baseband,
                                    units::Seconds duration,
                                    units::Dbm tag_power,
                                    units::Feet distance) {
  core::Scenario sc;
  sc.settle = units::Seconds{0.0};
  sc.duration = duration;
  sc.seed = 42;
  core::ScenarioStation station;
  station.power = tag_power;
  sc.stations = {station};

  core::ScenarioTag t;
  t.custom_baseband = baseband;
  t.distance_override = distance;
  t.fading_seed = 43;
  sc.tags.push_back(std::move(t));

  core::ScenarioReceiver rx = core::phone_listening_to(sc.tags[0].subcarrier);
  rx.noise_200khz = channel::ReceiverNoise::kPhonePer200kHz;
  rx.noise_seed = 42;
  sc.receivers.push_back(std::move(rx));
  return sc;
}

}  // namespace fmbs::test
