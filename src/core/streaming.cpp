#include "core/streaming.h"

#include <chrono>
#include <cmath>
#include <cstddef>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/scene_pipeline.h"
#include "dsp/ring_buffer.h"

namespace fmbs::core {

namespace {

/// One published ring slot: the tuned post-channel IQ of every receiver for
/// one 0.1 s block. The renderer refills the same vectors in place, so the
/// steady state allocates nothing.
struct StreamBlock {
  std::size_t index = 0;
  std::vector<dsp::cvec> iq;  // [receiver][kBlockMpx]
};

}  // namespace

StreamingEngine::StreamingEngine(StreamingConfig config)
    : config_(std::move(config)) {
  if (config_.consumer_threads == 0) {
    throw std::invalid_argument("StreamingEngine: consumer_threads must be > 0");
  }
  if (config_.ring_blocks == 0) {
    throw std::invalid_argument("StreamingEngine: ring_blocks must be > 0");
  }
  // NaN compares false against every bound: a NaN horizon would silently
  // turn loop mode off, and memory would grow with the run.
  const double horizon = config_.station_horizon.raw();
  if (!std::isfinite(horizon) || horizon <= 0.0) {
    throw std::invalid_argument(
        "StreamingEngine: station_horizon must be finite and > 0");
  }
  if (!std::isfinite(config_.decision_window.raw())) {
    throw std::invalid_argument(
        "StreamingEngine: decision_window must be finite");
  }
}

ScenarioResult StreamingEngine::run(const Scenario& sc) const {
  ScenePipeline pipeline(sc, {.scene_rendering = config_.scene_rendering,
                              .station_horizon = config_.station_horizon,
                              .decision_window = config_.decision_window,
                              .keep_captures = false,
                              .on_link = config_.on_link});
  const std::size_t num_consumers = config_.consumer_threads;
  const std::size_t num_receivers = sc.receivers.size();
  dsp::RingBuffer<StreamBlock> ring(config_.ring_blocks, num_consumers);

  std::vector<std::exception_ptr> errors(num_consumers + 1);
  std::vector<std::thread> workers;
  workers.reserve(num_consumers);
  for (std::size_t k = 0; k < num_consumers; ++k) {
    workers.emplace_back([&, k] {
      try {
        while (StreamBlock* blk = ring.consumer_acquire(k)) {
          for (std::size_t r = k; r < num_receivers; r += num_consumers) {
            pipeline.consume(r, blk->index, blk->iq[r]);
          }
          ring.consumer_release(k);
        }
        if (!ring.stopped()) {
          for (std::size_t r = k; r < num_receivers; r += num_consumers) {
            pipeline.drain(r);
          }
        }
      } catch (...) {
        errors[k + 1] = std::current_exception();
        ring.stop();
      }
    });
  }

  // The calling thread renders the scene block by block into the ring,
  // optionally paced to one block per block-length of wall clock.
  try {
    const auto t0 = std::chrono::steady_clock::now();  // fmbs-lint: allow(wall-clock-seed) real_time pacing only delays block publication, never feeds a sample or seed
    pipeline.render(
        [&](std::size_t index) -> std::vector<dsp::cvec>* {
          if (config_.real_time) {
            std::this_thread::sleep_until(
                t0 + std::chrono::duration<double>(
                         static_cast<double>(index) * kBlockSeconds));
          }
          StreamBlock* slot = ring.producer_acquire();
          if (slot == nullptr) return nullptr;  // a consumer failed
          slot->index = index;
          return &slot->iq;
        },
        [&](std::size_t) { ring.producer_publish(); });
    ring.finish();
  } catch (...) {
    errors[0] = std::current_exception();
    ring.stop();
  }

  for (std::thread& w : workers) w.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  ScenarioResult result = pipeline.finish();
  // The bounded-buffer ledger: the ring's slots plus everything the
  // pipeline buffers for the whole run. None of it scales with the run
  // duration — the property the soak tests pin via this field.
  result.scene.streaming_peak_buffer_bytes =
      config_.ring_blocks * num_receivers * kBlockMpx * sizeof(dsp::cfloat) +
      pipeline.buffer_bytes();
  return result;
}

}  // namespace fmbs::core
