// The one block-render pipeline behind both scenario engines. It resolves
// a scenario's plan, then renders the shared RF scene 0.1 s at a time —
// station sources, compact tag burst waveforms, reflection and fading,
// superposition, receiver noise and tuners — and runs each receiver's tuned
// block through its own decode chain (FM discriminator, stereo decoder,
// device chain, FSK and RDS window collectors) into one ScenarioResult.
//
// Two drivers move blocks from the renderer to the decoders:
// core::ScenarioEngine decodes every block inline on the calling thread;
// core::StreamingEngine publishes blocks into a ring that consumer threads
// drain.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/scenario.h"
#include "core/streaming.h"
#include "dsp/types.h"
#include "fm/constants.h"
#include "fm/station_cache.h"

namespace fmbs::core {

/// Block geometry of the pipeline: 0.1 s of MPX-rate samples per block.
inline constexpr std::size_t kBlockMpx = 24000;
inline constexpr double kBlockSeconds =
    static_cast<double>(kBlockMpx) / fm::kMpxRate;

/// MPX kept past an RDS burst's nominal end when decoding it: covers the
/// front-end group delay, like rx::kBurstTailSlackSeconds for FSK bursts.
inline constexpr double kRdsDecodeSlackSeconds = 0.02;

/// How one pipeline run renders and decodes. The defaults are exact mode:
/// one full-run render per station, global decisions over the whole run.
struct ScenePipelineOptions {
  SceneRendering scene_rendering = SceneRendering::kSparse;
  /// StreamingConfig's bounds; no horizon = one exact render per station.
  std::optional<units::Seconds> station_horizon;
  units::Seconds decision_window{-1.0};
  /// Keep every receiver's full capture (ScenarioReceiverResult::capture).
  bool keep_captures = false;
  /// Live decode events, called from whichever thread decodes the receiver.
  std::function<void(const StreamingLinkEvent&)> on_link;
};

struct PipelineStation;
struct PipelineTag;
struct ReceiverFrontEnd;
struct ReceiverStream;

class ScenePipeline {
 public:
  /// Resolves the plan (throws std::invalid_argument on inconsistent
  /// scenarios), pins the station renders and sets up every front end and
  /// decode chain. `scenario` must outlive the pipeline.
  ScenePipeline(const Scenario& scenario, ScenePipelineOptions options);
  ~ScenePipeline();

  ScenePipeline(const ScenePipeline&) = delete;
  ScenePipeline& operator=(const ScenePipeline&) = delete;

  /// Bytes of every buffer whose lifetime spans the run, except captures
  /// and the driver's own block buffers. None scales with the run duration.
  std::size_t buffer_bytes() const { return buffer_bytes_; }

  /// The producer: renders every block in order, once. For each block,
  /// `acquire(index)` returns the per-receiver destination of its tuned IQ
  /// (nullptr stops rendering) and `publish(index)` follows once it is
  /// filled.
  void render(
      const std::function<std::vector<dsp::cvec>*(std::size_t)>& acquire,
      const std::function<void(std::size_t)>& publish);

  /// Decodes receiver `r`'s tuned IQ of block `index`. Blocks of one
  /// receiver must arrive in order on one thread at a time; different
  /// receivers may decode concurrently.
  void consume(std::size_t r, std::size_t index,
               std::span<const dsp::cfloat> iq);

  /// End of stream for receiver `r`: flushes its decoders and scores every
  /// still-open window. Call once, after its last block.
  void drain(std::size_t r);

  /// Assembles the result once every receiver is drained.
  ScenarioResult finish();

 private:
  const Scenario& scenario_;
  ScenePipelineOptions options_;
  ScenarioPlan plan_;
  // Scene renders stay pinned for the pipeline's whole lifetime: the
  // renderer re-reads them on every block, so mid-run eviction would be a
  // use-after-free, not just a cache miss.
  fm::StationCache::SceneScope scope_;
  ScenePruning pruning_;
  ScenarioResult result_;
  bool loop_mode_ = false;
  std::size_t content_len_ = 0;
  std::size_t num_blocks_ = 0;
  std::size_t buffer_bytes_ = 0;
  std::vector<PipelineStation> stations_;
  std::vector<PipelineTag> tags_;
  std::vector<ReceiverFrontEnd> front_ends_;  // renderer side
  std::vector<std::unique_ptr<ReceiverStream>> streams_;  // decoder side
};

}  // namespace fmbs::core
