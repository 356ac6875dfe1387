// `perfbench selftest`: the outcome guards must reject each broken
// condition, seeds must drive every derived seed, and the traced replay of a
// short city scene must match its expected sample counts exactly and decode
// the engine's links bit for bit.
#pragma once

namespace perfbench {

/// Runs every self-check, printing one PASS/FAIL line each; true when all
/// pass.
bool run_selftest();

}  // namespace perfbench
