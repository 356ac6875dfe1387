// Wall clock, peak-RSS watermark and run hygiene shared by the timed and
// the traced runs.
#pragma once

#include <chrono>
#include <cstddef>
#include <optional>

namespace perfbench {

/// Monotonic wall clock in seconds. Timings only: nothing derived from it
/// reaches a sample or a seed.
inline double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User and system CPU seconds this process (all threads) has used.
struct CpuTimes {
  double user = 0.0;
  double system = 0.0;
};
CpuTimes cpu_times();

/// Resets the kernel's peak-RSS watermark (VmHWM) to the current RSS.
/// False when /proc/self/clear_refs is not writable.
bool reset_peak_rss();

/// VmHWM of this process in MiB, if /proc/self/status has it.
std::optional<double> peak_rss_mb();

/// Clears fm::StationCache and its hit/miss statistics, so a timed run pays
/// for (and counts) its own station renders.
void reset_station_cache();

}  // namespace perfbench
