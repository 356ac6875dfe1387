#include "measure.h"

#include <sys/resource.h>

#include <fstream>
#include <sstream>
#include <string>

#include "fm/station_cache.h"

namespace perfbench {

namespace {

/// A "<field>: <n> kB" line of /proc/self/status, in KiB.
std::optional<double> status_kb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      std::istringstream fields(line.substr(field.size() + 1));
      double kb = 0.0;
      if (fields >> kb && kb > 0.0) return kb;
      return std::nullopt;
    }
  }
  return std::nullopt;
}

}  // namespace

CpuTimes cpu_times() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return CpuTimes{seconds(usage.ru_utime), seconds(usage.ru_stime)};
}

bool reset_peak_rss() {
  {
    std::ofstream clear_refs("/proc/self/clear_refs");
    if (!clear_refs) return false;
    clear_refs << "5";  // "5" resets VmHWM to the current RSS
    clear_refs.flush();
    if (!clear_refs) return false;
  }
  // Verify rather than trust the write: after a reset the watermark sits at
  // the resident set (1 MiB slack for pages touched since).
  const std::optional<double> hwm = status_kb("VmHWM");
  const std::optional<double> rss = status_kb("VmRSS");
  return hwm && rss && *hwm <= *rss + 1024.0;
}

std::optional<double> peak_rss_mb() {
  const std::optional<double> kb = status_kb("VmHWM");
  if (!kb) return std::nullopt;
  return *kb / 1024.0;
}

void reset_station_cache() {
  fmbs::fm::StationCache& cache = fmbs::fm::StationCache::instance();
  cache.clear();
  cache.reset_stats();
}

}  // namespace perfbench
