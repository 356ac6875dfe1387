// perfbench: the repository benchmark's measuring binary. perfbench/run.py
// builds and drives it; it can also be run directly:
//
//   perfbench timed --workload <name> --seed <n>
//       one untraced engine run (run.py starts a fresh process per run)
//   perfbench trace --workload <name> --seed <n>
//       one traced run: per-stage replay plus fleet/cache counts
//   perfbench selftest
//       guard and trace self-checks; exit code 0 when all pass
//   perfbench context
//       the build context (build type, compiler, SIMD) as JSON
//
// Workloads: city-stream, fleet-contested, fleet-analytic (see
// perfbench/METRICS.md). Records go to stdout, one JSON object per line.
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "json.h"
#include "selftest.h"
#include "timed.h"
#include "trace.h"
#include "workloads.h"

namespace {

using namespace perfbench;

JsonObject build_context() {
  JsonObject ctx;
  ctx.str("build_type", PERFBENCH_BUILD_TYPE)
      .str("compiler", PERFBENCH_COMPILER)
      .str("cxx_flags", PERFBENCH_CXX_FLAGS)
      .boolean("fmbs_simd", PERFBENCH_SIMD != 0);
  return ctx;
}

bool release_build() { return std::string(PERFBENCH_BUILD_TYPE) == "Release"; }

JsonObject timed_record(Workload w, std::uint64_t seed, const TimedRun& run) {
  JsonObject stats;
  stats.integer("links", static_cast<long long>(run.links))
      .integer("cache_hits", static_cast<long long>(run.cache.hits))
      .integer("cache_misses", static_cast<long long>(run.cache.misses))
      .integer("phy_clusters", static_cast<long long>(run.fleet.phy_clusters))
      .integer("phy_links", static_cast<long long>(run.fleet.phy_links))
      .integer("analytic_clear",
               static_cast<long long>(run.fleet.analytic_clear))
      .integer("analytic_collision",
               static_cast<long long>(run.fleet.analytic_collision))
      .integer("links_total", static_cast<long long>(run.fleet.links_total));
  JsonObject rec;
  rec.str("kind", "timed")
      .str("workload", workload_name(w))
      .integer("seed", static_cast<long long>(seed))
      .num("sim_s", run.sim_seconds)
      .num("engine_s", run.engine_seconds)
      .num("rtf", run.rtf)
      .num("engine_cpu_user_s", run.engine_cpu.user)
      .num("engine_cpu_sys_s", run.engine_cpu.system)
      .num("first_link_s", run.first_link_seconds)
      .num("peak_rss_mb", run.peak_rss_mb)
      .num("setup_s", run.setup_seconds)
      .numbers("setup_samples_s", run.setup_samples)
      .boolean("ok", run.verdict.ok())
      .strings("failures", run.verdict.failures)
      .object("stats", stats);
  return rec;
}

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
};

Args parse_args(int argc, char** argv) {
  Args a;
  if (argc < 2) throw std::invalid_argument("missing mode");
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.mode == "context") {
      std::cout << build_context().str() << "\n";
      return 0;
    }
    if (!release_build()) {
      std::cerr << "perfbench: refusing to measure a " << PERFBENCH_BUILD_TYPE
                << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
      return 3;
    }
    if (args.mode == "selftest") return run_selftest() ? 0 : 1;
    const Workload w = parse_workload(args.workload);
    if (args.mode == "timed") {
      const TimedRun run = run_timed(w, args.seed, kSetupBudgetSeconds);
      std::cout << timed_record(w, args.seed, run).str() << std::endl;
      return 0;
    }
    if (args.mode == "trace") {
      std::cout << run_trace(w, args.seed).str() << std::endl;
      return 0;
    }
    throw std::invalid_argument("unknown mode " + args.mode);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
