// sweep: config-driven experiment harness (bench/sweep/). One invocation
// runs all three stages: expand + execute the matrix (bounded concurrency,
// resumable), aggregate finished runs into runs.csv, and render the static
// HTML report.
//
//   sweep --config bench/experiments/smoke.json --jobs 2 --resume
//   sweep --config bench/experiments/paper_table.json --dry_run
//   sweep --config bench/experiments/ext_fleet_elasticity.json --trace
//
// Exit status: 0 when every planned cell succeeded (or was skipped by
// --resume), 1 on harness errors or any failed cell.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/sweep/collect.h"
#include "bench/sweep/config.h"
#include "bench/sweep/report.h"
#include "bench/sweep/runner.h"

namespace {

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --config <file.json> [options]\n"
      "  --config <path>    experiment config (required)\n"
      "  --jobs <n>         cells in flight at once (overrides config)\n"
      "  --out_root <dir>   output root (overrides config)\n"
      "  --resume           skip cells whose meta.json matches and whose\n"
      "                     result.json exists\n"
      "  --dry_run          print the expanded plan, execute nothing\n"
      "  --fail_fast        stop launching cells after the first failure\n"
      "  --quiet            suppress per-cell progress lines\n"
      "  --trace            each cell also writes trace.json (Chrome\n"
      "                     trace, checked) and metrics.prom; not with\n"
      "                     --resume\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using aptserve::sweep::SweepOptions;
  std::string config_path;
  SweepOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--config") {
      config_path = next();
    } else if (arg == "--jobs") {
      options.jobs_override = std::atoi(next());
    } else if (arg == "--out_root") {
      options.out_root_override = next();
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (arg == "--dry_run") {
      options.dry_run = true;
    } else if (arg == "--fail_fast") {
      options.fail_fast = true;
    } else if (arg == "--quiet") {
      options.verbose = false;
    } else if (arg == "--trace") {
      options.trace = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      Usage(argv[0]);
      return 1;
    }
  }
  if (config_path.empty()) {
    Usage(argv[0]);
    return 1;
  }

  auto config = aptserve::sweep::LoadSweepConfigFile(config_path);
  if (!config.ok()) {
    std::fprintf(stderr, "sweep: %s\n", config.status().ToString().c_str());
    return 1;
  }
  auto run = aptserve::sweep::RunSweep(*config, options);
  if (!run.ok()) {
    std::fprintf(stderr, "sweep: %s\n", run.status().ToString().c_str());
    return 1;
  }
  if (options.dry_run) return 0;

  auto runs = aptserve::sweep::CollectAndWriteCsv(run->exp_dir);
  if (!runs.ok()) {
    std::fprintf(stderr, "collect: %s\n", runs.status().ToString().c_str());
    return 1;
  }
  const auto report_status =
      aptserve::sweep::WriteReport(config->name, *runs, run->exp_dir);
  if (!report_status.ok()) {
    std::fprintf(stderr, "report: %s\n",
                 report_status.ToString().c_str());
    return 1;
  }
  std::printf("sweep: wrote %s/aggregate/runs.csv and %s/report/index.html\n",
              run->exp_dir.c_str(), run->exp_dir.c_str());
  return run->failed == 0 ? 0 : 1;
}
