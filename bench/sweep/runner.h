// Sweep execution: runs every expanded RunCell in-process through the
// Router + MultiInstanceRunner + CostModelBackend stack, with bounded
// concurrency on the runtime ThreadPool. Each cell owns one directory
// under <exp_dir>/runs/<run_id>/ holding meta.json (the resolved cell plus
// the environment stamp) and result.json (the metrics readout). --resume
// skips a cell iff its meta.json "cell" subtree equals the freshly
// expanded cell AND result.json parses — so editing any knob reruns
// exactly the cells it touches, and a crashed cell (meta written, result
// missing) reruns too.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/sweep/config.h"
#include "common/json.h"
#include "common/status.h"
#include "sim/metrics.h"
#include "sim/scheduler.h"

namespace aptserve {
namespace sweep {

struct SweepOptions {
  /// > 0 overrides the config's jobs (cells in flight at once).
  int32_t jobs_override = 0;
  bool resume = false;
  /// Print the expanded plan (one line per cell) and execute nothing.
  bool dry_run = false;
  /// Stop launching new cells after the first failure.
  bool fail_fast = false;
  /// Non-empty overrides the config's out_root.
  std::string out_root_override;
  /// Per-cell progress lines on stderr.
  bool verbose = true;
};

struct CellOutcome {
  enum class State { kRan, kSkipped, kFailed, kNotRun };
  std::string run_id;
  State state = State::kNotRun;
  std::string error;  ///< set for kFailed
};

struct SweepRunResult {
  std::string exp_dir;
  int64_t planned = 0;
  int64_t executed = 0;
  int64_t skipped = 0;  ///< resume hits
  int64_t failed = 0;
  /// Per-cell outcomes in plan order.
  std::vector<CellOutcome> outcomes;
};

/// Expands the matrix and executes (or, with dry_run, prints) it.
/// Individual cell failures are recorded, not propagated — the returned
/// Status is only for harness-level errors (bad config, unwritable
/// output). Prints the machine-checkable summary line
/// "sweep: executed E skipped S failed F of N cells" at the end.
StatusOr<SweepRunResult> RunSweep(const SweepConfig& config,
                                  const SweepOptions& options);

/// Executes one cell in-process and returns its result document. Exposed
/// for sweep_test so cell metrics can be checked without a directory tree.
StatusOr<json::JsonValue> ExecuteCell(const RunCell& cell);

/// The one table of scheduler names ("vLLM", "Apt", "Apt-S", ...): sweep
/// config validation, every sweep cell and the bench programs build their
/// schedulers here. Unknown kinds are InvalidArgument.
StatusOr<std::unique_ptr<Scheduler>> MakeSchedulerByName(
    const std::string& kind, const SloSpec& slo);

}  // namespace sweep
}  // namespace aptserve
