// Sweep execution: runs every expanded RunCell in-process through the
// FleetController + CostModelBackend stack, with bounded concurrency on
// the runtime ThreadPool. Each cell owns one directory under
// <exp_dir>/runs/<run_id>/ holding meta.json (the resolved cell plus the
// environment stamp), requests.csv (one row per served request) and
// result.json (the metrics readout). --resume skips a cell iff its
// meta.json "cell" subtree equals the freshly expanded cell AND
// result.json parses — so editing any knob reruns exactly the cells it
// touches, and a crashed cell (meta written, result missing) reruns too.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/sweep/config.h"
#include "cache/cache_types.h"
#include "common/json.h"
#include "common/status.h"
#include "obs/trace_recorder.h"
#include "serve/fleet_controller.h"
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
  /// Each cell also writes trace.json (the Chrome trace of its request
  /// lifecycle; a trace that dropped events or that CheckTraceEvents
  /// rejects fails the cell) and metrics.prom (its metrics registry in
  /// Prometheus text). Rejected together with `resume`: a skipped cell
  /// would have no trace.
  bool trace = false;
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

/// One executed cell: the fleet's result plus what result.json and
/// requests.csv read beyond it.
struct CellRun {
  /// Requests in the cell's trace (admitted or not).
  int64_t requests = 0;
  MultiInstanceResult fleet;
  /// Every instance's per-request records, moved out of
  /// fleet.records_per_instance into one map.
  std::unordered_map<RequestId, RequestRecord> records;
  /// Blocks per instance pool (CostModelBackend::DerivePoolBlocks).
  int32_t pool_blocks = 0;
  /// Largest per-instance peak of allocated blocks, and swap-ins summed
  /// over the fleet (the aptserve_pool_blocks_peak and
  /// aptserve_swap_ins_total series of the fleet's metrics registry).
  int32_t peak_blocks = 0;
  int64_t swap_ins = 0;
  /// Fleet size, scaling and migration accounting.
  FleetMetrics fleet_metrics;
  /// The fleet's metrics registry in Prometheus text; set only for a
  /// traced run.
  std::string metrics_prom;
};

/// Executes one cell in-process on a FleetController over cost-model
/// backends. Exposed so tests can check a cell without a directory tree.
/// With `trace_recorder` set, the fleet records its request lifecycle
/// there (purely observational: the result is unchanged) and
/// `metrics_prom` is filled.
StatusOr<CellRun> ExecuteCell(const RunCell& cell,
                              obs::TraceRecorder* trace_recorder = nullptr);

/// The `cache_encoding` cell key's values: "fp32", "int8-transit" (fp32
/// tiers, int8 migration payloads) or "all-int8" (int8 KV and hidden
/// tiers). Unknown names are InvalidArgument.
StatusOr<CacheEncodingPolicy> CacheEncodingByName(const std::string& name);

/// The one table of scheduler names ("vLLM", "Apt", "Apt-S", ...): sweep
/// config validation, every sweep cell and the bench programs build their
/// schedulers here. `violation_decay` reaches Apt, Apt-KVonly and Apt-S,
/// `prediction_quantile` (0 = off) Apt and Apt-KVonly; the other
/// schedulers ignore both. Unknown kinds are InvalidArgument.
StatusOr<std::unique_ptr<Scheduler>> MakeSchedulerByName(
    const std::string& kind, const SloSpec& slo, double violation_decay = 0.0,
    double prediction_quantile = 0.0);

}  // namespace sweep
}  // namespace aptserve
