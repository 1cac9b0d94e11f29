// The benchmark's four workloads: trace generators, fleet configurations
// and one-pass runners over the program's public entry points
// (MultiInstanceRunner::RunAsync, ServingLoop::Run over InferenceBackend,
// and the cost-model fleet through MultiInstanceRunner::Run). METRICS.md
// says why each workload exists.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/model_config.h"
#include "probes.h"
#include "serve/async_serving.h"
#include "serve/inference_backend.h"
#include "serve/multi_instance.h"
#include "sim/cost_model.h"
#include "workload/request.h"

namespace perfbench {

using TokenMap = std::unordered_map<RequestId, std::vector<int32_t>>;

/// SLO of the cost-model runs (sim and the effective-throughput search):
/// the paper's ShareGPT setting on OPT-13B.
inline constexpr aptserve::SloSpec kPaperSlo{1.0, 1.0};

/// Token positions per cache block, on every instance and in the router's
/// affinity mirror.
inline constexpr int32_t kBlockSize = 16;
/// Threads per serving engine: one, because multi-threaded engines swung
/// +-15% between identical runs on the shared benchmark host.
inline constexpr int32_t kEngineThreads = 1;
/// Hidden-cache decode surcharge the Apt scheduler plans with (paper
/// Eq. 6), seconds per token.
inline constexpr double kRhoSecondsPerToken = 1e-5;

/// Everything that fixes a workload apart from its seed.
struct WorkloadSpec {
  std::string name;
  /// Open-loop real-time replay (chat, prefix) vs. virtual time.
  bool wall_clock = false;
  /// Real transformer instances (chat, prefix, offline) vs. cost model.
  bool engine = false;
  aptserve::ModelConfig model;
  int32_t instances = 1;
  aptserve::RoutePolicy route_policy = aptserve::RoutePolicy::kRoundRobin;
  int32_t num_blocks = 0;
  bool prefix_sharing = false;
  aptserve::SloSpec slo;
  /// Offered request rate (open-loop workloads and sim); 0 = all at t=0.
  double rate_rps = 0.0;
  /// Fixed request count (offline, sim; per sub-trace); 0 = rate * seconds.
  int32_t num_requests = 0;
  double arrival_cv = 1.0;
  /// Passes a run measures at least, whatever `--seconds` allows: offline
  /// reports the median of three, sim of two.
  int32_t min_passes = 1;
  /// Independent traces a seed expands to (sim); passes cycle through
  /// them, so pass time is a median over draws, not one draw's cost.
  int32_t sub_traces = 1;
  /// Pass times are scaled to the reference host speed by the yardstick
  /// timed before them (sim; set-up times are scaled on every workload;
  /// METRICS.md, "Host speed").
  bool host_normalized = false;
};

/// Seed of sub-trace `k` of a run seeded `seed`: distinct for every pair
/// with k < 64.
inline uint64_t SubTraceSeed(uint64_t seed, int32_t k) {
  return seed * 64 + static_cast<uint64_t>(k);
}

/// Looks up a workload by name ("chat", "prefix", "offline", "sim").
aptserve::StatusOr<WorkloadSpec> FindWorkload(const std::string& name);

/// The seeded request trace of one run. `seconds` sizes the open-loop
/// traces (rate * seconds requests over a span of `seconds`).
aptserve::StatusOr<std::vector<aptserve::Request>> BuildWorkloadTrace(
    const WorkloadSpec& spec, uint64_t seed, double seconds);

/// The cost-model request mix of every workload's effective-throughput
/// search (and of the engine workloads' latency readout): sim's ShareGPT
/// lengths and bursty Gamma arrivals, at rate 1.
aptserve::StatusOr<std::vector<aptserve::Request>> BuildMixTrace(
    uint64_t seed);

aptserve::SchedulerFactory AptFactory(const aptserve::SloSpec& slo);
aptserve::RouterConfig RouterFor(const WorkloadSpec& spec);

/// The cost model pricing the sim fleet and the effective-throughput
/// search: OPT-13B on its Table 2 cluster.
const aptserve::CostModel& PaperCostModel();

/// One real-transformer instance. `virtual_timing` gives the
/// deterministic reference timeline; `sink` receives finished token
/// streams.
std::unique_ptr<aptserve::ExecutionBackend> MakeEngine(
    const WorkloadSpec& spec, bool virtual_timing, bool prefix_sharing,
    int32_t threads, TokenMap* sink);

/// Everything built before the first request is released (timed as
/// set-up): the trace, the instances and the runner.
struct Prepared {
  std::vector<aptserve::Request> trace;
  std::vector<std::unique_ptr<aptserve::ExecutionBackend>> backends;
  /// Per-instance finished token streams (engine workloads).
  std::unique_ptr<std::vector<TokenMap>> sinks;
  std::unique_ptr<aptserve::MultiInstanceRunner> runner;
};

aptserve::StatusOr<Prepared> Prepare(const WorkloadSpec& spec, uint64_t seed,
                                     double seconds);

/// What one measured pass produced.
struct Pass {
  bool traced = false;
  double wall_s = 0.0;
  /// Process CPU seconds of the pass (every thread the run started).
  double cpu_s = 0.0;
  /// steady_clock seconds at the entry-point call: the due-time epoch of
  /// open-loop arrivals.
  double epoch = 0.0;
  double cpu_epoch = 0.0;
  std::unique_ptr<ProbeSet> probes;
  int64_t sent = 0;
  int64_t finished = 0;
  int64_t rejected = 0;
  int64_t tokens_generated = 0;
  TokenMap tokens;
  aptserve::SloReport program_report;
  aptserve::PrefixStats prefix;
  int64_t prefill_computed = 0;
  int64_t prefill_skipped = 0;
  size_t queue_high_water = 0;
  int64_t shed_migrations = 0;
  /// Traced async passes: wall lateness of each routing decision behind
  /// its due time, seconds.
  std::vector<double> route_late_s;

  void Start() {
    epoch = NowS();
    cpu_epoch = CpuS();
  }
  void Stop() {
    wall_s = NowS() - epoch;
    cpu_s = CpuS() - cpu_epoch;
  }
};

/// Runs one pass over `prepared` (consumed).
aptserve::StatusOr<Pass> RunPass(const WorkloadSpec& spec, Prepared prepared,
                                 bool timed, double seconds);

/// Virtual-time fleet run of `trace` over fresh engines (the token
/// reference of the open-loop workloads). Greedy token streams land in the
/// returned map.
aptserve::StatusOr<TokenMap> VirtualEngineTokens(
    const WorkloadSpec& spec, const std::vector<aptserve::Request>& trace,
    bool prefix_sharing);

/// Cost-model fleet of the workload's width over `trace`, in virtual time,
/// with `probes` (if any) wrapped around each instance.
aptserve::StatusOr<aptserve::MultiInstanceResult> RunCostModelFleet(
    const WorkloadSpec& spec, const std::vector<aptserve::Request>& trace,
    int32_t fleet_threads, ProbeSet* probes = nullptr);

/// The same run with loop-frame probes attached: the latency and SLO
/// readout of the engine workloads.
aptserve::StatusOr<Pass> RunCostModelPass(
    const WorkloadSpec& spec, const std::vector<aptserve::Request>& trace);

}  // namespace perfbench
