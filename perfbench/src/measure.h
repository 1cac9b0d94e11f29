// Turns passes into numbers: request-level latency and SLO outcomes from
// the probes' token logs, the per-layer readout of a traced pass, the
// router replay, the effective-throughput search, and the measured
// properties of a workload's trace.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/stats.h"
#include "workloads.h"

namespace perfbench {

struct Metric {
  double value;
  const char* unit;
};
using Metrics = std::map<std::string, Metric>;

/// Request-level outcome of one pass.
struct Outcome {
  /// Per request, seconds; open-loop workloads time TTFT from the due
  /// time, not from the release.
  std::vector<double> ttft_s;
  /// Every gap between consecutive output tokens, seconds.
  std::vector<double> tbt_s;
  /// Requests that finished with the right tokens and met both limits.
  int64_t slo_met = 0;
  /// Requests outside `bad` whose observed token count differs from their
  /// output length.
  int64_t lost = 0;
  int64_t tokens_observed = 0;
};

/// Judges every request of `trace` from the pass's token log against
/// `slo`. `bad` lists requests already known to have failed (diverged
/// tokens); they count as SLO misses.
Outcome Derive(const std::vector<aptserve::Request>& trace, const Pass& pass,
               const aptserve::SloSpec& slo,
               const std::unordered_set<RequestId>& bad);

/// q-quantile of `v`, interpolating linearly between ranks.
double Quantile(const std::vector<double>& v, double q);

struct RouterReplay {
  double route_us = 0.0;
  double probes_per_decision = 0.0;
  double affinity_hit_share = 0.0;
  double load_imbalance = 0.0;
};

/// Times Router::MakeState + RouteOne over `trace` with the workload's
/// router configuration (median of several replays).
RouterReplay ReplayRouter(const WorkloadSpec& spec,
                          const std::vector<aptserve::Request>& trace);

/// Highest offered rate (requests/s) at which the cost-model fleet of the
/// workload's width serves `mix` (arrivals at rate 1) with SLO attainment
/// >= 0.9, to 1% resolution.
aptserve::StatusOr<double> EffectiveRps(
    const WorkloadSpec& spec, const std::vector<aptserve::Request>& mix);

/// Per-layer metrics of a traced pass (names as in METRICS.md).
Metrics LayerMetrics(
    const WorkloadSpec& spec, const std::vector<aptserve::Request>& trace,
    const Pass& pass);

/// Measured properties of a trace that results may depend on.
std::map<std::string, double> TraceProperties(
    const std::vector<aptserve::Request>& trace);

/// Median of `v` (0 when empty).
double Median(std::vector<double> v);

/// Process CPU seconds of a fixed yardstick that runs no program code
/// (hash-map inserts and lookups and a sort, integer and branch bound like
/// the simulator). Host-normalised workloads time it next to every pass
/// and set-up (METRICS.md, "Host speed").
double YardstickS();

/// Yardstick time of the reference host speed: a host-normalised time t
/// measured while the yardstick took y reads t * kYardstickReferenceS / y.
inline constexpr double kYardstickReferenceS = 0.02;

}  // namespace perfbench
