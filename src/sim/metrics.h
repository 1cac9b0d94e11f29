// Serving metrics: per-request TTFT / TBT records, SLO attainment, and the
// system-level "time at batch-size limit" ratio of paper Figure 2.
//
// Per-token cost contract (the serving loop calls into this on every
// emitted token): the loop resolves a request's RequestRecord once, keeps
// the pointer, and stamps tokens straight into it. The collector keeps no
// clock of its own — the previous-token time a TBT gap is measured from is
// owned by the caller (SimRequest::last_token_time), which is also what
// travels with a migrating request.
#pragma once

#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "common/types.h"
#include "workload/request.h"

namespace aptserve {

/// Latency Service-Level Objectives (paper Table 3): TTFT bound and the
/// bound on each request's 99th-percentile TBT.
struct SloSpec {
  double ttft_s = 1.0;
  double tbt_p99_s = 1.0;
};

struct RequestRecord {
  Request spec;
  double ttft = -1.0;                ///< seconds; -1 if no token emitted.
  std::vector<double> tbt_samples;   ///< gaps between consecutive tokens.
  TimePoint finish_time = -1.0;

  /// Records a token emitted at `now`. The first token sets TTFT; later
  /// ones append the TBT gap `now - prev_token`, where `prev_token` is the
  /// caller's time of the request's previous token (ignored for the first).
  void OnToken(TimePoint now, TimePoint prev_token) {
    if (ttft < 0) {
      ttft = now - spec.arrival;
    } else {
      tbt_samples.push_back(now - prev_token);
    }
  }

  /// 99th-percentile gap between consecutive tokens; 0 without gaps.
  double P99Tbt() const;
  /// P99Tbt() selecting through `scratch` (reused across records; its
  /// contents are overwritten).
  double P99Tbt(std::vector<double>* scratch) const;
  /// Effective deadlines: the request's own SLO when set (>= 0), else the
  /// run-level spec. A deadline exactly met (ttft == bound) counts as met.
  double TtftBound(const SloSpec& slo) const {
    return spec.slo_ttft_s >= 0 ? spec.slo_ttft_s : slo.ttft_s;
  }
  double TbtBound(const SloSpec& slo) const {
    return spec.slo_tbt_p99_s >= 0 ? spec.slo_tbt_p99_s : slo.tbt_p99_s;
  }
  bool MeetsTtft(const SloSpec& slo) const {
    return ttft >= 0 && ttft <= TtftBound(slo);
  }
  bool MeetsTbt(const SloSpec& slo) const {
    return TbtWithin(P99Tbt(), slo);
  }
  /// MeetsTbt given this record's P99Tbt() already computed.
  bool TbtWithin(double p99_tbt, const SloSpec& slo) const {
    // Requests with a single output token have no TBT; vacuously met.
    return tbt_samples.empty() || p99_tbt <= TbtBound(slo);
  }
  bool MeetsSlo(const SloSpec& slo) const {
    return MeetsTtft(slo) && MeetsTbt(slo);
  }
};

/// Aggregate report produced after a simulation run. Attainment fractions
/// are over *eligible* requests (served and not best-effort); rejected
/// requests are folded in at the fleet layer via FoldRejectedIntoReport.
struct SloReport {
  double slo_attainment = 0.0;    ///< fraction meeting both SLOs.
  double ttft_attainment = 0.0;
  double tbt_attainment = 0.0;
  double batch_limit_time_ratio = 0.0;  ///< Figure 2's right axis.
  double total_serving_time = 0.0;
  int64_t iterations = 0;
  double mean_batch_size = 0.0;
  int64_t preemptions = 0;
  int64_t conversions = 0;
  SampleSet ttfts;
  SampleSet p99_tbts;
  double mean_ttft = 0.0;
  double p99_ttft = 0.0;
  /// Jain's fairness index over per-request TTFTs, in (0, 1]: 1 when every
  /// request waited equally, 1/n when one request absorbed all the delay.
  /// Quantifies the §6.6 starvation observation as a single number.
  double jain_fairness_ttft = 0.0;
  /// Requests counted toward attainment: served and not best-effort.
  int64_t eligible_requests = 0;
  /// Eligible requests that met both SLOs (the goodput numerator; exact,
  /// so fleet merges need no floating-point reconstruction).
  int64_t slo_met_requests = 0;
  /// Served requests excluded from attainment (admission deprioritized).
  int64_t best_effort_requests = 0;
  /// Requests admission control turned away (never served). Zero in
  /// per-instance reports; the fleet layer folds them into the combined
  /// report's attainment denominators.
  int64_t rejected_requests = 0;
  /// SLO-met eligible requests per second of serving time — the goodput
  /// readout SLO-aware routing optimizes for.
  double goodput_rps = 0.0;
};

/// Jain's fairness index (sum x)^2 / (n * sum x^2); 0 for empty input.
double JainFairnessIndex(const std::vector<double>& values);

/// Accounts `rejected` admission-rejected requests into `report`: they
/// enter every attainment denominator as misses (scaling the fractions by
/// eligible / (eligible + rejected)) and are recorded in
/// rejected_requests. Goodput is unchanged — rejected requests consume no
/// serving time and meet no SLO. No-op for rejected <= 0.
void FoldRejectedIntoReport(int64_t rejected, SloReport* report);

// ---- Fleet elasticity metrics (serve/fleet_controller.h) -------------------

/// One scaling action of the event-driven fleet controller, in virtual time.
struct FleetScaleEvent {
  enum class Kind {
    kAdd,         ///< instance spawned (cold start; serving begins at warmup)
    kLive,        ///< warmup finished; the router now targets the instance
    kDrainStart,  ///< scale-down chose the instance; no new routes
    kRetire,      ///< drain complete; the instance left the fleet
  };
  double time = 0.0;
  int32_t instance = -1;
  Kind kind = Kind::kAdd;
};

/// Aggregate elasticity accounting of one fleet-controller run.
struct FleetMetrics {
  std::vector<FleetScaleEvent> scale_events;
  /// (tick time, instances alive) — the per-epoch fleet size timeline.
  std::vector<std::pair<double, int32_t>> size_timeline;
  int64_t ticks = 0;
  int64_t migrations = 0;             ///< requests moved between instances
  int64_t migrations_with_cache = 0;  ///< of which carried cache state
  int64_t migration_deduped_tokens = 0;  ///< re-resolved via the dest index
  int64_t migration_copied_tokens = 0;   ///< actually transferred
  double migration_bytes = 0.0;
  double migration_seconds = 0.0;  ///< virtual interconnect time charged
  /// Integral of fleet size over virtual time — what an operator pays for.
  double instance_seconds = 0.0;
  int32_t peak_instances = 0;
  int32_t cold_starts = 0;
  // ---- Hierarchical (fleet-of-fleets) topology ----
  /// Cells in the two-level topology (1 = flat fleet).
  int32_t num_cells = 1;
  /// Cell of each spawned instance, indexed by lifetime-unique id.
  std::vector<int32_t> instance_cell;
  /// Migrations whose source and destination live in different cells
  /// (priced on the slower cross-cell interconnect tier).
  int64_t cross_cell_migrations = 0;
  double cross_cell_migration_bytes = 0.0;
};

// ---- Wall-clock metrics (async serving mode) -------------------------------

/// Aggregate wall-clock latency/throughput readout of an async serving run.
/// Percentiles come from log-bucketed LatencyHistograms (bounded memory at
/// any request volume); mean/min/max are exact.
struct WallLatencyReport {
  int64_t requests = 0;  ///< requests that finished
  int64_t tokens = 0;    ///< tokens emitted
  double duration_s = 0.0;  ///< first arrival to last finish, wall seconds
  double throughput_tok_s = 0.0;
  double throughput_req_s = 0.0;
  LatencyHistogram ttft;  ///< arrival -> first token, per request
  LatencyHistogram tbt;   ///< consecutive-token gaps, per token
  LatencyHistogram e2e;   ///< arrival -> finish, per request
};

/// Aggregates wall-clock latencies for the async serving mode. One
/// collector per worker thread (single-threaded access, like
/// MetricsCollector); the per-request stamps live with the request in its
/// serving loop, which passes them in, and per-worker collectors fold
/// together with Merge at shutdown. Purely observational: nothing here
/// feeds back into scheduling, so wall jitter cannot perturb the
/// deterministic token streams.
class WallClockMetrics {
 public:
  /// A request due at wall time `arrival` joined the run.
  void OnArrival(double arrival);
  /// A token emitted at `now` by a request due at `arrival`: its first
  /// (`last_token` < 0) adds a TTFT sample, a later one the TBT gap since
  /// `last_token`.
  void OnToken(double arrival, double last_token, double now);
  void OnFinish(double arrival, double now);

  /// Folds `other`'s aggregates into this collector.
  void Merge(const WallClockMetrics& other);

  WallLatencyReport Report() const;

 private:
  LatencyHistogram ttft_;
  LatencyHistogram tbt_;
  LatencyHistogram e2e_;
  int64_t finished_requests_ = 0;
  int64_t tokens_ = 0;
  double first_arrival_ = -1.0;
  double last_finish_ = -1.0;
};

class MetricsCollector {
 public:
  /// Registers `spec` and returns its record. Records are nodes of a
  /// node-based map, so the pointer stays valid, whatever else is
  /// registered or extracted, until this record itself is extracted.
  RequestRecord* RegisterRequest(const Request& spec);

  /// The record of `id`; null when it is not registered here.
  RequestRecord* Find(RequestId id);

  /// Accounts one iteration of duration `seconds` executing `batch_size`
  /// scheduled items; `at_batch_limit` marks iterations during which the
  /// batch could not grow further under the memory constraint.
  void OnIteration(double seconds, int32_t batch_size, bool at_batch_limit);

  void OnPreemption() { ++preemptions_; }
  void OnConversion() { ++conversions_; }

  /// Removes and returns the request's record for live migration-out; the
  /// destination collector re-adopts it so TTFT/TBT history survives the
  /// move. Pointers to the record are invalidated.
  RequestRecord ExtractRecord(RequestId id);

  /// Adopts a migrated-in record (the counterpart of ExtractRecord) and
  /// returns its new address.
  RequestRecord* AdoptRecord(RequestRecord record);

  SloReport Report(const SloSpec& slo) const;
  const std::unordered_map<RequestId, RequestRecord>& records() const {
    return records_;
  }
  /// Moves every record out (iteration order preserved); the collector is
  /// left without records.
  std::unordered_map<RequestId, RequestRecord> TakeRecords() {
    return std::move(records_);
  }

 private:
  std::unordered_map<RequestId, RequestRecord> records_;
  double total_time_ = 0.0;
  double batch_limit_time_ = 0.0;
  int64_t iterations_ = 0;
  double batch_size_weighted_ = 0.0;
  int64_t preemptions_ = 0;
  int64_t conversions_ = 0;
};

}  // namespace aptserve
