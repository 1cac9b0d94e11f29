// Experiment-sweep configuration: a JSON file describes one experiment as
// a Cartesian matrix (scheduler x router policy x admission mode x
// prefix-sharing x rate x seed) with named ablations that override base
// parameters, in the cascade sweep/collect/report shape. The config layer
// owns parsing (strict: unknown keys are errors, so a typo'd knob cannot
// silently run the wrong experiment), matrix expansion into RunCells with
// deterministic run ids, and the canonical resolved-cell JSON that keys
// --resume: a run directory is skipped iff its meta.json "cell" subtree
// equals the freshly-expanded cell, so any config change reruns exactly
// the cells it affects.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"

namespace aptserve {
namespace sweep {

/// Fully-resolved per-cell parameters: the config's "base" object after
/// applying an ablation's overrides. Everything here is part of the
/// resume key.
struct CellParams {
  /// "poisson" (length-sampled trace at the cell's rate),
  /// "shared-prefix" (conversation fan-out; the rate axis maps to
  /// conversation starts per second) or "diurnal" (length-sampled trace
  /// over a 600 s day; the rate axis is the peak rate, the trough is a
  /// rate/8, with one x1.6 flash crowd over 380-420 s).
  std::string workload = "poisson";
  std::string profile = "ShareGPT";  ///< DatasetProfile::ByName
  std::string model = "OPT-13B";     ///< ModelSpec::ByName
  int32_t num_requests = 200;        ///< poisson workload size
  double cv = 1.0;
  int32_t max_total_len = 2048;
  double slo_ttft_s = 1.0;
  double slo_tbt_p99_s = 1.0;
  // Fleet shape.
  int32_t n_instances = 2;
  /// Hierarchical fleet-of-fleets: cells in the two-level topology
  /// (1 = flat fleet; >1 consistent-hashes prefixes onto cells).
  int32_t num_cells = 1;
  /// Elastic fleet: starts at one instance and scales within
  /// [1, n_instances] under the runner's one scaling and migration
  /// policy. false = a static fleet of n_instances.
  bool elastic = false;
  /// GPUs per instance (tensor parallelism); 0 = ClusterSpec::ForModel.
  int32_t n_gpus = 0;
  /// Cache block encoding (CacheEncodingByName).
  std::string cache_encoding = "fp32";
  int32_t block_size = 16;
  /// Block-pool size per instance; <= 0 derives from the cost model.
  int32_t pool_blocks = -1;
  double admission_slack = 1.0;
  // Shared-prefix workload knobs (ignored for poisson).
  int32_t fan_out = 8;
  int32_t turns_per_conversation = 4;
  int32_t tokens_per_turn = 32;
  int32_t system_prompt_len = 64;
  int32_t output_len_mean = 16;
  double think_time_s = 2.0;
  /// "recompute" or "swap" (ServingLoopConfig::preemption_mode).
  std::string preemption_mode = "recompute";
  /// Apt, Apt-KVonly and Apt-S (other schedulers ignore it): 0 demotes
  /// violated requests to epsilon, (0, 1] is the §6.6 decay factor.
  double violation_decay = 0.0;
  /// Apt and Apt-KVonly (other schedulers ignore it): the output-length
  /// prediction quantile; 0 = off.
  double prediction_quantile = 0.0;

  /// Canonical JSON rendering (fixed member order) — the params part of
  /// the resume key.
  json::JsonValue ToJson() const;
};

/// One named ablation: `overrides` is an object patching CellParams
/// fields (strictly validated against the known keys).
struct Ablation {
  std::string name;
  json::JsonValue overrides;  ///< object; may be empty
};

/// The Cartesian axes. Every combination of one element per axis (times
/// each ablation) is one run cell.
struct SweepMatrix {
  std::vector<std::string> schedulers{"Apt"};
  std::vector<std::string> router_policies{"round-robin"};
  std::vector<std::string> admission{"none"};
  std::vector<bool> prefix_sharing{false};
  std::vector<uint64_t> seeds{2025};
  std::vector<double> rates{1.0};
};

struct SweepConfig {
  std::string name = "default";
  std::string out_root = "sweep_runs";
  int32_t jobs = 1;
  CellParams base;
  SweepMatrix matrix;
  /// Defaults to a single no-override "baseline" entry.
  std::vector<Ablation> ablations;

  /// <out_root>/<name> — the experiment directory all stages share.
  std::string ExperimentDir() const { return out_root + "/" + name; }
};

/// One expanded cell of the matrix.
struct RunCell {
  std::string ablation;
  std::string scheduler;
  std::string router_policy;
  std::string admission;
  bool prefix_sharing = false;
  double rate = 0.0;
  uint64_t seed = 0;
  CellParams params;   ///< base + ablation overrides
  std::string run_id;  ///< deterministic directory slug, unique per cell

  /// The canonical resolved-cell object (axes + params) that meta.json
  /// records and --resume compares against.
  json::JsonValue Key() const;
};

/// Strict parse of a sweep config document (unknown keys anywhere are
/// InvalidArgument). Scheduler / policy / admission / profile / model
/// names are validated here so a bad matrix fails before any cell runs.
StatusOr<SweepConfig> ParseSweepConfig(const json::JsonValue& root);
StatusOr<SweepConfig> LoadSweepConfigFile(const std::string& path);

/// Applies an ablation's override object to `base` (strict keys).
StatusOr<CellParams> ApplyOverrides(const CellParams& base,
                                    const json::JsonValue& overrides);

/// Expands the full Cartesian product in deterministic order (ablation,
/// scheduler, policy, admission, prefix-sharing, rate, seed — outermost
/// first). Fails on duplicate run ids (e.g. two ablations with one name).
StatusOr<std::vector<RunCell>> ExpandMatrix(const SweepConfig& config);

/// Filesystem-safe slug: [A-Za-z0-9._-] kept, everything else '_'.
std::string SanitizeSlug(const std::string& raw);

}  // namespace sweep
}  // namespace aptserve
