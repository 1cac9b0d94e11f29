// CellRouter: the hierarchical front tier of a two-level (fleet-of-fleets)
// topology. The fleet's instances are partitioned into *cells*; the front
// tier consistent-hashes each request's leading prefix block chunk(s) onto
// a cell, and the existing Router then routes within that cell's members
// unchanged. The front tier keeps only a hash ring plus per-cell load
// summaries — no radix mirrors — so its per-decision cost is O(1) in both
// the instance count and the cell count:
//   - cell choice: one ring lookup (binary search over virtual nodes),
//   - imbalance check / fallback: one read of the least-loaded live cell,
//     maintained as an ordered (busy_until, cell) set updated on commit.
// Requests with no usable prefix chunk (no token ids, or a prompt shorter
// than one full block) fall back to the least-loaded cell, and a hashed
// cell whose outstanding work exceeds the fleet minimum by more than
// `cell_max_imbalance_s` also falls back — mirroring the flat
// kPrefixAffinity load-imbalance semantics one level up.
//
// Determinism: RouteOne/Commit are called on the fleet controller's serial
// routing path only, use no wall clock or RNG, and break ties by lowest
// cell id, so hierarchical fleets stay bit-identical at any thread count.
#pragma once

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "workload/request.h"

namespace aptserve {

struct CellRouterConfig {
  /// 1 = flat fleet (the front tier is bypassed entirely; bit-identical
  /// to a fleet built before cells existed).
  int32_t num_cells = 1;
  /// Chunk granularity in tokens; 0 inherits the intra-cell router's
  /// block_size so cell keys align with the affinity mirrors.
  int32_t block_size = 0;
  /// Load-imbalance cap (seconds of per-instance-normalized outstanding
  /// work): the hashed cell is used only while its summary exceeds the
  /// minimum live cell by at most this much, else least-loaded wins.
  double cell_max_imbalance_s = 10.0;
};

/// Front-tier decision counters; deterministic, merged into RouteCostStats
/// by the fleet controller. hash_routed + fallback_routed == decisions.
struct CellRouteStats {
  int64_t decisions = 0;
  int64_t hash_routed = 0;
  int64_t fallback_routed = 0;
  /// Cell-summary examinations (ring lookup + min-load reads); the
  /// hierarchical analogue of RouteCostStats::instance_probes.
  int64_t cell_probes = 0;
};

class CellRouter {
 public:
  /// `block_size_fallback` resolves config.block_size == 0 (the intra-cell
  /// router's block size). All cells start live.
  CellRouter(const CellRouterConfig& config, int32_t block_size_fallback);

  /// Picks the serving cell for `req` at time `now` among live cells.
  /// Pure choice — commit separately so rejected requests leave no trace.
  int32_t RouteOne(const Request& req, double now);

  /// Commits an admitted request's predicted service time to `cell`'s
  /// load summary. `cell_width` (live instances in the cell) normalizes
  /// the summary to per-instance seconds so the imbalance cap is
  /// comparable to the intra-cell affinity_max_imbalance_s scale.
  void Commit(int32_t cell, double now, double service_seconds,
              int32_t cell_width);

  /// Marks a cell (un)routable; at least one cell must stay live. An
  /// elastic fleet retires a cell when its last instance drains.
  void SetLive(int32_t cell, bool live);

  /// Per-instance-normalized outstanding work of `cell` at `now`.
  double Outstanding(int32_t cell, double now) const;

  /// The consistent-hash key for `req`'s leading chunks, or 0 when the
  /// request has no usable full chunk (the fallback path). Exposed so
  /// tests can pin ring placement.
  uint64_t PrefixKey(const Request& req) const;
  /// The cell the ring maps `key` to (ignores liveness and imbalance).
  int32_t RingCell(uint64_t key) const;

  int32_t num_cells() const { return config_.num_cells; }
  const CellRouterConfig& config() const { return config_; }
  const CellRouteStats& stats() const { return stats_; }

 private:
  CellRouterConfig config_;
  int32_t block_size_;
  /// (ring point, cell), sorted by point; lookup = upper_bound + wrap.
  std::vector<std::pair<uint64_t, int32_t>> ring_;
  std::vector<double> busy_until_;
  std::vector<uint8_t> live_;
  /// (busy_until, cell) of live cells; begin() is the least-loaded live
  /// cell with deterministic lowest-id tie-break.
  std::set<std::pair<double, int32_t>> loads_;
  CellRouteStats stats_;
};

}  // namespace aptserve
