// Collect stage: walks <exp_dir>/runs/<run_id>/{meta,result}.json and
// flattens every finished cell into one runs.csv row (the same
// header-then-rows CSV shape as sim/report_writer), then reduces each rate
// series to the paper's effective-throughput readout in effective.csv.
// Directories without a parseable meta+result pair are skipped with a
// warning — a crashed cell must not poison the aggregate.
#pragma once

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"

namespace aptserve {
namespace sweep {

struct CollectedRun {
  std::string run_id;
  json::JsonValue cell;    ///< meta.json "cell" subtree
  json::JsonValue result;  ///< result.json document
};

/// All finished runs under `exp_dir`, sorted by run id. NotFound when the
/// runs/ directory doesn't exist.
StatusOr<std::vector<CollectedRun>> CollectRuns(const std::string& exp_dir);

/// The runs.csv column header (shared with sweep_test's conservation
/// check).
const char* RunsCsvHeader();

void WriteRunsCsv(const std::vector<CollectedRun>& runs, std::ostream* out);

/// Highest rate in `rates` for which `passes(rate)` holds; 0 when none
/// does. `rates` need not be sorted: the max is over the passing set, not
/// the last passing element in iteration order.
double HighestPassingRate(const std::vector<double>& rates,
                          const std::function<bool(double)>& passes);

/// The paper's effective throughput (Fig. 8): one row per rate series —
/// runs sharing (ablation, scheduler, router_policy, admission,
/// prefix_sharing, seed) — giving the highest rate whose slo_attainment
/// is >= 0.9 and >= 0.6. Rows are in key order.
void WriteEffectiveCsv(const std::vector<CollectedRun>& runs,
                       std::ostream* out);

/// Collects and writes <exp_dir>/aggregate/{runs,effective}.csv; returns
/// the rows for the report stage.
StatusOr<std::vector<CollectedRun>> CollectAndWriteCsv(
    const std::string& exp_dir);

}  // namespace sweep
}  // namespace aptserve
