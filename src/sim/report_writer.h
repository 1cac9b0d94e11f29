// CSV export of simulation results, so the bench binaries' tables can be
// re-plotted with external tooling (the paper's figures are line plots /
// scatters over exactly this data).
#pragma once

#include <functional>
#include <ostream>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "sim/metrics.h"

namespace aptserve {

/// Writes per-request records as CSV:
/// id,arrival,prompt_len,output_len,ttft,p99_tbt,finish,ttft_bound,
/// tbt_bound,best_effort,meets_ttft,meets_tbt. The bounds are the
/// effective per-request deadlines (own SLO when set, else `slo`). Rows
/// are sorted by request id (arrival order).
void WriteRequestRecordsCsv(
    const std::unordered_map<RequestId, RequestRecord>& records,
    const SloSpec& slo, std::ostream* out);

/// Convenience: writes `content_writer`'s output to `path`, creating the
/// file. Returns an error when the file cannot be opened.
Status WriteFile(const std::string& path,
                 const std::function<void(std::ostream*)>& content_writer);

}  // namespace aptserve
