// Figure 7 reproduction: input and output length distributions of the
// sampled ShareGPT / HumanEval / LongBench serving traces (1000 requests
// each, as in §6.2), printed as summary stats plus ASCII histograms.
#include <cstdio>
#include <cstdlib>

#include "common/stats.h"
#include "workload/trace.h"

using namespace aptserve;

namespace {

void Describe(const DatasetProfile& profile) {
  TraceConfig tc;
  tc.profile = profile;
  tc.num_requests = 1000;
  tc.rate_per_sec = 1.0;
  tc.seed = 7;
  auto trace = BuildTrace(tc);
  if (!trace.ok()) std::abort();
  const TraceStats s = ComputeTraceStats(*trace);
  std::printf("\n--- %s (1000 sampled requests) ---\n", profile.name.c_str());
  std::printf("input : max=%-6.0f median=%-6.0f mean=%-6.0f\n", s.input_max,
              s.input_median, s.input_mean);
  std::printf("output: max=%-6.0f median=%-6.0f mean=%-6.0f\n", s.output_max,
              s.output_median, s.output_mean);

  Histogram in_h(0, 2048, 16), out_h(0, 1024, 16);
  for (const Request& r : *trace) {
    in_h.Add(r.prompt_len);
    out_h.Add(r.output_len);
  }
  std::printf("input length histogram:\n%s", in_h.ToAscii(40).c_str());
  std::printf("output length histogram:\n%s", out_h.ToAscii(40).c_str());
}

}  // namespace

int main() {
  std::printf("=== Figure 7: sampled trace length distributions ===\n");
  Describe(DatasetProfile::ShareGpt());
  Describe(DatasetProfile::HumanEval());
  Describe(DatasetProfile::LongBench());
  std::printf("\nExpected shape (paper): LongBench has by far the longest "
              "inputs; ShareGPT the longest\nand most variable outputs; "
              "HumanEval short and tight on both axes.\n");
  return 0;
}
