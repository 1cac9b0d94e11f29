// Figure 7 reproduction: input and output length distributions of the
// sampled ShareGPT / HumanEval / LongBench serving traces (1000 requests
// each, as in §6.2), printed as summary stats plus ASCII histograms; then
// Table 7's statistics of the sampled ultra-long WikiText / Arxiv /
// BookCorpus traces (§6.7).
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

void PrintTable7Row(const DatasetProfile& profile, int32_t cap) {
  TraceConfig tc;
  tc.profile = profile;
  tc.num_requests = 1000;
  tc.rate_per_sec = 1.0;
  tc.seed = 77;
  tc.max_total_len = cap;
  auto trace = BuildTrace(tc);
  if (!trace.ok()) std::abort();
  const TraceStats s = ComputeTraceStats(*trace);
  std::printf("%-12s | in  max=%-6.0f med=%-6.0f mean=%-6.0f | out "
              "max=%-5.0f med=%-5.0f mean=%-5.0f\n",
              profile.name.c_str(), s.input_max, s.input_median,
              s.input_mean, s.output_max, s.output_median, s.output_mean);
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

  std::printf("\n=== Table 7: ultra-long dataset statistics (sampled) ===\n");
  PrintTable7Row(DatasetProfile::WikiText(), 3000);
  PrintTable7Row(DatasetProfile::Arxiv(), 30000);
  PrintTable7Row(DatasetProfile::BookCorpus(), 24100);
  std::printf("(paper: WikiText 1840/871/914 in, 992/552/521 out; Arxiv "
              "19600/6853/7812, 9754/226/420;\n BookCorpus 23706/14781/"
              "16944, 299/221/185)\n");
  return 0;
}
