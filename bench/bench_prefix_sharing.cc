// Prefix-sharing sweep: hit-rate (conversation fan-out) x prefix-length
// grid over the shared-prefix workload, run with sharing off and on, on
// BOTH execution backends:
//   - the analytic CostModelBackend (Opt-13B roofline), where skipped
//     prefill positions are priced out of the iteration, and
//   - the real InferenceBackend (Tiny model, measured wall clock), where
//     they are genuinely not computed.
// Each run is one ServingLoop over the backend.
// Reported per cell: prefill tokens computed/skipped (the reduction
// factor), mean TTFT, request throughput, hits, and blocks saved through
// sharing. The same trace drives both backends, and the final parity table
// checks that their hit accounting is identical — both backends must agree
// on what a hit is worth.
#include <cstdio>
#include <string>
#include <vector>

#include "baselines/fcfs_scheduler.h"
#include "bench/bench_util.h"
#include "serve/inference_backend.h"
#include "workload/shared_prefix.h"

namespace aptserve {
namespace {

constexpr int32_t kBlockSize = 4;
constexpr int32_t kPoolBlocks = 512;

struct CellResult {
  double mean_ttft = 0.0;
  double throughput = 0.0;
  int64_t computed = 0;
  int64_t skipped = 0;
  PrefixStats prefix;
};

std::vector<Request> MakeTrace(int32_t prefix_len, int32_t fan_out) {
  SharedPrefixConfig cfg;
  cfg.system_prompt_len = prefix_len;
  cfg.num_conversations = fan_out;
  cfg.turns_per_conversation = 3;
  cfg.tokens_per_turn = 8;
  cfg.output_len_mean = 6;
  cfg.think_time_s = 2.0;
  cfg.conversation_stagger_s = 0.25;
  cfg.vocab_size = ModelConfig::Tiny().vocab_size;
  auto trace = BuildSharedPrefixTrace(cfg);
  if (!trace.ok()) {
    std::fprintf(stderr, "trace: %s\n", trace.status().ToString().c_str());
    std::abort();
  }
  return *trace;
}

CellResult RunCostModel(const std::vector<Request>& trace, bool sharing) {
  const ModelSpec m = ModelSpec::Opt13B();
  CostModel cm(m, ClusterSpec::ForModel(m));
  CostModelBackend::Options opts;
  opts.block_size = kBlockSize;
  opts.pool_blocks_override = kPoolBlocks;
  opts.enable_prefix_sharing = sharing;
  FcfsScheduler sched;
  auto r = [&]() -> StatusOr<ServingLoopResult> {
    APT_ASSIGN_OR_RETURN(auto backend, CostModelBackend::Create(cm, opts));
    return ServingLoop(backend.get(), ServingLoopConfig{})
        .Run(trace, &sched, SloSpec{10.0, 10.0});
  }();
  if (!r.ok()) {
    std::fprintf(stderr, "sim: %s\n", r.status().ToString().c_str());
    std::abort();
  }
  CellResult out;
  out.mean_ttft = r->report.mean_ttft;
  out.throughput = r->report.total_serving_time > 0
                       ? trace.size() / r->report.total_serving_time
                       : 0.0;
  out.computed = r->prefill_tokens_computed;
  out.skipped = r->prefill_tokens_skipped;
  out.prefix = r->prefix;
  return out;
}

CellResult RunEngine(const std::vector<Request>& trace, bool sharing) {
  InferenceBackendOptions opts;
  opts.enable_prefix_sharing = sharing;
  InferenceBackend backend(ModelConfig::Tiny(), /*weight_seed=*/42,
                           kPoolBlocks, kBlockSize, SamplingParams{}, opts);
  ServingLoopConfig loop;
  loop.max_batch_size = INT32_MAX;
  loop.max_iterations = 2'000'000;
  FcfsScheduler sched;
  auto r = ServingLoop(&backend, loop).Run(trace, &sched, SloSpec{10.0, 10.0});
  if (!r.ok()) {
    std::fprintf(stderr, "engine: %s\n", r.status().ToString().c_str());
    std::abort();
  }
  CellResult out;
  out.mean_ttft = r->report.mean_ttft;
  out.throughput = r->report.total_serving_time > 0
                       ? trace.size() / r->report.total_serving_time
                       : 0.0;
  out.computed = r->prefill_tokens_computed;
  out.skipped = r->prefill_tokens_skipped;
  out.prefix = r->prefix;
  return out;
}

void Record(const std::string& backend, int32_t prefix_len, int32_t fan_out,
            bool sharing, const CellResult& r, double reduction) {
  bench::JsonObject e;
  e.Str("backend", backend)
      .Int("prefix_len", prefix_len)
      .Int("fan_out", fan_out)
      .Int("sharing", sharing ? 1 : 0)
      .Num("mean_ttft_s", r.mean_ttft)
      .Num("requests_per_sec", r.throughput)
      .Int("prefill_tokens_computed", r.computed)
      .Int("prefill_tokens_skipped", r.skipped)
      .Num("prefill_reduction_x", reduction)
      .Int("lookups", r.prefix.lookups)
      .Int("hits", r.prefix.hits)
      .Int("matched_tokens", r.prefix.matched_tokens)
      .Int("blocks_saved", r.prefix.shared_blocks)
      .Int("cow_matches", r.prefix.cow_matches)
      .Int("evicted_blocks", r.prefix.evicted_blocks);
  bench::BenchJson::Instance().AddEntry(std::move(e));
}

}  // namespace
}  // namespace aptserve

int main() {
  using namespace aptserve;

  bench::BenchJson::Instance().config().Int("block_size", kBlockSize)
      .Int("pool_blocks", kPoolBlocks)
      .Str("scheduler", "FCFS")
      .Str("cost_model", "OPT-13B")
      .Str("engine_model", "Tiny");

  const std::vector<int32_t> prefix_lens = {32, 64};
  const std::vector<int32_t> fan_outs = {2, 6};

  std::printf("=== Prefix sharing: hit-rate x prefix-length sweep ===\n");
  std::printf("%-16s %7s %7s | %11s %11s %8s | %8s %8s | %5s %7s %6s\n",
              "backend", "prefix", "fanout", "ttft_off", "ttft_on",
              "pf_redux", "pf_off", "pf_on", "hits", "matched", "saved");

  bool parity_ok = true;
  bool reduction_ok = true;
  PrefixStats cost_stats, engine_stats;
  for (int32_t prefix_len : prefix_lens) {
    for (int32_t fan_out : fan_outs) {
      const auto trace = MakeTrace(prefix_len, fan_out);
      for (const std::string& backend : {std::string("cost-model"),
                                         std::string("inference-engine")}) {
        const bool is_engine = backend == "inference-engine";
        const CellResult off =
            is_engine ? RunEngine(trace, false) : RunCostModel(trace, false);
        const CellResult on =
            is_engine ? RunEngine(trace, true) : RunCostModel(trace, true);
        const double reduction =
            on.computed > 0 ? static_cast<double>(off.computed) / on.computed
                            : 0.0;
        Record(backend, prefix_len, fan_out, false, off, 1.0);
        Record(backend, prefix_len, fan_out, true, on, reduction);
        std::printf(
            "%-16s %7d %7d | %11.6f %11.6f %7.2fx | %8lld %8lld | %5lld %7lld "
            "%6lld\n",
            backend.c_str(), prefix_len, fan_out, off.mean_ttft, on.mean_ttft,
            reduction, static_cast<long long>(off.computed),
            static_cast<long long>(on.computed),
            static_cast<long long>(on.prefix.hits),
            static_cast<long long>(on.prefix.matched_tokens),
            static_cast<long long>(on.prefix.shared_blocks));
        if (on.mean_ttft >= off.mean_ttft) {
          std::printf("  !! mean TTFT did not improve on %s\n",
                      backend.c_str());
        }
        // The acceptance cell: >=50%% overlap (the larger grid corner).
        if (prefix_len == 64 && fan_out == 6 && reduction < 1.5) {
          reduction_ok = false;
        }
        (is_engine ? engine_stats : cost_stats) = on.prefix;
      }
      if (cost_stats.hits != engine_stats.hits ||
          cost_stats.matched_tokens != engine_stats.matched_tokens ||
          cost_stats.shared_blocks != engine_stats.shared_blocks ||
          cost_stats.cow_matches != engine_stats.cow_matches) {
        parity_ok = false;
        std::printf("  !! hit accounting diverged between backends\n");
      }
    }
  }
  std::printf("\nhit accounting identical across backends: %s\n",
              parity_ok ? "yes" : "NO");
  std::printf(">=1.5x prefill-token reduction at the >=50%% overlap cell: %s\n",
              reduction_ok ? "yes" : "NO");
  bench::BenchJson::Instance().config().Int("parity_ok", parity_ok ? 1 : 0);
  return parity_ok && reduction_ok ? 0 : 1;
}
