// Thread-scaling of the parallel runtime: sweeps threads x batch size for
// prefill and decode iterations on the real engine, reporting wall-clock
// speedup over the serial (1-thread) baseline. Prefill batches exercise
// intra-op parallelism (positions/heads/W-rows); decode batches exercise
// item-level parallelism through InferenceEngine::ExecuteSteps. Token
// streams are asserted bit-identical to the serial run at every sweep
// point — speed changes, results do not.
//
// Results land in BENCH_bench_parallel_scaling.json (the committed copy
// under bench/results/ tracks the perf trajectory across PRs; like every
// bench snapshot it records the hardware_concurrency of the machine that
// produced it, since wall-clock speedup is bounded by physical cores).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "engine/inference_engine.h"

using namespace aptserve;

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ModelConfig BenchModel() {
  // Bigger than Tiny so one iteration is real work, small enough that the
  // serial baseline stays in seconds.
  ModelConfig cfg = ModelConfig::Tiny();
  cfg.d_model = 128;
  cfg.n_heads = 4;
  cfg.n_layers = 4;
  cfg.d_ff = 512;
  cfg.vocab_size = 4096;
  cfg.max_seq_len = 512;
  return cfg;
}

struct PhaseResult {
  double seconds = 0.0;
  int64_t tokens = 0;
  std::vector<std::vector<int32_t>> streams;  ///< per-request final tokens
};

constexpr int32_t kPromptLen = 96;
constexpr int32_t kDecodeIters = 12;

/// Runs one engine instance: batched prefill of `batch` requests, then
/// kDecodeIters lockstep decode iterations, timing each phase.
void RunEngine(int32_t num_threads, int32_t batch, PhaseResult* prefill,
               PhaseResult* decode) {
  const ModelConfig cfg = BenchModel();
  RuntimeConfig rt;
  rt.num_threads = num_threads;
  // Pool sized for batch * (prompt + decodes), two components for the KV
  // requests: block_size 16.
  const int32_t blocks =
      batch * 2 * ((kPromptLen + kDecodeIters + 15) / 16 + 1) + 16;
  InferenceEngine engine(cfg, /*seed=*/2025, blocks, /*block_size=*/16, rt);
  Rng prompt_rng(11);
  for (int32_t id = 0; id < batch; ++id) {
    std::vector<int32_t> prompt(kPromptLen);
    for (int32_t& t : prompt) {
      t = static_cast<int32_t>(prompt_rng.UniformInt(0, cfg.vocab_size - 1));
    }
    const CacheType type = id % 2 == 0 ? CacheType::kKV : CacheType::kHidden;
    Status st = engine.AddRequest(id, std::move(prompt), type);
    if (!st.ok()) {
      std::fprintf(stderr, "AddRequest: %s\n", st.ToString().c_str());
      std::abort();
    }
  }

  auto run_batch = [&](bool is_decode) {
    std::vector<PendingStep> steps;
    steps.reserve(batch);
    for (int32_t id = 0; id < batch; ++id) {
      auto s = is_decode ? engine.PrepareDecode(id)
                         : engine.PreparePrefillChunk(id, kPromptLen);
      if (!s.ok()) {
        std::fprintf(stderr, "prepare: %s\n", s.status().ToString().c_str());
        std::abort();
      }
      steps.push_back(std::move(*s));
    }
    Status st = engine.ExecuteSteps(&steps);
    if (!st.ok()) {
      std::fprintf(stderr, "execute: %s\n", st.ToString().c_str());
      std::abort();
    }
  };

  double t0 = NowSeconds();
  run_batch(/*is_decode=*/false);
  prefill->seconds = NowSeconds() - t0;
  prefill->tokens = static_cast<int64_t>(batch) * kPromptLen;

  t0 = NowSeconds();
  for (int32_t iter = 0; iter < kDecodeIters; ++iter) {
    run_batch(/*is_decode=*/true);
  }
  decode->seconds = NowSeconds() - t0;
  decode->tokens = static_cast<int64_t>(batch) * kDecodeIters;

  for (int32_t id = 0; id < batch; ++id) {
    decode->streams.push_back(engine.Find(id)->tokens);
  }
}

}  // namespace

int main() {
  const std::vector<int32_t> thread_counts = {1, 2, 4, 8};
  const std::vector<int32_t> batches = {1, 4, 8, 16};
  const unsigned hw = std::thread::hardware_concurrency();
  // The ≥2x-at-4-threads ROADMAP target is only observable with ≥4
  // physical cores; on smaller containers speedup legitimately sits near
  // 1.0, and the snapshot must say so instead of looking like a miss.
  const bool multicore = hw >= 4;
  if (!multicore) {
    std::fprintf(stderr,
                 "WARNING: hardware_concurrency=%u < 4 — thread-scaling "
                 "speedups are not observable on this machine; the JSON "
                 "snapshot records \"multicore\": false. Re-run on >=4 "
                 "physical cores for real gains.\n",
                 hw);
  }

  bench::BenchJson::Instance().SetName("bench_parallel_scaling");
  {
    const ModelConfig cfg = BenchModel();
    bench::BenchJson::Instance()
        .config()
        .Bool("multicore", multicore)
        .Int("d_model", cfg.d_model)
        .Int("n_layers", cfg.n_layers)
        .Int("d_ff", cfg.d_ff)
        .Int("vocab_size", cfg.vocab_size)
        .Int("prompt_len", kPromptLen)
        .Int("decode_iters", kDecodeIters);
  }

  std::printf("=== Parallel runtime scaling: threads x batch on the real "
              "engine (hardware_concurrency=%u) ===\n", hw);
  std::printf("%7s %6s | %12s %12s %8s | %12s %12s %8s\n", "threads",
              "batch", "prefill(s)", "ptok/s", "speedup", "decode(s)",
              "dtok/s", "speedup");

  for (int32_t batch : batches) {
    PhaseResult base_prefill, base_decode;
    for (int32_t threads : thread_counts) {
      PhaseResult prefill, decode;
      RunEngine(threads, batch, &prefill, &decode);
      if (threads == 1) {
        base_prefill = prefill;
        base_decode = decode;
      } else if (decode.streams != base_decode.streams) {
        // The determinism contract, enforced where the speed is measured.
        std::fprintf(stderr,
                     "FATAL: token streams diverged at threads=%d batch=%d\n",
                     threads, batch);
        return 1;
      }
      const double prefill_speedup = prefill.seconds > 0
                                         ? base_prefill.seconds /
                                               prefill.seconds
                                         : 0.0;
      const double decode_speedup =
          decode.seconds > 0 ? base_decode.seconds / decode.seconds : 0.0;
      std::printf("%7d %6d | %12.4f %12.0f %8.2f | %12.4f %12.0f %8.2f\n",
                  threads, batch, prefill.seconds,
                  prefill.tokens / prefill.seconds, prefill_speedup,
                  decode.seconds, decode.tokens / decode.seconds,
                  decode_speedup);
      std::fflush(stdout);

      bench::JsonObject e;
      e.Int("threads", threads)
          .Int("batch", batch)
          .Num("prefill_seconds", prefill.seconds)
          .Num("prefill_tokens_per_sec", prefill.tokens / prefill.seconds)
          .Num("prefill_speedup_vs_serial", prefill_speedup)
          .Num("decode_seconds", decode.seconds)
          .Num("decode_tokens_per_sec", decode.tokens / decode.seconds)
          .Num("decode_speedup_vs_serial", decode_speedup)
          .Str("tokens_bit_identical_to_serial", "true");
      bench::BenchJson::Instance().AddEntry(std::move(e));
    }
  }

  std::printf("\nSpeedup is wall-clock vs the 1-thread run of the same "
              "batch; bounded above by\nhardware_concurrency. Token streams "
              "are verified bit-identical at every point.\n");
  return 0;
}
