// RuntimeConfig: the knobs of the shared parallel runtime layer. The
// engine (through InferenceBackendOptions or its constructor) and the
// fleet (MultiInstanceRunner, FleetConfig) each carry one and thread it
// down to the ThreadPool that kernels, the engine's batch executor, and
// the multi-instance fleet run on.
#pragma once

#include <cstdint>
#include <string>

namespace aptserve {
namespace runtime {

struct RuntimeConfig {
  /// Worker threads available to ParallelFor (including the calling
  /// thread). Semantics:
  ///   * 0 (the default) — resolve from the APTSERVE_NUM_THREADS
  ///     environment variable; when unset, 1. Existing callers therefore
  ///     see exactly the serial behavior they always had, while CI can
  ///     re-run the whole suite under threads without touching tests.
  ///   * 1 — serial execution, no pool is created.
  ///   * > 1 — a pool with that many participants.
  ///   * < 0 — std::thread::hardware_concurrency().
  int32_t num_threads = 0;

  /// Determinism contract flag. Everything the runtime ships today is
  /// bit-stable at any thread count regardless of this flag (kernels keep
  /// the scalar accumulation order per output element; the engine samples
  /// tokens behind a serial barrier; the fleet merges behind an epoch
  /// barrier). What the flag pins is the *schedule*: true (default) uses a
  /// static contiguous split of the index range so the thread→chunk mapping
  /// is reproducible run to run (useful under TSan and when bisecting);
  /// false lets the pool claim chunks dynamically (work stealing), which
  /// load-balances better when iteration costs are skewed.
  bool deterministic = true;

  /// The thread count after applying the resolution rules above; >= 1.
  int32_t ResolvedNumThreads() const;

  /// One-line description of the resolved runtime, including the kernel
  /// backend the ops dispatch layer selected at build time, e.g.
  /// "threads=4 isa=avx2+fma width=8". Benches stamp this into snapshots.
  std::string Describe() const;
};

}  // namespace runtime

using runtime::RuntimeConfig;

}  // namespace aptserve
