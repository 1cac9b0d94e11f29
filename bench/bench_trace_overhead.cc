// Observability overhead on the async wall-clock path: the same trace and
// two-instance real-engine fleet served three ways — (a) tracing off,
// (b) the TraceRecorder's per-thread sharded ring buffers plus the
// MetricsRegistry attached (the always-on production configuration), and
// (c) recorder attached plus a full Chrome trace_event JSON export and
// Prometheus text exposition after drain (the debugging configuration).
//
// Readout: sustained tokens/sec per mode, best of 3 interleaved runs.
// Gate (enforced, exit 1): ring-buffer-on throughput must be within 5% of
// tracing-off — the "zero-cost enough to leave on" budget the hooks were
// designed against. The export mode is reported, not gated: serialising
// the event log is explicitly off the hot path.
//
// Results land in BENCH_bench_trace_overhead.json. Like
// bench_async_serving, the snapshot stamps hardware_concurrency and
// "multicore": on a <4-core container the worker threads time-share one
// core, so absolute tok/s is not serving capacity — but the off/on *ratio*
// the gate checks is still meaningful, both modes pay the same tax.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "obs/chrome_trace.h"
#include "obs/metrics_registry.h"
#include "obs/trace_recorder.h"
#include "serve/async_serving.h"
#include "serve/inference_backend.h"
#include "serve/multi_instance.h"

using namespace aptserve;

namespace {

using TokenMap = std::unordered_map<RequestId, std::vector<int32_t>>;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr int32_t kInstances = 2;
constexpr int32_t kRequests = 192;
constexpr double kArrivalSpacing = 0.01;  // virtual seconds
constexpr double kReplaySpeedup = 800.0;
constexpr int kRepeats = 3;

enum class Mode { kOff, kRecorder, kFullExport };

const char* ModeName(Mode m) {
  switch (m) {
    case Mode::kOff:
      return "off";
    case Mode::kRecorder:
      return "recorder";
    case Mode::kFullExport:
      return "full_export";
  }
  return "?";
}

std::vector<Request> BenchTrace() {
  Rng rng(131);
  std::vector<Request> trace;
  trace.reserve(kRequests);
  for (int32_t i = 0; i < kRequests; ++i) {
    Request r;
    r.id = i;
    r.prompt_len = static_cast<int32_t>(rng.UniformInt(8, 24));
    r.output_len = static_cast<int32_t>(rng.UniformInt(8, 16));
    r.arrival = kArrivalSpacing * i;
    trace.push_back(r);
  }
  return trace;
}

BackendFactory EngineFactory(std::vector<TokenMap>* sinks) {
  return [sinks](int32_t i) -> StatusOr<std::unique_ptr<ExecutionBackend>> {
    InferenceBackendOptions options;
    options.virtual_timing = true;
    options.finished_sink = &(*sinks)[static_cast<size_t>(i)];
    return std::unique_ptr<ExecutionBackend>(std::make_unique<InferenceBackend>(
        ModelConfig::Tiny(), /*weight_seed=*/9 + i, /*num_blocks=*/192,
        /*block_size=*/8, SamplingParams::TopK(8, 0.9), options));
  };
}

SchedulerFactory Fcfs() {
  return [] { return std::make_unique<FcfsScheduler>(); };
}

struct RunResult {
  double tok_s = 0.0;          ///< sustained serving throughput
  double serve_wall_s = 0.0;   ///< release-to-drain wall time
  double export_wall_s = 0.0;  ///< Chrome JSON + Prometheus text (mode c)
  int64_t tokens = 0;
  uint64_t events_emitted = 0;
  uint64_t events_dropped = 0;
  size_t export_bytes = 0;
};

StatusOr<RunResult> RunOnce(Mode mode, const std::vector<Request>& trace) {
  obs::TraceRecorder recorder;  // default shard capacity: the bounded ring
  obs::MetricsRegistry metrics;

  AsyncServingConfig async;
  async.replay_speedup = kReplaySpeedup;
  async.max_wall_seconds = 120.0;
  if (mode != Mode::kOff) {
    async.trace = &recorder;
    async.metrics = &metrics;
  }

  RouterConfig rc;
  rc.n_instances = kInstances;
  rc.policy = RoutePolicy::kRoundRobin;
  ServingLoopConfig loop;
  loop.max_batch_size = INT32_MAX;
  MultiInstanceRunner runner(Router(rc), loop);

  std::vector<TokenMap> sinks(kInstances);
  APT_ASSIGN_OR_RETURN(
      AsyncServingResult live,
      runner.RunAsync(trace, Fcfs(), EngineFactory(&sinks), SloSpec{5.0, 5.0},
                      async));

  RunResult out;
  out.tok_s = live.wall.throughput_tok_s;
  out.serve_wall_s = live.wall_duration_s;
  out.tokens = live.wall.tokens;
  if (mode != Mode::kOff) {
    out.events_emitted = recorder.TotalEmitted();
    out.events_dropped = recorder.TotalDropped();
  }
  if (mode == Mode::kFullExport) {
    const double t0 = NowSeconds();
    const std::string json = obs::ExportChromeTrace(recorder.Flush());
    const std::string prom = metrics.ExportPrometheus();
    out.export_wall_s = NowSeconds() - t0;
    out.export_bytes = json.size() + prom.size();
  }
  return out;
}

}  // namespace

int main() {
  const unsigned hw = std::thread::hardware_concurrency();
  const bool multicore = hw >= 4;
  if (!multicore) {
    std::fprintf(stderr,
                 "WARNING: hardware_concurrency=%u < 4 — absolute tok/s here "
                 "is core-starved, read only the off/on ratio; the JSON "
                 "snapshot records \"multicore\": false.\n",
                 hw);
  }

  bench::BenchJson::Instance().SetName("bench_trace_overhead");
  bench::BenchJson::Instance()
      .config()
      .Int("hardware_concurrency", hw)
      .Bool("multicore", multicore)
      .Int("instances", kInstances)
      .Int("requests", kRequests)
      .Num("replay_speedup", kReplaySpeedup)
      .Int("repeats_best_of", kRepeats)
      .Num("overhead_gate", 0.05);

  const auto trace = BenchTrace();
  const Mode modes[] = {Mode::kOff, Mode::kRecorder, Mode::kFullExport};

  // Interleaved best-of-N: round-robin over the modes so machine noise
  // (another process, frequency drift) lands on all three equally.
  RunResult best[3];
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (int m = 0; m < 3; ++m) {
      auto r = RunOnce(modes[m], trace);
      if (!r.ok()) {
        std::fprintf(stderr, "%s run: %s\n", ModeName(modes[m]),
                     r.status().ToString().c_str());
        return 1;
      }
      if (r->tok_s > best[m].tok_s) best[m] = *r;
    }
  }

  std::printf("=== Trace overhead on the async path (best of %d, hw=%u%s) "
              "===\n",
              kRepeats, hw,
              multicore ? "" : ", single-core: ratios only");
  std::printf("%12s %12s %10s %10s %10s %12s\n", "mode", "tok/s", "wall(s)",
              "events", "dropped", "export");
  for (int m = 0; m < 3; ++m) {
    const RunResult& r = best[m];
    std::printf("%12s %12.0f %10.4f %10llu %10llu %9.4fs/%zuB\n",
                ModeName(modes[m]), r.tok_s, r.serve_wall_s,
                static_cast<unsigned long long>(r.events_emitted),
                static_cast<unsigned long long>(r.events_dropped),
                r.export_wall_s, r.export_bytes);

    bench::JsonObject e;
    e.Str("mode", ModeName(modes[m]))
        .Num("sustained_tok_per_s", r.tok_s)
        .Num("serve_wall_seconds", r.serve_wall_s)
        .Int("tokens", r.tokens)
        .Int("events_emitted", static_cast<int64_t>(r.events_emitted))
        .Int("events_dropped", static_cast<int64_t>(r.events_dropped))
        .Num("export_seconds", r.export_wall_s)
        .Int("export_bytes", static_cast<int64_t>(r.export_bytes));
    bench::BenchJson::Instance().AddEntry(std::move(e));
  }

  const double off = best[0].tok_s;
  const double on = best[1].tok_s;
  const double overhead = off > 0.0 ? 1.0 - on / off : 0.0;
  std::printf("\nRing-buffer tracing overhead: %.2f%% of tokens/sec "
              "(gate: <=5%%)\n", 100.0 * overhead);

  bench::JsonObject summary;
  summary.Str("mode", "summary")
      .Num("recorder_overhead_fraction", overhead)
      .Bool("overhead_within_gate", overhead <= 0.05);
  bench::BenchJson::Instance().AddEntry(std::move(summary));

  if (overhead > 0.05) {
    std::fprintf(stderr,
                 "GATE FAILED: ring-buffer tracing costs %.2f%% of tokens/sec "
                 "(budget 5%%)\n",
                 100.0 * overhead);
    return 1;
  }
  return 0;
}
