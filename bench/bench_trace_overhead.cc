// Observability overhead on the async wall-clock path: the same trace and
// two-instance real-engine fleet served three ways — (a) tracing off,
// (b) the TraceRecorder's per-thread sharded ring buffers plus the
// MetricsRegistry attached (the always-on production configuration), and
// (c) recorder attached plus a full Chrome trace_event JSON export and
// Prometheus text exposition after drain (the debugging configuration).
//
// Readout: process CPU seconds per generated token while serving, per
// mode, over kRounds interleaved rounds (off, recorder, full export in
// turn, so host drift lands on all three alike). Wall-clock tok/s is
// reported but not gated: the replay paces arrivals and the workers park
// between them, so a pass's wall time reads the replay and the host more
// than the hooks. CPU time counts only work done, the hooks' included.
// Gate (enforced, exit 1): the median over rounds of the recorder/off CPU
// per token ratio must be within 5% — the "zero-cost enough to leave on"
// budget the hooks were designed against. The export mode is reported,
// not gated: serialising the event log is explicitly off the hot path.
//
// Results land in BENCH_bench_trace_overhead.json, stamped with
// hardware_concurrency.
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "baselines/fcfs_scheduler.h"
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

/// CPU seconds used so far by every thread of this process.
double ProcessCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

constexpr int32_t kInstances = 2;
// Large enough that per-run setup stays small beside the per-token cost
// the gate budgets (at 192 requests the median read 5-7%, at 768 1-3%).
constexpr int32_t kRequests = 768;
constexpr double kArrivalSpacing = 0.01;  // virtual seconds
constexpr double kReplaySpeedup = 800.0;
constexpr int kRounds = 40;
constexpr double kOverheadGate = 0.05;

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
  double cpu_s_per_token = 0.0;  ///< process CPU while serving, per token
  double tok_s = 0.0;            ///< sustained serving throughput
  double serve_wall_s = 0.0;     ///< release-to-drain wall time
  double export_wall_s = 0.0;    ///< Chrome JSON + Prometheus text (mode c)
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
  const double cpu0 = ProcessCpuSeconds();
  APT_ASSIGN_OR_RETURN(
      AsyncServingResult live,
      runner.RunAsync(trace, Fcfs(), EngineFactory(&sinks), SloSpec{5.0, 5.0},
                      async));
  const double cpu_s = ProcessCpuSeconds() - cpu0;

  RunResult out;
  out.cpu_s_per_token =
      live.wall.tokens > 0 ? cpu_s / static_cast<double>(live.wall.tokens)
                           : 0.0;
  out.tok_s = live.wall.throughput_tok_s;
  out.serve_wall_s = live.wall_duration_s;
  out.tokens = live.wall.tokens;
  if (mode != Mode::kOff) {
    out.events_emitted = recorder.TotalEmitted();
    out.events_dropped = recorder.TotalDropped();
  }
  if (mode == Mode::kFullExport) {
    const double t0 = NowSeconds();
    std::ostringstream json;
    obs::ExportChromeTrace(recorder.Flush(), json);
    const std::string prom = metrics.ExportPrometheus();
    out.export_wall_s = NowSeconds() - t0;
    out.export_bytes = json.str().size() + prom.size();
  }
  return out;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

int main() {
  const unsigned hw = std::thread::hardware_concurrency();
  bench::BenchJson::Instance().SetName("bench_trace_overhead");
  bench::BenchJson::Instance()
      .config()
      .Int("hardware_concurrency", hw)
      .Int("instances", kInstances)
      .Int("requests", kRequests)
      .Num("replay_speedup", kReplaySpeedup)
      .Int("rounds", kRounds)
      .Num("overhead_gate", kOverheadGate);

  const auto trace = BenchTrace();
  const Mode modes[] = {Mode::kOff, Mode::kRecorder, Mode::kFullExport};

  // Interleaved rounds: one pass of each mode per round, so machine noise
  // (another process, frequency drift) lands on all three alike; the gate
  // reads each round's recorder/off ratio.
  std::vector<RunResult> runs[3];
  std::vector<double> ratios;
  for (int round = 0; round < kRounds; ++round) {
    for (int m = 0; m < 3; ++m) {
      auto r = RunOnce(modes[m], trace);
      if (!r.ok()) {
        std::fprintf(stderr, "%s run: %s\n", ModeName(modes[m]),
                     r.status().ToString().c_str());
        return 1;
      }
      runs[m].push_back(*r);
    }
    ratios.push_back(runs[1].back().cpu_s_per_token /
                     runs[0].back().cpu_s_per_token);
  }

  std::printf("=== Trace overhead on the async path (median of %d "
              "interleaved rounds, hw=%u) ===\n",
              kRounds, hw);
  std::printf("%12s %14s %12s %10s %10s %10s %12s\n", "mode", "cpu_us/token",
              "tok/s", "wall(s)", "events", "dropped", "export");
  for (int m = 0; m < 3; ++m) {
    std::vector<double> cpu, tok_s, wall, export_s;
    for (const RunResult& r : runs[m]) {
      cpu.push_back(r.cpu_s_per_token);
      tok_s.push_back(r.tok_s);
      wall.push_back(r.serve_wall_s);
      export_s.push_back(r.export_wall_s);
    }
    const RunResult& last = runs[m].back();
    std::printf("%12s %14.2f %12.0f %10.4f %10llu %10llu %9.4fs/%zuB\n",
                ModeName(modes[m]), 1e6 * Median(cpu), Median(tok_s),
                Median(wall),
                static_cast<unsigned long long>(last.events_emitted),
                static_cast<unsigned long long>(last.events_dropped),
                Median(export_s), last.export_bytes);

    bench::JsonObject e;
    e.Str("mode", ModeName(modes[m]))
        .Num("cpu_us_per_token", 1e6 * Median(cpu))
        .Num("sustained_tok_per_s", Median(tok_s))
        .Num("serve_wall_seconds", Median(wall))
        .Int("tokens", last.tokens)
        .Int("events_emitted", static_cast<int64_t>(last.events_emitted))
        .Int("events_dropped", static_cast<int64_t>(last.events_dropped))
        .Num("export_seconds", Median(export_s))
        .Int("export_bytes", static_cast<int64_t>(last.export_bytes));
    bench::BenchJson::Instance().AddEntry(std::move(e));
  }

  const double overhead = Median(ratios) - 1.0;
  const auto [lo, hi] = std::minmax_element(ratios.begin(), ratios.end());
  std::printf("\nRing-buffer tracing overhead: %.2f%% CPU per token, median "
              "of %d rounds (range %.2f%% to %.2f%%; gate: <=5%%)\n",
              100.0 * overhead, kRounds, 100.0 * (*lo - 1.0),
              100.0 * (*hi - 1.0));

  bench::JsonObject summary;
  summary.Str("mode", "summary")
      .Num("recorder_overhead_fraction", overhead)
      .Num("recorder_overhead_min", *lo - 1.0)
      .Num("recorder_overhead_max", *hi - 1.0)
      .Bool("overhead_within_gate", overhead <= kOverheadGate);
  bench::BenchJson::Instance().AddEntry(std::move(summary));

  if (overhead > kOverheadGate) {
    std::fprintf(stderr,
                 "GATE FAILED: ring-buffer tracing costs %.2f%% CPU per token "
                 "(budget 5%%)\n",
                 100.0 * overhead);
    return 1;
  }
  return 0;
}
