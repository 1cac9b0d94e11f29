#include "workloads.h"

#include <algorithm>
#include <cmath>

#include "core/apt_scheduler.h"
#include "obs/trace_recorder.h"
#include "serve/cost_model_backend.h"
#include "serve/serving_loop.h"
#include "workload/shared_prefix.h"
#include "workload/token_ids.h"
#include "workload/trace.h"

namespace perfbench {

using aptserve::Request;
using aptserve::Status;
using aptserve::StatusOr;

namespace {

constexpr uint64_t kWeightSeed = 9;
/// ShareGPT-shaped lengths reach 1024 + 1024 tokens; the open-loop
/// workloads scale them into the model context.
constexpr double kShareGptMaxTotal = 2048.0;
constexpr int32_t kPrefixTurns = 6;
/// Think time between turns, as a share of the trace span.
constexpr double kPrefixThinkShare = 0.03;
/// Requests in the cost-model mix: enough to keep effective throughput
/// steady across seeds.
constexpr int32_t kMixRequests = 4000;
/// Arrival cv of the cost-model mix: sim's bursty Gamma process.
constexpr double kMixCv = 2.0;
constexpr uint64_t kOfflineLengthSeed = 1;
/// Engine threads per instance of the (two-instance) token reference run:
/// with the fleet's own thread that is four in all.
constexpr int32_t kReferenceEngineThreads = 2;

uint64_t TokenSeed(uint64_t seed) { return seed * 0x9e3779b97f4a7c15ULL + 17; }

/// Rescales arrivals so the trace spans exactly n / rate seconds (the
/// last arrival lands there): a renewal process conditioned on its count.
void NormalizeSpan(std::vector<Request>* trace, double rate) {
  if (trace->empty() || trace->back().arrival <= 0.0) return;
  const double scale =
      (static_cast<double>(trace->size()) / rate) / trace->back().arrival;
  for (Request& r : *trace) r.arrival *= scale;
}

StatusOr<std::vector<Request>> ShareGptScaled(const WorkloadSpec& spec,
                                              int32_t n, uint64_t seed) {
  aptserve::TraceConfig tc;
  tc.profile = aptserve::DatasetProfile::ShareGpt();
  tc.num_requests = n;
  tc.rate_per_sec = 1.0;
  tc.cv = spec.arrival_cv;
  tc.seed = seed;
  APT_ASSIGN_OR_RETURN(std::vector<Request> trace, aptserve::BuildTrace(tc));
  const double scale = (spec.model.max_seq_len - 1) / kShareGptMaxTotal;
  for (Request& r : trace) {
    r.prompt_len = std::max(1, static_cast<int32_t>(r.prompt_len * scale));
    r.output_len = std::max(1, static_cast<int32_t>(r.output_len * scale));
  }
  aptserve::EnsureTokenIds(&trace, TokenSeed(seed), spec.model.vocab_size);
  return trace;
}

StatusOr<std::vector<Request>> SharedPrefix(const WorkloadSpec& spec,
                                            int32_t n, double span_s,
                                            uint64_t seed) {
  aptserve::SharedPrefixConfig c;
  c.system_prompt_len = 96;
  c.turns_per_conversation = kPrefixTurns;
  c.num_conversations = std::max(2, n / kPrefixTurns);
  c.tokens_per_turn = 24;
  c.output_len_mean = 16;
  c.output_jitter = 0.25;
  // Conversations start across the span, one every stagger, each a quick
  // run of turns one think time apart; the turns of neighbouring
  // conversations land close together, so arrivals come in small bursts.
  c.think_time_s = kPrefixThinkShare * span_s;
  c.conversation_stagger_s =
      (span_s - (kPrefixTurns - 1) * c.think_time_s) /
      (c.num_conversations - 1);
  c.vocab_size = spec.model.vocab_size;
  c.seed = seed;
  return aptserve::BuildSharedPrefixTrace(c);
}

/// HumanEval-shaped lengths drawn with `length_seed`, prompt content from
/// `seed`, every request released at t=0.
StatusOr<std::vector<Request>> HumanEvalAtZero(const WorkloadSpec& spec,
                                               int32_t n, uint64_t length_seed,
                                               uint64_t seed) {
  aptserve::TraceConfig tc;
  tc.profile = aptserve::DatasetProfile::HumanEval();
  tc.num_requests = n;
  tc.seed = length_seed;
  tc.max_total_len = spec.model.max_seq_len - 1;
  APT_ASSIGN_OR_RETURN(std::vector<Request> trace, aptserve::BuildTrace(tc));
  for (Request& r : trace) r.arrival = 0.0;
  aptserve::EnsureTokenIds(&trace, TokenSeed(seed), spec.model.vocab_size);
  return trace;
}

StatusOr<std::vector<Request>> ShareGptGamma(int32_t n, double cv,
                                             uint64_t seed) {
  aptserve::TraceConfig tc;
  tc.profile = aptserve::DatasetProfile::ShareGpt();
  tc.num_requests = n;
  tc.rate_per_sec = 1.0;
  tc.cv = cv;
  tc.seed = seed;
  return aptserve::BuildTrace(tc);
}

int32_t OpenLoopRequests(const WorkloadSpec& spec, double seconds) {
  return std::max(
      1, static_cast<int32_t>(std::lround(spec.rate_rps * seconds)));
}

}  // namespace

StatusOr<WorkloadSpec> FindWorkload(const std::string& name) {
  WorkloadSpec s;
  s.name = name;
  if (name == "chat" || name == "prefix") {
    s.wall_clock = true;
    s.engine = true;
    s.model = aptserve::ModelConfig{};
    s.instances = 2;
    s.num_blocks = 2048;
    s.slo = aptserve::SloSpec{0.1, 0.05};
    s.rate_rps = 120.0;
    if (name == "chat") {
      s.route_policy = aptserve::RoutePolicy::kLeastLoaded;
    } else {
      s.route_policy = aptserve::RoutePolicy::kPrefixAffinity;
      s.prefix_sharing = true;
    }
    return s;
  }
  if (name == "offline") {
    s.engine = true;
    s.model = aptserve::ModelConfig::Small();
    s.instances = 1;
    s.num_blocks = 600;
    s.slo = aptserve::SloSpec{1.0, 1.0};
    s.num_requests = 65;
    s.min_passes = 3;
    return s;
  }
  if (name == "sim") {
    s.instances = 4;
    s.route_policy = aptserve::RoutePolicy::kLeastOutstandingWork;
    s.slo = kPaperSlo;
    s.rate_rps = 6.0;
    s.num_requests = 2000;
    s.arrival_cv = 2.0;
    s.min_passes = 2;
    s.sub_traces = 8;
    s.host_normalized = true;
    return s;
  }
  return Status::InvalidArgument("unknown workload '" + name + "'");
}

StatusOr<std::vector<Request>> BuildWorkloadTrace(const WorkloadSpec& spec,
                                                  uint64_t seed,
                                                  double seconds) {
  if (spec.name == "chat") {
    APT_ASSIGN_OR_RETURN(
        std::vector<Request> trace,
        ShareGptScaled(spec, OpenLoopRequests(spec, seconds), seed));
    NormalizeSpan(&trace, spec.rate_rps);
    return trace;
  }
  if (spec.name == "prefix") {
    return SharedPrefix(spec, OpenLoopRequests(spec, seconds), seconds, seed);
  }
  if (spec.name == "offline") {
    // One fixed length draw: the schedule (batches, preemptions, cache
    // types) depends only on lengths, so every seed serves the same
    // schedule and pass_s / output_tok_per_s compare code, not draws. The
    // seed picks the prompt content.
    return HumanEvalAtZero(spec, spec.num_requests, kOfflineLengthSeed, seed);
  }
  APT_ASSIGN_OR_RETURN(
      std::vector<Request> trace,
      ShareGptGamma(spec.num_requests, spec.arrival_cv, seed));
  NormalizeSpan(&trace, spec.rate_rps);
  return trace;
}

StatusOr<std::vector<Request>> BuildMixTrace(uint64_t seed) {
  APT_ASSIGN_OR_RETURN(std::vector<Request> trace,
                       ShareGptGamma(kMixRequests, kMixCv, seed));
  NormalizeSpan(&trace, 1.0);
  return trace;
}

aptserve::SchedulerFactory AptFactory(const aptserve::SloSpec& slo) {
  return [slo]() -> std::unique_ptr<aptserve::Scheduler> {
    aptserve::AptConfig c;
    c.slo = slo;
    return std::make_unique<aptserve::AptScheduler>(c);
  };
}

aptserve::RouterConfig RouterFor(const WorkloadSpec& spec) {
  aptserve::RouterConfig rc;
  rc.n_instances = spec.instances;
  rc.policy = spec.route_policy;
  rc.block_size = kBlockSize;
  return rc;
}

const aptserve::CostModel& PaperCostModel() {
  static const aptserve::CostModel* model = [] {
    const aptserve::ModelSpec m = aptserve::ModelSpec::Opt13B();
    return new aptserve::CostModel(m, aptserve::ClusterSpec::ForModel(m));
  }();
  return *model;
}

std::unique_ptr<aptserve::ExecutionBackend> MakeEngine(
    const WorkloadSpec& spec, bool virtual_timing, bool prefix_sharing,
    int32_t threads, TokenMap* sink) {
  aptserve::InferenceBackendOptions o;
  o.runtime.num_threads = threads;
  o.rho_seconds_per_token = kRhoSecondsPerToken;
  o.virtual_timing = virtual_timing;
  o.enable_prefix_sharing = prefix_sharing;
  o.finished_sink = sink;
  return std::make_unique<aptserve::InferenceBackend>(
      spec.model, kWeightSeed, spec.num_blocks, kBlockSize,
      aptserve::SamplingParams::Greedy(), o);
}

namespace {

StatusOr<std::unique_ptr<aptserve::ExecutionBackend>> MakeCostModelBackend() {
  aptserve::CostModelBackend::Options o;
  o.block_size = kBlockSize;
  APT_ASSIGN_OR_RETURN(std::unique_ptr<aptserve::CostModelBackend> b,
                       aptserve::CostModelBackend::Create(PaperCostModel(), o));
  return std::unique_ptr<aptserve::ExecutionBackend>(std::move(b));
}

std::unique_ptr<aptserve::MultiInstanceRunner> MakeRunner(
    const WorkloadSpec& spec, bool cost_model_router, int32_t fleet_threads) {
  aptserve::RuntimeConfig rt;
  rt.num_threads = fleet_threads;
  return std::make_unique<aptserve::MultiInstanceRunner>(
      aptserve::Router(RouterFor(spec),
                       cost_model_router ? &PaperCostModel() : nullptr),
      aptserve::ServingLoopConfig{}, rt);
}

/// Hands the prepared instances to the fleet, one per factory call.
aptserve::BackendFactory HandOver(
    std::vector<std::unique_ptr<aptserve::ExecutionBackend>>* backends) {
  return [backends](int32_t i)
             -> StatusOr<std::unique_ptr<aptserve::ExecutionBackend>> {
    auto& slot = backends->at(static_cast<size_t>(i));
    if (!slot) return Status::Internal("instance handed over twice");
    return std::move(slot);
  };
}

TokenMap Flatten(std::vector<TokenMap>* sinks) {
  TokenMap all;
  for (TokenMap& m : *sinks) {
    for (auto& [id, toks] : m) all[id] = std::move(toks);
  }
  return all;
}

void FillFromFleet(const aptserve::MultiInstanceResult& r, Pass* pass) {
  for (int32_t n : r.requests_per_instance) pass->finished += n;
  pass->rejected = r.rejected_requests;
  pass->tokens_generated = r.tokens_generated;
  pass->program_report = r.combined;
  pass->prefix = r.prefix;
  pass->prefill_computed = r.prefill_tokens_computed;
  pass->prefill_skipped = r.prefill_tokens_skipped;
}

}  // namespace

StatusOr<Prepared> Prepare(const WorkloadSpec& spec, uint64_t seed,
                           double seconds) {
  Prepared p;
  APT_ASSIGN_OR_RETURN(p.trace, BuildWorkloadTrace(spec, seed, seconds));
  p.sinks = std::make_unique<std::vector<TokenMap>>(spec.instances);
  for (int32_t i = 0; i < spec.instances; ++i) {
    if (spec.engine) {
      p.backends.push_back(MakeEngine(spec, !spec.wall_clock,
                                      spec.prefix_sharing, kEngineThreads,
                                      &(*p.sinks)[static_cast<size_t>(i)]));
    } else {
      APT_ASSIGN_OR_RETURN(auto b, MakeCostModelBackend());
      p.backends.push_back(std::move(b));
    }
  }
  if (spec.name != "offline") {
    p.runner = MakeRunner(spec, /*cost_model_router=*/!spec.engine,
                          /*fleet_threads=*/1);
  }
  return p;
}

StatusOr<Pass> RunPass(const WorkloadSpec& spec, Prepared prepared, bool timed,
                       double seconds) {
  Pass pass;
  pass.traced = timed;
  pass.sent = static_cast<int64_t>(prepared.trace.size());
  pass.probes = std::make_unique<ProbeSet>(
      spec.engine ? TokenFrame::kWall : TokenFrame::kLoop, timed);
  ProbeSet& probes = *pass.probes;

  if (spec.wall_clock) {
    aptserve::AsyncServingConfig async;
    async.replay_speedup = 1.0;
    async.max_wall_seconds = 4.0 * seconds + 30.0;
    std::unique_ptr<aptserve::obs::TraceRecorder> recorder;
    if (timed) {
      recorder = std::make_unique<aptserve::obs::TraceRecorder>();
      async.trace = recorder.get();
    }
    pass.Start();
    auto r = prepared.runner->RunAsync(
        prepared.trace, probes.Wrap(AptFactory(spec.slo)),
        probes.Wrap(HandOver(&prepared.backends)), spec.slo, async);
    pass.Stop();
    APT_RETURN_NOT_OK(r.status());
    FillFromFleet(r->serve, &pass);
    pass.queue_high_water = r->arrival_queue_high_water;
    pass.shed_migrations = r->shed_migrations;
    pass.tokens = Flatten(prepared.sinks.get());
    if (recorder) {
      std::unordered_map<RequestId, double> due;
      for (const Request& req : prepared.trace) {
        due[req.id] = req.arrival / async.replay_speedup;
      }
      for (const aptserve::obs::TraceEvent& e : recorder->Flush()) {
        if (e.op != aptserve::obs::TraceOp::kRouteDecision) continue;
        auto it = due.find(e.id);
        if (it != due.end()) pass.route_late_s.push_back(e.ts - it->second);
      }
    }
    return pass;
  }

  if (spec.name == "offline") {
    InstanceProbe* probe = probes.Add();
    probe->has_backend = true;
    TimedScheduler scheduler(AptFactory(spec.slo)(), probe);
    TimedBackend backend(std::move(prepared.backends[0]), probe);
    aptserve::ServingLoop loop(&backend, aptserve::ServingLoopConfig{});
    pass.Start();
    auto r = loop.Run(prepared.trace, &scheduler, spec.slo);
    pass.Stop();
    APT_RETURN_NOT_OK(r.status());
    for (const auto& [id, rec] : r->records) {
      if (rec.finish_time >= 0) ++pass.finished;
    }
    pass.tokens_generated = r->tokens_generated;
    pass.program_report = r->report;
    pass.prefix = r->prefix;
    pass.prefill_computed = r->prefill_tokens_computed;
    pass.prefill_skipped = r->prefill_tokens_skipped;
    pass.tokens = Flatten(prepared.sinks.get());
    return pass;
  }

  pass.Start();
  auto r = prepared.runner->Run(prepared.trace,
                                probes.Wrap(AptFactory(spec.slo)),
                                probes.Wrap(HandOver(&prepared.backends)),
                                spec.slo);
  pass.Stop();
  APT_RETURN_NOT_OK(r.status());
  FillFromFleet(*r, &pass);
  return pass;
}

StatusOr<TokenMap> VirtualEngineTokens(const WorkloadSpec& spec,
                                       const std::vector<Request>& trace,
                                       bool prefix_sharing) {
  std::vector<TokenMap> sinks(spec.instances);
  std::vector<std::unique_ptr<aptserve::ExecutionBackend>> backends;
  for (int32_t i = 0; i < spec.instances; ++i) {
    backends.push_back(MakeEngine(spec, /*virtual_timing=*/true,
                                  prefix_sharing, kReferenceEngineThreads,
                                  &sinks[static_cast<size_t>(i)]));
  }
  auto runner = MakeRunner(spec, /*cost_model_router=*/false,
                           /*fleet_threads=*/spec.instances);
  APT_RETURN_NOT_OK(runner
                        ->Run(trace, AptFactory(spec.slo), HandOver(&backends),
                              spec.slo)
                        .status());
  return Flatten(&sinks);
}

StatusOr<aptserve::MultiInstanceResult> RunCostModelFleet(
    const WorkloadSpec& spec, const std::vector<Request>& trace,
    int32_t fleet_threads, ProbeSet* probes) {
  auto runner = MakeRunner(spec, /*cost_model_router=*/true, fleet_threads);
  aptserve::SchedulerFactory sched = AptFactory(kPaperSlo);
  aptserve::BackendFactory backend =
      [](int32_t) { return MakeCostModelBackend(); };
  if (probes != nullptr) {
    sched = probes->Wrap(std::move(sched));
    backend = probes->Wrap(std::move(backend));
  }
  return runner->Run(trace, sched, backend, kPaperSlo);
}

StatusOr<Pass> RunCostModelPass(const WorkloadSpec& spec,
                                const std::vector<Request>& trace) {
  Pass pass;
  pass.sent = static_cast<int64_t>(trace.size());
  pass.probes = std::make_unique<ProbeSet>(TokenFrame::kLoop, false);
  APT_ASSIGN_OR_RETURN(
      aptserve::MultiInstanceResult r,
      RunCostModelFleet(spec, trace, /*fleet_threads=*/1, pass.probes.get()));
  FillFromFleet(r, &pass);
  return pass;
}

}  // namespace perfbench
