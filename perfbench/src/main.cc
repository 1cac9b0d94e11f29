// perfbench: one benchmark run.
//
//   perfbench --workload <chat|prefix|offline|sim> --seed N --seconds S
//             --trace <0|1>
//
// Builds the workload's trace from the seed, sets it up several times
// (set-up time is the median), serves it through the program's public
// entry points, checks every request's output, and prints two JSON lines:
// a full report (stamp, trace properties, gate, every metric) and, last,
// the result object {"correct", "attempted", "failed", "metrics"} holding
// the end-to-end metrics (--trace 0) or the per-layer metrics of a traced
// pass (--trace 1). METRICS.md is the catalogue.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "baselines/fcfs_scheduler.h"
#include "common/json.h"
#include "engine/ops_simd.h"
#include "measure.h"
#include "serve/serving_loop.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

using aptserve::Request;
using aptserve::Status;
using aptserve::StatusOr;

constexpr int32_t kMinSetups = 9;
/// Offered load of the engine workloads' cost-model latency readout, as a
/// share of the effective throughput of their fleet width.
constexpr double kReadoutLoad = 0.3;
/// Independent cost-model mix draws the readout pools: its TTFT p99 on one
/// 4000-request draw spread 0.11 over ten seeds on the one-instance fleet.
constexpr int32_t kReadoutDraws = 4;
/// Requests re-served alone as the offline token reference.
constexpr size_t kOfflineReferenceRequests = 6;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args->trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const Metrics& m) {
  std::string out = "{";
  for (const auto& [name, metric] : m) {
    if (out.size() > 1) out += ", ";
    out += "\"" + aptserve::json::EscapeJsonString(name) + "\": {\"value\": " +
           Num(metric.value) + ", \"unit\": \"" + metric.unit + "\"}";
  }
  return out + "}";
}

std::string MapJson(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [name, v] : m) {
    if (out.size() > 1) out += ", ";
    out += "\"" + aptserve::json::EscapeJsonString(name) + "\": " + Num(v);
  }
  return out + "}";
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// FNV-1a over every request's token stream in trace order (0 when the
/// workload produces no tokens): equal digests across runs of one seed
/// show the served tokens repeat exactly.
uint64_t TokenDigest(const std::vector<Request>& trace,
                     const TokenMap& tokens) {
  if (tokens.empty()) return 0;
  uint64_t h = 1469598103934665603ULL;
  for (const Request& r : trace) {
    auto it = tokens.find(r.id);
    if (it == tokens.end()) continue;
    for (int32_t t : it->second) {
      h = (h ^ static_cast<uint32_t>(t)) * 1099511628211ULL;
    }
    h = (h ^ 0xffffffffULL) * 1099511628211ULL;
  }
  return h;
}

/// Requests whose tokens in `got` are missing or differ from `want`.
std::unordered_set<RequestId> Diverged(const std::vector<Request>& trace,
                                       const TokenMap& want,
                                       const TokenMap& got) {
  std::unordered_set<RequestId> bad;
  for (const Request& r : trace) {
    auto w = want.find(r.id);
    auto g = got.find(r.id);
    if (w == want.end() || g == got.end() || w->second != g->second) {
      bad.insert(r.id);
    }
  }
  return bad;
}

/// Offline token reference: a few requests, the hidden-cache and
/// preempted ones first, re-served one at a time on a fresh serial engine.
StatusOr<TokenMap> IsolatedTokens(const WorkloadSpec& spec,
                                  const std::vector<Request>& trace,
                                  const Pass& pass) {
  const InstanceProbe& probe = pass.probes->probes().front();
  std::vector<Request> pick;
  auto take = [&](auto&& wanted) {
    for (const Request& r : trace) {
      if (pick.size() >= kOfflineReferenceRequests) return;
      const bool have =
          std::any_of(pick.begin(), pick.end(),
                      [&](const Request& p) { return p.id == r.id; });
      if (!have && wanted(r)) pick.push_back(r);
    }
  };
  take([&](const Request& r) { return probe.hidden_requests.count(r.id) > 0; });
  pick.resize(std::min(pick.size(), kOfflineReferenceRequests / 2));
  take([&](const Request& r) {
    return probe.preempted_requests.count(r.id) > 0;
  });
  take([](const Request&) { return true; });
  for (size_t i = 0; i < pick.size(); ++i) pick[i].arrival = 1e4 * i;

  TokenMap sink;
  auto backend = MakeEngine(spec, /*virtual_timing=*/true, spec.prefix_sharing,
                            /*threads=*/1, &sink);
  aptserve::FcfsScheduler fcfs;
  aptserve::ServingLoop loop(backend.get(), aptserve::ServingLoopConfig{});
  APT_RETURN_NOT_OK(loop.Run(pick, &fcfs, spec.slo).status());
  return sink;
}

struct Gate {
  bool ok = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> notes;

  void Fail(const std::string& why) {
    ok = false;
    notes.push_back(why);
  }
};

/// Seconds a pass is measured by: wall on the open-loop workloads (a
/// replay spans its arrival window), process CPU on offline and sim, whose
/// passes run on one thread, so time the host takes the CPU away stays out;
/// on sim scaled to the reference host speed by the pass's yardstick.
double PassSeconds(const WorkloadSpec& spec, const Pass& p,
                   double yardstick_s) {
  if (spec.wall_clock) return p.wall_s;
  return spec.host_normalized ? p.cpu_s * kYardstickReferenceS / yardstick_s
                              : p.cpu_s;
}

/// Appends `o`'s samples and counts to `pooled`.
void Pool(const Outcome& o, Outcome* pooled) {
  pooled->ttft_s.insert(pooled->ttft_s.end(), o.ttft_s.begin(),
                        o.ttft_s.end());
  pooled->tbt_s.insert(pooled->tbt_s.end(), o.tbt_s.begin(), o.tbt_s.end());
  pooled->slo_met += o.slo_met;
  pooled->lost += o.lost;
  pooled->tokens_observed += o.tokens_observed;
}

int Fatal(const char* what, const Status& s) {
  std::fprintf(stderr, "%s: %s\n", what, s.ToString().c_str());
  return 2;
}

int Run(const Args& args) {
  auto found = FindWorkload(args.workload);
  if (!found.ok()) return Fatal("workload", found.status());
  const WorkloadSpec spec = *found;
  const double run_start = NowS();

  // A traced run times an untraced and a traced pass of one trace.
  const size_t n_traces =
      args.trace ? 1 : static_cast<size_t>(spec.sub_traces);
  auto seed_of = [&](size_t i) {
    return spec.sub_traces > 1
               ? SubTraceSeed(args.seed, static_cast<int32_t>(i % n_traces))
               : args.seed;
  };
  // The yardstick runs before every set-up; it scales the set-up (on every
  // workload) and, where the workload is host-normalised, the pass that
  // follows it.
  std::vector<double> setup_s;
  double yardstick_s = 0.0;
  auto prepare = [&](uint64_t seed) -> StatusOr<Prepared> {
    yardstick_s = YardstickS();
    const double t0 = CpuS();
    auto p = Prepare(spec, seed, args.seconds);
    setup_s.push_back((CpuS() - t0) * kYardstickReferenceS / yardstick_s);
    return p;
  };
  for (int32_t i = 0; i + 1 < kMinSetups; ++i) {
    if (auto p = prepare(seed_of(0)); !p.ok()) {
      return Fatal("setup", p.status());
    }
  }

  // ---- Measured passes and the correctness gate ---------------------------
  // Open-loop workloads replay their trace once per pass, and every pass
  // must reproduce a virtual-time run of the same trace token for token
  // (on prefix, also a run with sharing off). Offline and sim repeat passes
  // while the time budget lasts (sim in whole rounds over its sub-traces,
  // at least one round and two passes): offline pass 0 must match requests
  // re-served alone and later passes its tokens; every sim pass must
  // repeat the first pass of its sub-trace exactly. A traced run times an
  // untraced pass, then a traced one (pass 1), for the tracing overhead;
  // its per-layer metrics come from pass 1. The first round (pass 0 alone
  // on every workload but sim) is the measured outcome.
  Gate gate;
  std::vector<Pass> passes;
  std::vector<double> pass_yardstick_s;
  std::vector<std::vector<Request>> traces;
  std::vector<Outcome> firsts;
  int64_t first_sent = 0;
  int64_t first_failed = 0;
  int64_t first_hidden = 0;
  int64_t first_preempted = 0;
  std::vector<double> untraced_s, untraced_wall_s, untraced_tok_per_s;
  std::vector<double> untraced_cpu_s, traced_cpu_s;
  auto check = [&](size_t i, const std::unordered_set<RequestId>& bad) {
    Pass& p = passes[i];
    const std::vector<Request>& trace = traces[i % n_traces];
    const Outcome o = Derive(trace, p, spec.slo, bad);
    const std::string tag = "pass " + std::to_string(i) + ": ";
    (p.traced ? traced_cpu_s : untraced_cpu_s).push_back(p.cpu_s);
    if (!p.traced) {
      const double s = PassSeconds(spec, p, pass_yardstick_s[i]);
      untraced_s.push_back(s);
      untraced_wall_s.push_back(p.wall_s);
      untraced_tok_per_s.push_back(p.tokens_generated / s);
    }
    const int64_t failed = o.lost + static_cast<int64_t>(bad.size());
    gate.attempted += p.sent;
    gate.failed += failed;
    if (p.sent != p.finished + p.rejected) {
      gate.Fail(tag + "sent != finished + rejected");
    }
    if (failed == 0 && o.tokens_observed != p.tokens_generated) {
      gate.Fail(tag + "probe token count differs from the program's");
    }
    for (const InstanceProbe& probe : p.probes->probes()) {
      if (probe.token_gaps > 0) gate.Fail(tag + "loop-frame token log skipped");
    }
    if (!spec.engine) {
      // Virtual time: the probe's derivation reproduces the program's own
      // SLO report, and every pass repeats the first exactly.
      if (failed == 0 && o.slo_met != p.program_report.slo_met_requests) {
        gate.Fail(tag + "derived SLO outcome differs from the program's");
      }
      if (i >= n_traces) {
        const Outcome& f = firsts[i % n_traces];
        if (o.slo_met != f.slo_met || o.ttft_s != f.ttft_s ||
            o.tbt_s != f.tbt_s) {
          gate.Fail(tag + "not a repeat of the first pass of its trace");
        }
      }
    }
    if (i < n_traces) {
      firsts.push_back(o);  // copied: no growth slack in the peak RSS
      first_sent += p.sent;
      first_failed += failed;
      for (const InstanceProbe& probe : p.probes->probes()) {
        first_hidden += static_cast<int64_t>(probe.hidden_requests.size());
        first_preempted +=
            static_cast<int64_t>(probe.preempted_requests.size());
      }
    }
    // Keep only what later steps read: pass 0's tokens and the traced
    // pass's probes.
    if (!p.traced) p.probes.reset();
    if (i > 0) p.tokens.clear();
  };

  double wall_sum = 0.0;
  auto budget_left = [&] {
    return NowS() - run_start + wall_sum / passes.size() <= args.seconds;
  };
  const size_t min_passes =
      std::max({static_cast<size_t>(spec.min_passes),
                args.trace ? size_t{2} : size_t{1}, n_traces});
  while (passes.size() < min_passes ||
         (!spec.wall_clock &&
          (passes.size() % n_traces != 0 || budget_left()))) {
    auto p = prepare(seed_of(passes.size()));
    if (!p.ok()) return Fatal("setup", p.status());
    if (traces.size() < n_traces) traces.push_back(p->trace);
    pass_yardstick_s.push_back(yardstick_s);
    const std::vector<Request>& trace = traces[passes.size() % n_traces];
    const bool timed = args.trace && passes.size() % 2 == 1;
    auto pass = RunPass(spec, std::move(*p), timed, args.seconds);
    if (!pass.ok()) return Fatal("serve", pass.status());
    wall_sum += pass->wall_s;
    passes.push_back(std::move(*pass));
    const size_t i = passes.size() - 1;
    if (spec.wall_clock) continue;  // checked against the reference below
    std::unordered_set<RequestId> bad;
    if (spec.engine && i == 0) {
      auto ref = IsolatedTokens(spec, trace, passes[0]);
      if (!ref.ok()) return Fatal("reference", ref.status());
      for (const auto& [id, toks] : *ref) {
        auto it = passes[0].tokens.find(id);
        if (it == passes[0].tokens.end() || it->second != toks) bad.insert(id);
      }
    } else if (spec.engine) {
      bad = Diverged(trace, passes[0].tokens, passes[i].tokens);
    }
    check(i, bad);
  }
  const double peak_rss_mb = PeakRssMb();
  const std::vector<Request>& trace = traces.front();

  if (spec.wall_clock) {
    auto ref = VirtualEngineTokens(spec, trace, spec.prefix_sharing);
    if (!ref.ok()) return Fatal("reference", ref.status());
    std::unordered_set<RequestId> sharing_bad;
    if (spec.prefix_sharing) {
      auto off = VirtualEngineTokens(spec, trace, /*prefix_sharing=*/false);
      if (!off.ok()) return Fatal("reference", off.status());
      sharing_bad = Diverged(trace, *ref, *off);
      if (!sharing_bad.empty()) gate.Fail("prefix sharing changed tokens");
    }
    for (size_t i = 0; i < passes.size(); ++i) {
      std::unordered_set<RequestId> bad =
          Diverged(trace, *ref, passes[i].tokens);
      bad.insert(sharing_bad.begin(), sharing_bad.end());
      check(i, bad);
    }
  }

  // The first round, pooled after the peak RSS reading.
  Outcome first;
  for (const Outcome& o : firsts) Pool(o, &first);

  // ---- Metrics --------------------------------------------------------------
  const Pass& measured = passes.front();
  const double sent = static_cast<double>(first_sent);
  const double pass_s = Median(untraced_s);

  // End-to-end latency and SLO attainment (METRICS.md, "Clock frames"):
  // sim reads its own pass in virtual time. The engine workloads' served
  // latencies (the serve.* per-layer metrics) are too unsteady on a shared
  // host to carry a bound, so they read the cost-model fleet of their width
  // serving kReadoutDraws draws of the cost-model mix (the first is the
  // searched one) at kReadoutLoad of its effective throughput.
  Outcome virt = first;
  double virt_sent = sent;
  double effective_rps = 0.0;
  const double search_t0 = NowS();
  if (!args.trace) {
    auto mix = BuildMixTrace(args.seed);
    if (!mix.ok()) return Fatal("mix", mix.status());
    auto eff = EffectiveRps(spec, *mix);
    if (!eff.ok()) return Fatal("effective rps", eff.status());
    effective_rps = *eff;
    if (spec.engine) {
      virt = Outcome{};
      virt_sent = 0.0;
      for (int32_t k = 0; k < kReadoutDraws; ++k) {
        auto readout =
            k == 0 ? mix : BuildMixTrace(SubTraceSeed(args.seed, k));
        if (!readout.ok()) return Fatal("mix", readout.status());
        for (Request& r : *readout) r.arrival /= kReadoutLoad * effective_rps;
        auto cm = RunCostModelPass(spec, *readout);
        if (!cm.ok()) return Fatal("cost-model readout", cm.status());
        const Outcome o = Derive(*readout, *cm, kPaperSlo, {});
        if (cm->sent != cm->finished + cm->rejected || o.lost > 0 ||
            o.slo_met != cm->program_report.slo_met_requests) {
          gate.Fail("cost-model readout is inconsistent");
        }
        Pool(o, &virt);
        virt_sent += static_cast<double>(cm->sent);
      }
    }
  }

  const double search_wall_s = NowS() - search_t0;

  Metrics e2e;
  e2e["ttft_p50_ms"] = {Quantile(virt.ttft_s, 0.5) * 1e3, "ms"};
  e2e["ttft_p99_ms"] = {Quantile(virt.ttft_s, 0.99) * 1e3, "ms"};
  e2e["tbt_p50_ms"] = {Quantile(virt.tbt_s, 0.5) * 1e3, "ms"};
  e2e["tbt_p99_ms"] = {Quantile(virt.tbt_s, 0.99) * 1e3, "ms"};
  e2e["slo_attainment"] = {virt.slo_met / virt_sent, "fraction"};
  e2e["output_tok_per_s"] = {Median(untraced_tok_per_s), "tok/s"};
  e2e["pass_s"] = {pass_s, "s"};
  e2e["setup_s"] = {Median(setup_s), "s"};
  e2e["peak_rss_mb"] = {peak_rss_mb, "MB"};

  Metrics layers;
  if (args.trace) {
    const Pass& traced = passes[1];
    layers = LayerMetrics(spec, trace, traced);
    // The served path's own latencies (untraced pass 0; wall clock on the
    // engine workloads, virtual time on sim).
    layers["serve.ttft_p50_ms"] = {Quantile(first.ttft_s, 0.5) * 1e3, "ms"};
    layers["serve.ttft_p99_ms"] = {Quantile(first.ttft_s, 0.99) * 1e3, "ms"};
    layers["serve.tbt_p50_ms"] = {Quantile(first.tbt_s, 0.5) * 1e3, "ms"};
    layers["serve.tbt_p99_ms"] = {Quantile(first.tbt_s, 0.99) * 1e3, "ms"};
    layers["serve.slo_attainment"] = {first.slo_met / sent, "fraction"};
    const RouterReplay router = ReplayRouter(spec, trace);
    layers["router.route_us"] = {router.route_us, "us"};
    layers["router.probes_per_decision"] = {router.probes_per_decision,
                                            "count"};
    layers["router.affinity_hit_share"] = {router.affinity_hit_share,
                                           "fraction"};
    layers["router.load_imbalance"] = {router.load_imbalance, "ratio"};
    layers["trace.overhead_frac"] = {
        Median(traced_cpu_s) / Median(untraced_cpu_s) - 1.0, "fraction"};
  } else {
    e2e["effective_rps"] = {effective_rps, "req/s"};
  }

  // ---- Report ---------------------------------------------------------------
  const bool correct = gate.ok && gate.failed == 0;
  const std::map<std::string, double> counts = {
      {"passes", static_cast<double>(passes.size())},
      {"setups", static_cast<double>(setup_s.size())},
      {"requests_sent", sent},
      {"requests_succeeded", sent - static_cast<double>(first_failed)},
      {"requests_failed", static_cast<double>(first_failed)},
      {"requests_hidden_cache", static_cast<double>(first_hidden)},
      {"requests_preempted", static_cast<double>(first_preempted)},
      {"ttft_samples", static_cast<double>(first.ttft_s.size())},
      {"tbt_samples", static_cast<double>(first.tbt_s.size())},
      {"program_slo_attainment", measured.program_report.slo_attainment},
      {"pass_wall_s", Median(untraced_wall_s)},
      {"pass_cpu_s", Median(untraced_cpu_s)},
      {"yardstick_s", Median(pass_yardstick_s)},
      {"search_wall_s", search_wall_s},
  };
  std::string notes = "[";
  for (const std::string& n : gate.notes) {
    notes += (notes.size() > 1 ? ", \"" : "\"") +
             aptserve::json::EscapeJsonString(n) + "\"";
  }
  notes += "]";
  std::printf(
      "{\"report\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"stamp\": {\"nproc\": %u, \"isa\": \"%s\", "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"engine_threads\": %d, "
      "\"instances\": %d}, \"properties\": %s, \"counts\": %s, "
      "\"token_digest\": \"%016llx\", \"gate_notes\": %s, "
      "\"end_to_end\": %s, \"per_layer\": %s}}\n",
      spec.name.c_str(), static_cast<unsigned long long>(args.seed),
      Num(args.seconds).c_str(), args.trace ? 1 : 0,
      std::thread::hardware_concurrency(), aptserve::ops::simd::IsaName(),
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
      spec.engine ? kEngineThreads : 0, spec.instances,
      MapJson(TraceProperties(trace)).c_str(), MapJson(counts).c_str(),
      static_cast<unsigned long long>(TokenDigest(trace, measured.tokens)),
      notes.c_str(), MetricsJson(e2e).c_str(), MetricsJson(layers).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": "
      "%s}\n",
      correct ? "true" : "false", static_cast<long long>(gate.attempted),
      static_cast<long long>(gate.failed),
      MetricsJson(args.trace ? layers : e2e).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <chat|prefix|offline|sim> "
                 "--seed N --seconds S --trace <0|1>\n");
    return 2;
  }
  return perfbench::Run(args);
}
