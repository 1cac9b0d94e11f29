// Parity pin for the ServingLoop/ExecutionBackend refactor: the
// ServingLoop over a CostModelBackend must reproduce the pre-refactor
// simulator bit-for-bit. `LegacySimulatorRun` below is a faithful port of
// the original monolithic Simulator::Run (the loop as it existed before
// the serve/ layer), reading the same two configs the loop and backend
// take; every run compares its SloReport — every scalar and every latency
// sample — exactly, across schedulers, load levels and both preemption
// modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "backend_diff_util.h"
#include "bench/sweep/runner.h"
#include "common/rng.h"
#include "workload/shared_prefix.h"
#include "baselines/fcfs_scheduler.h"
#include "baselines/sarathi_scheduler.h"
#include "cache/block_pool.h"
#include "cache/hybrid_assigner.h"
#include "cache/swap_space.h"
#include "common/logging.h"
#include "core/apt_sarathi_scheduler.h"
#include "core/apt_scheduler.h"
#include "serve/cost_model_backend.h"
#include "serve/serving_loop.h"
#include "workload/trace.h"

namespace aptserve {
namespace {

// ---------------------------------------------------------------------------
// The pre-refactor iteration loop, verbatim (modulo the struct name).
// ---------------------------------------------------------------------------

struct LegacyResult {
  SloReport report;
  int64_t prefill_iterations = 0;
  int64_t decode_iterations = 0;
  int64_t mixed_iterations = 0;
  int32_t pool_blocks = 0;
  int32_t peak_blocks = 0;
  int64_t swap_outs = 0;
  int64_t swap_ins = 0;
  std::unordered_map<RequestId, RequestRecord> records;
};

StatusOr<LegacyResult> LegacySimulatorRun(
    const CostModel& cost_model, const CostModelBackend::Options& config,
    const ServingLoopConfig& loop, const std::vector<Request>& trace,
    Scheduler* scheduler, const SloSpec& slo) {
  APT_CHECK(scheduler != nullptr);
  int32_t pool_blocks = 0;
  if (config.pool_blocks_override > 0) {
    pool_blocks = config.pool_blocks_override;
  } else {
    APT_ASSIGN_OR_RETURN(double cache_bytes, cost_model.cluster().CacheBytes(
                                                 cost_model.model()));
    const double bb =
        config.block_size * cost_model.model().HiddenBytesPerToken();
    pool_blocks = static_cast<int32_t>(cache_bytes / bb);
    if (pool_blocks <= 0) {
      return Status::InvalidArgument("no cache memory available");
    }
  }
  BlockPool pool(pool_blocks, config.block_size);
  HybridCacheAssigner assigner(&pool);
  MetricsCollector metrics;
  const bool swap_mode = loop.preemption_mode == PreemptionMode::kSwap;
  SwapSpace swap(config.swap_blocks > 0 ? config.swap_blocks
                                        : 4 * pool_blocks);
  const double block_bytes =
      config.block_size * cost_model.model().HiddenBytesPerToken();
  double carry_swap_bytes = 0.0;

  std::vector<SimRequest> reqs;
  reqs.reserve(trace.size());
  for (const Request& r : trace) {
    SimRequest sr;
    sr.spec = r;
    if (r.prompt_len <= 0 || r.output_len <= 0) {
      return Status::InvalidArgument("request lengths must be positive");
    }
    reqs.push_back(sr);
    metrics.RegisterRequest(r);
  }
  std::sort(reqs.begin(), reqs.end(),
            [](const SimRequest& a, const SimRequest& b) {
              return a.spec.arrival < b.spec.arrival;
            });
  for (const SimRequest& sr : reqs) {
    const int32_t need =
        assigner.BlocksNeeded(CacheType::kHidden, sr.spec.total_len());
    if (need > pool_blocks) {
      return Status::InvalidArgument(
          "request " + std::to_string(sr.spec.id) +
          " cannot fit in the cache pool even with hidden cache");
    }
  }
  std::unordered_map<RequestId, size_t> index;
  for (size_t i = 0; i < reqs.size(); ++i) index[reqs[i].spec.id] = i;

  LegacyResult result;
  result.pool_blocks = pool_blocks;

  TimePoint now = 0.0;
  size_t next_arrival = 0;
  size_t finished = 0;
  int32_t consecutive_idle = 0;

  for (int64_t iter = 0; iter < loop.max_iterations; ++iter) {
    if (finished == reqs.size()) break;
    while (next_arrival < reqs.size() &&
           reqs[next_arrival].spec.arrival <= now) {
      ++next_arrival;
    }

    SchedulerInput input;
    input.now = now;
    input.pool = &pool;
    input.assigner = &assigner;
    input.cost_model = &cost_model;
    for (size_t i = 0; i < next_arrival; ++i) {
      SimRequest& sr = reqs[i];
      if (sr.phase == RequestPhase::kWaiting) {
        input.waiting.push_back(&sr);
      } else if (sr.phase == RequestPhase::kRunning) {
        input.running.push_back(&sr);
      }
    }
    if (input.waiting.empty() && input.running.empty()) {
      if (next_arrival < reqs.size()) {
        now = std::max(now, reqs[next_arrival].spec.arrival);
        continue;
      }
      break;
    }

    BatchPlan plan = scheduler->PlanIteration(input);

    for (const PreemptionItem& p : plan.preempt) {
      auto it = index.find(p.id);
      if (it == index.end()) {
        return Status::Internal("scheduler preempted unknown request");
      }
      SimRequest& sr = reqs[it->second];
      const bool preemptible =
          assigner.Has(p.id) && (sr.phase == RequestPhase::kRunning ||
                                 sr.phase == RequestPhase::kWaiting);
      if (!preemptible) {
        return Status::Internal(
            "scheduler preempted a request holding no cache");
      }
      const bool is_conversion = p.resume_cache_type != sr.cache_type;
      if (is_conversion) {
        APT_RETURN_NOT_OK(assigner.DiscardForConversion(p.id));
        ++sr.conversions;
        metrics.OnConversion();
      } else if (swap_mode && sr.phase == RequestPhase::kRunning &&
                 swap.SwapOut(p.id, sr.cache_type, sr.cached_tokens,
                              assigner.Find(p.id)->TotalBlocks())
                     .ok()) {
        carry_swap_bytes +=
            assigner.Find(p.id)->TotalBlocks() * block_bytes;
        APT_RETURN_NOT_OK(assigner.Release(p.id));
        metrics.OnPreemption();
        ++sr.preemptions;
        sr.phase = RequestPhase::kWaiting;
        sr.swapped = true;
        sr.prefill_progress = sr.cached_tokens;
        continue;
      } else {
        APT_RETURN_NOT_OK(assigner.Release(p.id));
        metrics.OnPreemption();
      }
      ++sr.preemptions;
      sr.phase = RequestPhase::kWaiting;
      sr.cache_type = p.resume_cache_type;
      sr.cached_tokens = 0;
      sr.prefill_progress = 0;
    }

    struct Applied {
      SimRequest* req;
      int32_t chunk;  // 0 => decode, -1 => swap-in (no token)
      int32_t prior_progress;
    };
    std::vector<Applied> applied;
    bool hit_memory_wall = false;
    double iter_swap_bytes = 0.0;
    int32_t accepted = 0;
    for (const ScheduledItem& item : plan.items) {
      if (accepted >= loop.max_batch_size) break;
      auto it = index.find(item.id);
      if (it == index.end()) {
        return Status::Internal("scheduler scheduled unknown request");
      }
      SimRequest& sr = reqs[it->second];
      if (sr.phase == RequestPhase::kFinished) {
        return Status::Internal("scheduler scheduled a finished request");
      }
      if (item.prefill_chunk == 0) {
        if (sr.phase != RequestPhase::kRunning || sr.cached_tokens < 1) {
          return Status::Internal("decode scheduled for non-running request");
        }
        if (item.cache_type != sr.cache_type) {
          return Status::Internal(
              "decode cache type mismatch; use preemption to convert");
        }
        Status st = assigner.Append(item.id, 1);
        if (st.IsOutOfMemory()) {
          APT_RETURN_NOT_OK(assigner.Release(item.id));
          metrics.OnPreemption();
          ++sr.preemptions;
          sr.phase = RequestPhase::kWaiting;
          sr.cached_tokens = 0;
          sr.prefill_progress = 0;
          hit_memory_wall = true;
          continue;
        }
        APT_RETURN_NOT_OK(st);
        applied.push_back({&sr, 0, 0});
        ++accepted;
      } else {
        if (sr.phase != RequestPhase::kWaiting) {
          return Status::Internal("prefill scheduled for running request");
        }
        if (sr.swapped) {
          const SwapSpace::Entry* entry = swap.Find(item.id);
          APT_CHECK(entry != nullptr);
          const int32_t need =
              assigner.BlocksNeeded(entry->type, entry->tokens);
          if (need > pool.num_free()) {
            hit_memory_wall = true;
            continue;
          }
          APT_ASSIGN_OR_RETURN(SwapSpace::Entry e, swap.SwapIn(item.id));
          APT_RETURN_NOT_OK(
              assigner.CreateFilled(item.id, e.type, e.tokens));
          iter_swap_bytes +=
              assigner.Find(item.id)->TotalBlocks() * block_bytes;
          sr.swapped = false;
          sr.phase = RequestPhase::kRunning;
          applied.push_back({&sr, -1, 0});
          ++accepted;
          continue;
        }
        const int32_t remaining = sr.PrefillTarget() - sr.prefill_progress;
        const int32_t chunk = std::min(item.prefill_chunk, remaining);
        if (chunk <= 0) {
          return Status::Internal("empty prefill chunk scheduled");
        }
        Status st;
        if (!assigner.Has(item.id)) {
          if (sr.has_first_token && sr.cache_type != item.cache_type) {
            metrics.OnConversion();
            ++sr.conversions;
          }
          sr.cache_type = item.cache_type;
          st = assigner.CreateFilled(item.id, item.cache_type, chunk);
        } else {
          if (item.cache_type != sr.cache_type) {
            return Status::Internal(
                "chunked prefill cannot switch cache type mid-pass");
          }
          st = assigner.Append(item.id, chunk);
        }
        if (st.IsOutOfMemory()) {
          hit_memory_wall = true;
          continue;
        }
        APT_RETURN_NOT_OK(st);
        applied.push_back({&sr, chunk, sr.prefill_progress});
        ++accepted;
      }
    }

    if (applied.empty()) {
      ++consecutive_idle;
      if (consecutive_idle > 1000) {
        return Status::Internal("scheduler made no progress for 1000 "
                                "iterations with requests pending");
      }
      if (next_arrival < reqs.size()) {
        now = std::max(now + cost_model.overhead(),
                       reqs[next_arrival].spec.arrival);
      } else {
        now += cost_model.overhead();
      }
      continue;
    }
    consecutive_idle = 0;

    BatchWorkload w;
    w.swap_bytes = carry_swap_bytes + iter_swap_bytes;
    carry_swap_bytes = 0.0;
    for (const Applied& a : applied) {
      if (a.chunk < 0) continue;
      if (a.chunk == 0) {
        ++w.decode_reqs;
        const int64_t ctx = a.req->cached_tokens;
        if (a.req->cache_type == CacheType::kHidden) {
          w.decode_hidden_context_tokens += ctx;
        } else {
          w.decode_kv_context_tokens += ctx;
        }
      } else {
        w.prefill_tokens += a.chunk;
        const int64_t k = a.prior_progress;
        const int64_t c = a.chunk;
        w.prefill_attend_tokens += c * k + c * (c + 1) / 2;
      }
    }
    const double latency = cost_model.IterationSeconds(w);
    const bool is_prefill_iter = w.prefill_tokens > 0 && w.decode_reqs == 0;
    const bool is_decode_iter = w.prefill_tokens == 0 && w.decode_reqs > 0;
    if (is_prefill_iter) {
      ++result.prefill_iterations;
    } else if (is_decode_iter) {
      ++result.decode_iterations;
    } else {
      ++result.mixed_iterations;
    }
    now += latency;

    for (const Applied& a : applied) {
      SimRequest& sr = *a.req;
      if (a.chunk < 0) continue;
      if (a.chunk == 0) {
        sr.cached_tokens += 1;
        ++sr.generated;
        metrics.Find(sr.spec.id)->OnToken(now, sr.last_token_time);
        sr.last_token_time = now;
      } else {
        sr.prefill_progress += a.chunk;
        sr.cached_tokens += a.chunk;
        if (sr.prefill_progress < sr.PrefillTarget()) continue;
        sr.phase = RequestPhase::kRunning;
        ++sr.generated;
        metrics.Find(sr.spec.id)->OnToken(now, sr.last_token_time);
        sr.has_first_token = true;
        sr.last_token_time = now;
      }
      if (sr.IsFinished()) {
        sr.phase = RequestPhase::kFinished;
        metrics.Find(sr.spec.id)->finish_time = now;
        APT_RETURN_NOT_OK(assigner.Release(sr.spec.id));
        ++finished;
      }
    }

    bool at_limit = hit_memory_wall;
    if (!at_limit) {
      for (size_t i = 0; i < next_arrival && !at_limit; ++i) {
        const SimRequest& sr = reqs[i];
        if (sr.phase != RequestPhase::kWaiting) continue;
        bool scheduled_now = false;
        for (const Applied& a : applied) {
          if (a.req == &sr) {
            scheduled_now = true;
            break;
          }
        }
        if (!scheduled_now &&
            assigner.BlocksNeeded(CacheType::kKV, sr.PrefillTarget()) >
                pool.num_free()) {
          at_limit = true;
        }
      }
    }
    metrics.OnIteration(latency, static_cast<int32_t>(applied.size()),
                        at_limit);
    result.peak_blocks = std::max(result.peak_blocks, pool.peak_allocated());
  }

  if (finished != reqs.size()) {
    return Status::Internal("simulation hit the iteration cap");
  }
  result.swap_outs = swap.total_swap_outs();
  result.swap_ins = swap.total_swap_ins();
  result.report = metrics.Report(slo);
  result.records = metrics.records();
  return result;
}

// ---------------------------------------------------------------------------
// Comparison harness.
// ---------------------------------------------------------------------------

CostModel MakeCostModel() {
  const ModelSpec model = ModelSpec::Opt13B();
  return CostModel(model, ClusterSpec::ForModel(model));
}

std::vector<Request> MakeTrace(double rate, int32_t n, uint64_t seed = 3) {
  TraceConfig cfg;
  cfg.profile = DatasetProfile::ShareGpt();
  cfg.num_requests = n;
  cfg.rate_per_sec = rate;
  cfg.seed = seed;
  auto trace = BuildTrace(cfg);
  EXPECT_TRUE(trace.ok()) << trace.status().ToString();
  return *trace;
}

std::unique_ptr<Scheduler> MakeNamedScheduler(const std::string& kind,
                                              const SloSpec& slo) {
  if (kind == "fcfs") return std::make_unique<FcfsScheduler>();
  if (kind == "sarathi") return std::make_unique<SarathiScheduler>();
  if (kind == "fastgen") {
    return std::make_unique<SarathiScheduler>(SarathiConfig::FastGen());
  }
  if (kind == "apt") {
    AptConfig c;
    c.slo = slo;
    return std::make_unique<AptScheduler>(c);
  }
  AptSarathiConfig c;
  c.slo = slo;
  return std::make_unique<AptSarathiScheduler>(c);
}

/// Exact (bit-for-bit) equality across the whole report, including the raw
/// latency sample sets behind the percentiles.
void ExpectReportsIdentical(const SloReport& legacy, const SloReport& now) {
  EXPECT_EQ(legacy.slo_attainment, now.slo_attainment);
  EXPECT_EQ(legacy.ttft_attainment, now.ttft_attainment);
  EXPECT_EQ(legacy.tbt_attainment, now.tbt_attainment);
  EXPECT_EQ(legacy.batch_limit_time_ratio, now.batch_limit_time_ratio);
  EXPECT_EQ(legacy.total_serving_time, now.total_serving_time);
  EXPECT_EQ(legacy.iterations, now.iterations);
  EXPECT_EQ(legacy.mean_batch_size, now.mean_batch_size);
  EXPECT_EQ(legacy.preemptions, now.preemptions);
  EXPECT_EQ(legacy.conversions, now.conversions);
  EXPECT_EQ(legacy.mean_ttft, now.mean_ttft);
  EXPECT_EQ(legacy.p99_ttft, now.p99_ttft);
  EXPECT_EQ(legacy.jain_fairness_ttft, now.jain_fairness_ttft);
  ASSERT_EQ(legacy.ttfts.count(), now.ttfts.count());
  EXPECT_EQ(legacy.ttfts.samples(), now.ttfts.samples());
  ASSERT_EQ(legacy.p99_tbts.count(), now.p99_tbts.count());
  EXPECT_EQ(legacy.p99_tbts.samples(), now.p99_tbts.samples());
}

void RunParity(const std::string& scheduler_kind,
               const CostModelBackend::Options& opts,
               const ServingLoopConfig& loop, double rate, int32_t n,
               uint64_t seed = 3) {
  const SloSpec slo{1.0, 1.0};
  const CostModel cm = MakeCostModel();
  const auto trace = MakeTrace(rate, n, seed);

  auto legacy_sched = MakeNamedScheduler(scheduler_kind, slo);
  auto legacy =
      LegacySimulatorRun(cm, opts, loop, trace, legacy_sched.get(), slo);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();

  auto new_sched = MakeNamedScheduler(scheduler_kind, slo);
  auto backend = CostModelBackend::Create(cm, opts);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  auto current =
      ServingLoop(backend->get(), loop).Run(trace, new_sched.get(), slo);
  ASSERT_TRUE(current.ok()) << current.status().ToString();

  ExpectReportsIdentical(legacy->report, current->report);
  EXPECT_EQ(legacy->prefill_iterations, current->prefill_iterations);
  EXPECT_EQ(legacy->decode_iterations, current->decode_iterations);
  EXPECT_EQ(legacy->mixed_iterations, current->mixed_iterations);
  EXPECT_EQ(legacy->pool_blocks, (*backend)->pool_blocks());
  EXPECT_EQ(legacy->peak_blocks, current->peak_blocks);
  EXPECT_EQ(legacy->swap_outs, current->swap_outs);
  EXPECT_EQ(legacy->swap_ins, current->swap_ins);
  // Per-request records match exactly too.
  ASSERT_EQ(legacy->records.size(), current->records.size());
  for (const auto& [id, rec] : legacy->records) {
    auto it = current->records.find(id);
    ASSERT_NE(it, current->records.end());
    EXPECT_EQ(rec.ttft, it->second.ttft);
    EXPECT_EQ(rec.finish_time, it->second.finish_time);
    EXPECT_EQ(rec.tbt_samples, it->second.tbt_samples);
  }
}

class ParityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ParityTest, LightLoad) {
  RunParity(GetParam(), {}, ServingLoopConfig{}, 0.5, 60);
}

TEST_P(ParityTest, HeavyLoad) {
  RunParity(GetParam(), {}, ServingLoopConfig{}, 20.0, 120);
}

TEST_P(ParityTest, MemoryPressureRecompute) {
  CostModelBackend::Options opts;
  opts.pool_blocks_override = 220;
  RunParity(GetParam(), opts, ServingLoopConfig{}, 8.0, 80);
}

TEST_P(ParityTest, MemoryPressureSwap) {
  CostModelBackend::Options opts;
  opts.pool_blocks_override = 220;
  ServingLoopConfig loop;
  loop.preemption_mode = PreemptionMode::kSwap;
  RunParity(GetParam(), opts, loop, 8.0, 80);
}

TEST_P(ParityTest, MemoryPressureSwapTinySwapSpace) {
  // A nearly-full swap space exercises the full-swap-space -> recompute
  // fallback in both implementations.
  CostModelBackend::Options opts;
  opts.pool_blocks_override = 220;
  opts.swap_blocks = 32;
  ServingLoopConfig loop;
  loop.preemption_mode = PreemptionMode::kSwap;
  RunParity(GetParam(), opts, loop, 8.0, 80, 11);
}

INSTANTIATE_TEST_SUITE_P(Schedulers, ParityTest,
                         ::testing::Values("fcfs", "sarathi", "fastgen",
                                           "apt", "apt_s"),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// Fleet-of-one parity: the paper's single-instance figures and ablations
// run as sweep configs (bench/experiments/*.json, n_instances 1), i.e.
// through sweep::ExecuteCell's one-instance fleet with round-robin routing
// and no admission. That reproduces the programs they replaced — a plain
// ServingLoop::Run — only if the two paths agree exactly for every
// scheduler name the sweep accepts and every cell key those configs set.
// The premise is pinned on a trace without tied arrivals: the loop orders
// arrivals with an unstable sort while the fleet injects them in trace
// order, so tied arrivals may be admitted in different orders.
// ---------------------------------------------------------------------------

TEST(FleetOfOneParityTest, MatchesServingLoopForEverySweepScheduler) {
  // Loaded enough that Apt preempts and converts to hidden cache.
  sweep::RunCell cell;
  cell.router_policy = "round-robin";
  cell.admission = "none";
  cell.rate = 8.0;
  cell.seed = 5;
  sweep::CellParams base;
  base.num_requests = 150;
  base.n_instances = 1;
  const auto trace = MakeTrace(cell.rate, base.num_requests, cell.seed);
  std::vector<double> arrivals;
  for (const Request& r : trace) arrivals.push_back(r.arrival);
  std::sort(arrivals.begin(), arrivals.end());
  ASSERT_EQ(std::adjacent_find(arrivals.begin(), arrivals.end()),
            arrivals.end())
      << "the parity premise needs a trace without tied arrivals";

  struct Case {
    const char* scheduler;
    const char* overrides;  ///< sweep cell keys, applied onto `base`
  };
  const Case cases[] = {
      {"vLLM", "{}"},
      {"Random", "{}"},
      {"Sarathi", "{}"},
      {"FastGen", "{}"},
      {"FCFS-hybrid", "{}"},
      {"Apt", "{}"},
      {"Apt-KVonly", "{}"},
      {"Apt-S", "{}"},
      {"Apt", R"({"violation_decay": 0.2})"},
      {"Apt", R"({"violation_decay": 0.4})"},
      {"Apt", R"({"violation_decay": 1.0})"},
      {"Apt", R"({"prediction_quantile": 0.7})"},
      {"Apt", R"({"preemption_mode": "swap"})"},
      {"Apt", R"({"block_size": 8})"},
      {"Apt", R"({"n_gpus": 2})"},
      {"Apt", R"({"cache_encoding": "all-int8"})"},
  };
  int64_t swap_ins = 0;
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.scheduler) + " " + c.overrides);
    auto overrides = json::ParseJson(c.overrides);
    ASSERT_TRUE(overrides.ok()) << overrides.status().ToString();
    auto params = sweep::ApplyOverrides(base, *overrides);
    ASSERT_TRUE(params.ok()) << params.status().ToString();
    cell.scheduler = c.scheduler;
    cell.params = *params;
    const SloSpec slo{params->slo_ttft_s, params->slo_tbt_p99_s};

    // The replaced programs' path: one ServingLoop over one backend, on
    // the cell's cluster and cache encoding.
    const ModelSpec model = ModelSpec::Opt13B();
    ClusterSpec cluster = ClusterSpec::ForModel(model);
    if (params->n_gpus > 0) cluster.n_gpus = params->n_gpus;
    const CostModel cm(model, cluster);
    auto sched = sweep::MakeSchedulerByName(c.scheduler, slo,
                                            params->violation_decay,
                                            params->prediction_quantile);
    ASSERT_TRUE(sched.ok()) << sched.status().ToString();
    CostModelBackend::Options opts;
    opts.block_size = params->block_size;
    if (params->cache_encoding == "all-int8") {
      opts.cache_encoding.kv = BlockEncoding::kInt8;
      opts.cache_encoding.hidden = BlockEncoding::kInt8;
    }
    auto backend = CostModelBackend::Create(cm, opts);
    ASSERT_TRUE(backend.ok()) << backend.status().ToString();
    ServingLoopConfig loop;
    if (params->preemption_mode == "swap") {
      loop.preemption_mode = PreemptionMode::kSwap;
    }
    auto single =
        ServingLoop(backend->get(), loop).Run(trace, sched->get(), slo);
    ASSERT_TRUE(single.ok()) << single.status().ToString();

    auto fleet = sweep::ExecuteCell(cell);
    ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();

    const SloReport& a = single->report;
    const SloReport& b = fleet->fleet.combined;
    EXPECT_EQ(a.slo_attainment, b.slo_attainment);
    EXPECT_EQ(a.ttft_attainment, b.ttft_attainment);
    EXPECT_EQ(a.tbt_attainment, b.tbt_attainment);
    EXPECT_EQ(a.goodput_rps, b.goodput_rps);
    EXPECT_EQ(a.mean_ttft, b.mean_ttft);
    EXPECT_EQ(a.p99_ttft, b.p99_ttft);
    EXPECT_EQ(a.total_serving_time, b.total_serving_time);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.mean_batch_size, b.mean_batch_size);
    EXPECT_EQ(a.batch_limit_time_ratio, b.batch_limit_time_ratio);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.conversions, b.conversions);
    EXPECT_EQ(a.ttfts.Max(), b.ttfts.Max());
    for (const double q : {0.5, 0.9, 0.99}) {
      EXPECT_EQ(a.ttfts.Quantile(q), b.ttfts.Quantile(q)) << q;
      EXPECT_EQ(a.p99_tbts.Quantile(q), b.p99_tbts.Quantile(q)) << q;
    }
    // The same latency samples, exactly; the fleet merges them in another
    // order, so the Jain index (a ratio of sums over them) agrees only to
    // rounding.
    std::vector<double> ttfts_a = a.ttfts.samples();
    std::vector<double> ttfts_b = b.ttfts.samples();
    std::sort(ttfts_a.begin(), ttfts_a.end());
    std::sort(ttfts_b.begin(), ttfts_b.end());
    EXPECT_EQ(ttfts_a, ttfts_b);
    EXPECT_NEAR(a.jain_fairness_ttft, b.jain_fairness_ttft,
                1e-12 * a.jain_fairness_ttft);
    // The cell's own readouts: pool size, peak and swap-ins from the
    // fleet's metrics registry, and the per-request records behind
    // requests.csv.
    EXPECT_EQ(fleet->requests, static_cast<int64_t>(trace.size()));
    EXPECT_EQ(fleet->pool_blocks, (*backend)->pool_blocks());
    EXPECT_EQ(fleet->peak_blocks, single->peak_blocks);
    EXPECT_EQ(fleet->swap_ins, single->swap_ins);
    swap_ins += fleet->swap_ins;
    ASSERT_EQ(fleet->records.size(), single->records.size());
    for (const auto& [id, rec] : single->records) {
      auto it = fleet->records.find(id);
      ASSERT_NE(it, fleet->records.end()) << id;
      EXPECT_EQ(rec.ttft, it->second.ttft) << id;
      EXPECT_EQ(rec.finish_time, it->second.finish_time) << id;
      EXPECT_EQ(rec.tbt_samples, it->second.tbt_samples) << id;
    }
  }
  EXPECT_GT(swap_ins, 0) << "the swap case must exercise swap-in";
}

// ---------------------------------------------------------------------------
// Cross-backend parity (the differential harness): beyond reproducing the
// legacy loop, the two ExecutionBackends must agree with *each other* on
// everything structural — completion order, prefill accounting, prefix
// stats — even though one prices iterations analytically and the other
// measures a (virtual) engine.
// ---------------------------------------------------------------------------

TEST(CrossBackendParityTest, SpacedTraceAgreesWithoutSharing) {
  // Arrivals spaced far beyond both backends' iteration latencies: the
  // request-level schedule is latency-independent, so completion order and
  // token accounting must match exactly.
  std::vector<Request> trace;
  Rng rng(17);
  for (int32_t i = 0; i < 12; ++i) {
    Request r;
    r.id = i;
    r.prompt_len = static_cast<int32_t>(rng.UniformInt(4, 24));
    r.output_len = static_cast<int32_t>(rng.UniformInt(2, 10));
    r.arrival = 2.0 * i;
    trace.push_back(r);
  }
  testing_util::DiffOptions opts;
  opts.enable_prefix_sharing = false;
  auto diff = testing_util::RunBackendDiff(trace, opts);
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  testing_util::ExpectBackendAgreement(*diff);
  EXPECT_EQ(diff->cost.result.prefill_tokens_skipped, 0);
  EXPECT_EQ(diff->engine.result.prefill_tokens_skipped, 0);
}

TEST(CrossBackendParityTest, SharedPrefixTraceAgreesWithSharing) {
  SharedPrefixConfig cfg;
  cfg.system_prompt_len = 12;
  cfg.num_conversations = 4;
  cfg.turns_per_conversation = 2;
  cfg.tokens_per_turn = 8;
  cfg.output_len_mean = 3;
  cfg.vocab_size = ModelConfig::Tiny().vocab_size;
  cfg.think_time_s = 3.0;
  cfg.conversation_stagger_s = 0.5;
  auto trace = BuildSharedPrefixTrace(cfg);
  ASSERT_TRUE(trace.ok());

  testing_util::DiffOptions opts;
  auto diff = testing_util::RunBackendDiff(*trace, opts);
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  testing_util::ExpectBackendAgreement(*diff);
  EXPECT_GT(diff->cost.result.prefix.hits, 0);
}

}  // namespace
}  // namespace aptserve
