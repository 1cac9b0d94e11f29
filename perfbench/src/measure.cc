#include "measure.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <thread>
#include <unordered_map>

namespace perfbench {

using aptserve::Request;
using aptserve::SampleSet;
using aptserve::StatusOr;

namespace {

constexpr double kAttainmentTarget = 0.9;
/// First rate the effective-throughput search tries, per instance: near
/// what one cost-model instance sustains on the mix (4.1-4.8 req/s), so
/// the bracket needs few overloaded runs, which are the slow ones.
constexpr double kSearchStartRpsPerInstance = 4.0;
/// Rates the search tries at once, one thread each.
constexpr int32_t kSearchPoints = 3;
constexpr int32_t kRouterReplays = 5;

/// Keeps the yardstick's result live.
volatile uint64_t yardstick_sink = 0;

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

SampleSet ToSamples(const std::vector<double>& v) {
  SampleSet s;
  s.Reserve(v.size());
  for (double x : v) s.Add(x);
  return s;
}

/// FNV-1a hashes of every prefix of `tokens`, block-granular when
/// `block` > 1 (hash after each full block only).
std::vector<uint64_t> PrefixHashes(const std::vector<int32_t>& tokens,
                                   int32_t block) {
  std::vector<uint64_t> out;
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < tokens.size(); ++i) {
    h = (h ^ static_cast<uint64_t>(static_cast<uint32_t>(tokens[i]))) *
        1099511628211ULL;
    if ((i + 1) % static_cast<size_t>(block) == 0) out.push_back(h);
  }
  return out;
}

}  // namespace

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double YardstickS() {
  constexpr int kRounds = 4;
  constexpr int kKeys = 20000;
  const double t0 = CpuS();
  uint64_t x = 88172645463325252ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  uint64_t acc = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::unordered_map<uint64_t, uint64_t> map;
    std::vector<double> values;
    values.reserve(kKeys);
    for (int i = 0; i < kKeys; ++i) {
      const uint64_t k = next();
      map[k % (2 * kKeys)] += static_cast<uint64_t>(i);
      values.push_back(static_cast<double>(k % 1000003));
    }
    for (int i = 0; i < kKeys; ++i) {
      auto it = map.find(next() % (2 * kKeys));
      if (it != map.end()) acc += it->second;
    }
    std::sort(values.begin(), values.end());
    acc += static_cast<uint64_t>(values[values.size() / 2]);
  }
  yardstick_sink = acc;
  return CpuS() - t0;
}

double Quantile(const std::vector<double>& v, double q) {
  return ToSamples(v).Quantile(q);
}

Outcome Derive(const std::vector<Request>& trace, const Pass& pass,
               const aptserve::SloSpec& slo,
               const std::unordered_set<RequestId>& bad) {
  std::unordered_map<RequestId, const std::vector<double>*> times;
  for (const InstanceProbe& p : pass.probes->probes()) {
    for (const auto& [id, v] : p.token_times) times[id] = &v;
  }
  // Wall-frame token times are steady_clock readings; the pass started at
  // its epoch, and each request was due at epoch + arrival.
  const double origin =
      pass.probes->frame() == TokenFrame::kWall ? pass.epoch : 0.0;
  Outcome o;
  for (const Request& r : trace) {
    auto it = times.find(r.id);
    if (it == times.end() ||
        it->second->size() != static_cast<size_t>(r.output_len)) {
      if (bad.count(r.id) == 0) ++o.lost;
      continue;
    }
    const std::vector<double>& ts = *it->second;
    o.tokens_observed += static_cast<int64_t>(ts.size());
    aptserve::RequestRecord rec;
    rec.spec = r;
    rec.ttft = ts.front() - (origin + r.arrival);
    for (size_t k = 1; k < ts.size(); ++k) {
      rec.tbt_samples.push_back(ts[k] - ts[k - 1]);
    }
    o.ttft_s.push_back(rec.ttft);
    o.tbt_s.insert(o.tbt_s.end(), rec.tbt_samples.begin(),
                   rec.tbt_samples.end());
    if (bad.count(r.id) == 0 && rec.MeetsSlo(slo)) ++o.slo_met;
  }
  return o;
}

RouterReplay ReplayRouter(const WorkloadSpec& spec,
                          const std::vector<Request>& trace) {
  const aptserve::Router router(RouterFor(spec),
                                spec.engine ? nullptr : &PaperCostModel());
  const std::vector<uint8_t> live(static_cast<size_t>(spec.instances), 1);
  RouterReplay out;
  std::vector<double> per_decision_us;
  std::vector<int32_t> chosen(trace.size(), 0);
  for (int32_t rep = 0; rep < kRouterReplays; ++rep) {
    aptserve::RouterState state = router.MakeState(spec.instances);
    double spent = 0.0;
    for (size_t i = 0; i < trace.size(); ++i) {
      bool best_effort = false;
      const double t0 = NowS();
      chosen[i] = router.RouteOne(trace[i], i, live, &state, &best_effort);
      spent += NowS() - t0;
    }
    per_decision_us.push_back(Ratio(spent * 1e6, trace.size()));
    out.probes_per_decision = state.cost_stats().ProbesPerDecision();
  }
  out.route_us = Median(per_decision_us);

  // Affinity witness: did the chosen instance already hold at least the
  // first full block of this prompt (as routed so far)?
  std::vector<std::unordered_set<uint64_t>> held(spec.instances);
  std::vector<double> work(spec.instances, 0.0);
  int64_t hits = 0;
  for (size_t i = 0; i < trace.size(); ++i) {
    if (chosen[i] < 0) continue;
    auto& mirror = held[static_cast<size_t>(chosen[i])];
    const auto hashes = PrefixHashes(trace[i].token_ids, kBlockSize);
    if (!hashes.empty() && mirror.count(hashes.front()) > 0) ++hits;
    mirror.insert(hashes.begin(), hashes.end());
    work[static_cast<size_t>(chosen[i])] += trace[i].total_len();
  }
  out.affinity_hit_share = Ratio(hits, trace.size());
  const double mean =
      std::accumulate(work.begin(), work.end(), 0.0) / spec.instances;
  out.load_imbalance =
      Ratio(*std::max_element(work.begin(), work.end()), mean);
  return out;
}

StatusOr<double> EffectiveRps(const WorkloadSpec& spec,
                              const std::vector<Request>& mix) {
  // Attainment at each of kSearchPoints rates, one serial fleet per thread.
  auto attain = [&](const std::vector<double>& rates)
      -> StatusOr<std::vector<double>> {
    std::vector<double> out(rates.size(), 0.0);
    std::vector<aptserve::Status> status(rates.size());
    std::vector<std::thread> threads;
    for (size_t k = 0; k < rates.size(); ++k) {
      threads.emplace_back([&, k] {
        std::vector<Request> trace = mix;
        for (Request& r : trace) r.arrival /= rates[k];
        auto run = RunCostModelFleet(spec, trace, /*fleet_threads=*/1);
        if (run.ok()) {
          out[k] = run->combined.slo_attainment;
        } else {
          status[k] = run.status();
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (const aptserve::Status& st : status) APT_RETURN_NOT_OK(st);
    return out;
  };
  // Rates ascend; lo is the last rate before the first one that misses the
  // target, hi that one. Bracket by stepping 8x in whichever direction is
  // open, then cut [lo, hi] into kSearchPoints + 1 geometric steps per
  // round until it is within 1%, then interpolate inside it.
  double lo = 0, hi = 0, a_lo = 0, a_hi = 0;
  auto update = [&](const std::vector<double>& rates,
                    const std::vector<double>& a) {
    for (size_t k = 0; k < rates.size(); ++k) {
      if (a[k] < kAttainmentTarget) {
        hi = rates[k];
        a_hi = a[k];
        return;
      }
      lo = rates[k];
      a_lo = a[k];
    }
  };
  auto geometric = [](double from, double to) {
    std::vector<double> rates;
    for (int32_t k = 1; k <= kSearchPoints; ++k) {
      rates.push_back(from * std::pow(to / from, static_cast<double>(k) /
                                                     (kSearchPoints + 1)));
    }
    return rates;
  };
  double from = kSearchStartRpsPerInstance * spec.instances / 2;
  for (int32_t step = 0; step < 20 && (lo == 0 || hi == 0); ++step) {
    std::vector<double> rates = {from, 2 * from, 4 * from};
    APT_ASSIGN_OR_RETURN(std::vector<double> a, attain(rates));
    update(rates, a);
    if (hi == 0) from *= 8;
    if (lo == 0) from /= 8;
  }
  if (lo == 0 || hi == 0) {
    return aptserve::Status::Internal("effective-throughput search diverged");
  }
  while (hi / lo > 1.01) {
    const std::vector<double> rates = geometric(lo, hi);
    const double old_hi = hi, old_a_hi = a_hi;
    APT_ASSIGN_OR_RETURN(std::vector<double> a, attain(rates));
    hi = 0;
    update(rates, a);
    if (hi == 0) {
      hi = old_hi;
      a_hi = old_a_hi;
    }
  }
  const double frac = Ratio(a_lo - kAttainmentTarget, a_lo - a_hi);
  return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
}

Metrics LayerMetrics(const WorkloadSpec& spec,
                     const std::vector<Request>& trace, const Pass& pass) {
  std::vector<double> plan_us, queue_wait_ms, prepare_us, flush_ms;
  int64_t plans = 0, items = 0, waiting = 0, hidden = 0, preempted = 0;
  int64_t oom = 0, converts = 0, swap_outs = 0;
  int64_t prefill_tok = 0, decode_tok = 0;
  double pool_util = 0, pool_peak = 0, busy = 0, prefill_busy = 0;
  double decode_busy = 0, loop_wall = 0, loop_covered = 0;
  std::vector<double> late_ms;
  for (const InstanceProbe& p : pass.probes->probes()) {
    plan_us.insert(plan_us.end(), p.plan_us.begin(), p.plan_us.end());
    for (const auto& [id, w] : p.queue_wait_s) queue_wait_ms.push_back(w * 1e3);
    prepare_us.insert(prepare_us.end(), p.prepare_us.begin(),
                      p.prepare_us.end());
    flush_ms.insert(flush_ms.end(), p.flush_ms.begin(), p.flush_ms.end());
    plans += static_cast<int64_t>(p.plan_us.size());
    items += p.plan_items;
    waiting += p.waiting_seen;
    hidden += static_cast<int64_t>(p.hidden_requests.size());
    preempted += static_cast<int64_t>(p.preempted_requests.size());
    oom += p.oom_steps;
    converts += p.convert_calls;
    swap_outs += p.swap_outs;
    pool_util += p.pool_util_sum;
    pool_peak = std::max(pool_peak, p.pool_peak_frac);
    busy += p.busy_s;
    prefill_tok += p.pure_prefill_tokens;
    prefill_busy += p.pure_prefill_busy_s;
    decode_tok += p.pure_decode_tokens;
    decode_busy += p.pure_decode_busy_s;
    loop_wall += p.loop_wall_s;
    loop_covered += p.loop_covered_s;
    if (!spec.wall_clock) {
      for (const auto& [id, t] : p.accepted_at) {
        late_ms.push_back((t - pass.epoch) * 1e3);
      }
    }
  }
  if (spec.wall_clock) {
    for (double s : pass.route_late_s) late_ms.push_back(s * 1e3);
  }
  const double sent = static_cast<double>(trace.size());
  const SampleSet plan = ToSamples(plan_us);
  const SampleSet wait = ToSamples(queue_wait_ms);
  const SampleSet prep = ToSamples(prepare_us);
  const SampleSet flush = ToSamples(flush_ms);
  const SampleSet late = ToSamples(late_ms);

  const double prefill = pass.prefill_computed + pass.prefill_skipped;
  Metrics m;
  m["sched.plan_us_p50"] = {plan.Quantile(0.5), "us"};
  m["sched.plan_us_p99"] = {plan.P99(), "us"};
  m["sched.plans"] = {static_cast<double>(plans), "count"};
  m["sched.batch_size_mean"] = {Ratio(items, plans), "requests"};
  m["sched.waiting_depth_mean"] = {Ratio(waiting, plans), "requests"};
  m["sched.queue_wait_ms_p50"] = {wait.Quantile(0.5), "ms"};
  m["sched.queue_wait_ms_p99"] = {wait.P99(), "ms"};
  m["sched.preempt_share"] = {Ratio(preempted, sent), "fraction"};
  m["sched.hidden_share"] = {Ratio(hidden, sent), "fraction"};
  m["cache.pool_util_mean"] = {Ratio(pool_util, plans), "fraction"};
  m["cache.pool_peak_frac"] = {pool_peak, "fraction"};
  m["cache.oom_steps"] = {static_cast<double>(oom), "count"};
  m["cache.convert_calls"] = {static_cast<double>(converts), "count"};
  m["cache.swap_outs"] = {static_cast<double>(swap_outs), "count"};
  m["prefix.hit_rate"] = {Ratio(pass.prefix.hits, pass.prefix.lookups),
                          "fraction"};
  m["prefix.skipped_share"] = {Ratio(pass.prefill_skipped, prefill),
                               "fraction"};
  m["prefix.evicted_blocks"] = {
      static_cast<double>(pass.prefix.evicted_blocks), "count"};
  m["engine.prepare_us_p50"] = {prep.Quantile(0.5), "us"};
  m["engine.flush_ms_p50"] = {flush.Quantile(0.5), "ms"};
  m["engine.flush_ms_p99"] = {flush.P99(), "ms"};
  m["engine.busy_frac"] = {Ratio(busy, spec.instances * pass.wall_s),
                           "fraction"};
  m["engine.prefill_tok_per_busy_s"] = {Ratio(prefill_tok, prefill_busy),
                                        "tok/s"};
  m["engine.decode_tok_per_busy_s"] = {Ratio(decode_tok, decode_busy),
                                       "tok/s"};
  m["loop.other_share"] = {Ratio(loop_wall - loop_covered, loop_wall),
                           "fraction"};
  m["async.queue_high_water"] = {static_cast<double>(pass.queue_high_water),
                                 "count"};
  m["async.shed_migrations"] = {static_cast<double>(pass.shed_migrations),
                                "count"};
  m["loadgen.late_ms_p50"] = {late.Quantile(0.5), "ms"};
  m["loadgen.late_ms_p99"] = {late.P99(), "ms"};
  return m;
}

std::map<std::string, double> TraceProperties(
    const std::vector<Request>& trace) {
  std::unordered_set<uint64_t> seen;
  int64_t prompt_tokens = 0, shared_tokens = 0;
  SampleSet prompt, output;
  double out_tokens = 0;
  for (const Request& r : trace) {
    const auto hashes = PrefixHashes(r.token_ids, 1);
    size_t lcp = 0;
    while (lcp < hashes.size() && seen.count(hashes[lcp]) > 0) ++lcp;
    shared_tokens += static_cast<int64_t>(lcp);
    seen.insert(hashes.begin(), hashes.end());
    prompt_tokens += r.prompt_len;
    prompt.Add(r.prompt_len);
    output.Add(r.output_len);
    out_tokens += r.output_len;
  }
  std::vector<double> arrivals;
  for (const Request& r : trace) arrivals.push_back(r.arrival);
  std::sort(arrivals.begin(), arrivals.end());
  SampleSet gaps;
  for (size_t i = 1; i < arrivals.size(); ++i) {
    gaps.Add(arrivals[i] - arrivals[i - 1]);
  }
  double cv = 0.0;
  if (gaps.count() > 1 && gaps.Mean() > 0) {
    double ss = 0.0;
    for (double g : gaps.samples()) ss += (g - gaps.Mean()) * (g - gaps.Mean());
    cv = std::sqrt(ss / static_cast<double>(gaps.count())) / gaps.Mean();
  }
  const double span =
      arrivals.empty() ? 0.0 : arrivals.back() - arrivals.front();

  std::map<std::string, double> p;
  p["requests"] = static_cast<double>(trace.size());
  p["shared_prompt_token_share"] = Ratio(shared_tokens, prompt_tokens);
  p["prompt_len_mean"] = prompt.Mean();
  p["prompt_len_p99"] = prompt.P99();
  p["output_len_mean"] = output.Mean();
  p["output_len_p99"] = output.P99();
  p["arrival_cv"] = cv;
  p["offered_output_tok_per_s"] = Ratio(out_tokens, span);
  return p;
}

}  // namespace perfbench
