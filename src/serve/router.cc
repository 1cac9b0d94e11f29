#include "serve/router.h"

#include <algorithm>
#include <deque>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"

namespace aptserve {

const char* RoutePolicyName(RoutePolicy p) {
  switch (p) {
    case RoutePolicy::kRoundRobin:
      return "round-robin";
    case RoutePolicy::kLeastLoaded:
      return "least-loaded";
    case RoutePolicy::kPowerOfTwo:
      return "power-of-two";
    case RoutePolicy::kLeastOutstandingWork:
      return "least-outstanding-work";
    case RoutePolicy::kPrefixAffinity:
      return "prefix-affinity";
  }
  return "?";
}

namespace {

/// Work-estimate fallback when no cost model is provided: seconds per token
/// of prompt + predicted output (the order of the inference backend's
/// default virtual_item_seconds).
constexpr double kFallbackSecondsPerToken = 1e-3;

/// Per-instance mirror of a PrefixIndex's *content*: a radix tree over
/// full block_size token chunks of the prompts routed to that instance.
/// Matching follows PrefixIndex::Match's full-block rule, so the router's
/// affinity score approximates the match the instance's real index will
/// report once those prompts have prefilled (approximates, not equals:
/// the real index also COW-matches partial tail blocks, LRU-evicts under
/// pool pressure, and indexes only completed prefills).
///
/// The node count is capped (RouterConfig::affinity_mirror_max_nodes):
/// past the cap Insert evicts the least-recently-touched *leaf* chunks,
/// like PrefixIndex::EvictLru, so a long run's mirror stays bounded while
/// hot shared prefixes (re-touched on every insert through them) survive.
class AffinityMirror {
 public:
  AffinityMirror(int32_t block_size, int64_t max_nodes)
      : block_size_(block_size), max_nodes_(max_nodes) {}

  /// Matched positions: block_size per matched chunk, capped (like index
  /// callers) at prompt_len - 1 so the score never exceeds what a real
  /// adoption could use. `nodes_walked` (optional) accumulates the radix
  /// lookups performed — the decision-cost term; pass null for
  /// observational re-scores so tracing never changes the counters.
  int32_t MatchTokens(const std::vector<int32_t>& tokens,
                      int64_t* nodes_walked = nullptr) const {
    const Node* node = root_.get();
    int32_t matched = 0;
    const int32_t usable = static_cast<int32_t>(tokens.size()) - 1;
    std::vector<int32_t> chunk(block_size_);
    while (matched + block_size_ <= usable) {
      chunk.assign(tokens.begin() + matched,
                   tokens.begin() + matched + block_size_);
      if (nodes_walked != nullptr) ++*nodes_walked;
      auto it = node->children.find(chunk);
      if (it == node->children.end()) break;
      node = it->second.get();
      matched += block_size_;
    }
    return matched;
  }

  struct InsertDelta {
    int64_t created = 0;
    int64_t evicted = 0;
  };

  InsertDelta Insert(const std::vector<int32_t>& tokens) {
    InsertDelta delta;
    Node* node = root_.get();
    const int32_t n = static_cast<int32_t>(tokens.size());
    for (int32_t at = 0; at + block_size_ <= n; at += block_size_) {
      std::vector<int32_t> chunk(tokens.begin() + at,
                                 tokens.begin() + at + block_size_);
      auto it = node->children.find(chunk);
      if (it == node->children.end()) {
        auto child = std::make_unique<Node>();
        child->parent = node;
        it = node->children.emplace(std::move(chunk), std::move(child)).first;
        it->second->self = it;
        ++num_nodes_;
        ++delta.created;
      }
      node = it->second.get();
      Touch(node);
    }
    // Cap after the walk completes so eviction can never invalidate the
    // path the insert is standing on (at tiny caps the freshly inserted
    // tail is itself evictable — correct, just wasteful).
    while (num_nodes_ > max_nodes_ && EvictOldestLeaf()) ++delta.evicted;
    return delta;
  }

  int64_t num_nodes() const { return num_nodes_; }

 private:
  struct Node {
    std::map<std::vector<int32_t>, std::unique_ptr<Node>> children;
    Node* parent = nullptr;
    /// This node's slot in parent->children (std::map iterators are
    /// stable), so eviction erases without re-hashing the chunk key.
    std::map<std::vector<int32_t>, std::unique_ptr<Node>>::iterator self;
    /// Last-touch tick; unique per touch, so LRU order is total and
    /// eviction is deterministic.
    uint64_t touch = 0;
  };

  void Touch(Node* node) {
    if (node->touch != 0) lru_.erase(node->touch);
    node->touch = ++tick_;
    lru_.emplace(node->touch, node);
  }

  /// Evicts the least-recently-touched leaf. Internal nodes become
  /// evictable once their subtrees go (same leaves-first shape as
  /// PrefixIndex::EvictLru).
  bool EvictOldestLeaf() {
    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
      Node* node = it->second;
      if (!node->children.empty()) continue;
      lru_.erase(it);
      node->parent->children.erase(node->self);  // destroys `node`
      --num_nodes_;
      return true;
    }
    return false;
  }

  int32_t block_size_;
  int64_t max_nodes_;
  int64_t num_nodes_ = 0;
  uint64_t tick_ = 0;
  /// Heap-held so parent pointers into the root survive a mirror move
  /// (RouterState's mirror vector reallocates as an elastic fleet grows).
  std::unique_ptr<Node> root_ = std::make_unique<Node>();
  /// touch tick -> node, ascending = LRU order (the root never enters).
  std::map<uint64_t, Node*> lru_;
};

}  // namespace

/// The incremental routing model: one entry of every per-instance vector
/// per addressable instance. Round-robin uses the caller-provided
/// trace_index (not an internal counter) for bit-compatibility with the
/// batch form.
struct RouterState::Impl {
  int32_t n = 0;
  /// Legacy-policy state: per-instance sliding-window backlog of dispatched
  /// prompt tokens (bit-for-bit the pre-router dispatch bookkeeping that
  /// router_test's LegacyDispatchTrace keeps as a reference).
  std::vector<std::deque<std::pair<TimePoint, int64_t>>> window;
  std::vector<int64_t> backlog;
  Rng rng{0};
  /// Work-model state: when each instance is predicted to drain its queue.
  std::vector<double> busy_until;
  /// Prefix-affinity mirrors (empty unless the policy needs them).
  std::vector<AffinityMirror> mirror;
  /// Scratch for RouteOne's live-instance list (avoids a per-request
  /// allocation on the batch path).
  std::vector<int32_t> live_scratch;
  /// Deterministic decision-cost counters (state examinations, not time).
  RouteCostStats cost;
  /// Observability (Router::AttachTrace): events land on the router track,
  /// stamped by `obs_clock` when set (async mode) else by request arrival.
  obs::TraceSink sink;
  const runtime::Clock* obs_clock = nullptr;
};

RouterState::RouterState() = default;
RouterState::~RouterState() = default;
RouterState::RouterState(RouterState&&) noexcept = default;
RouterState& RouterState::operator=(RouterState&&) noexcept = default;

int32_t RouterState::capacity() const { return impl_ ? impl_->n : 0; }

const RouteCostStats& RouterState::cost_stats() const {
  static const RouteCostStats kEmpty;
  return impl_ ? impl_->cost : kEmpty;
}

Router::Router(const RouterConfig& config, const CostModel* cost_model,
               const OutputLengthPredictor* predictor)
    : config_(config), cost_model_(cost_model), predictor_(predictor) {
  APT_CHECK(config.n_instances >= 1);
  APT_CHECK(config.block_size >= 1);
}

double Router::PredictedOutputLen(const Request& r) const {
  if (predictor_ != nullptr && predictor_->observations() > 0) {
    return predictor_->PredictMean(r.prompt_len, config_.default_output_len);
  }
  return config_.default_output_len;
}

double Router::EstimatedPrefillSeconds(const Request& r) const {
  if (cost_model_ == nullptr) {
    return r.prompt_len * kFallbackSecondsPerToken;
  }
  BatchWorkload w;
  w.prefill_tokens = r.prompt_len;
  w.prefill_attend_tokens =
      static_cast<int64_t>(r.prompt_len) * (r.prompt_len + 1) / 2;
  return cost_model_->IterationSeconds(w);
}

double Router::EstimatedServiceSeconds(const Request& r) const {
  const double out_len = PredictedOutputLen(r);
  if (cost_model_ == nullptr) {
    return (r.prompt_len + out_len) * kFallbackSecondsPerToken;
  }
  // One decode iteration at the request's mid-generation context length,
  // times the predicted output length.
  BatchWorkload d;
  d.decode_reqs = 1;
  d.decode_kv_context_tokens =
      r.prompt_len + static_cast<int64_t>(out_len / 2);
  return EstimatedPrefillSeconds(r) +
         out_len * cost_model_->IterationSeconds(d);
}

RouterState Router::MakeState(int32_t max_instances) const {
  RouterState state;
  state.impl_ = std::make_unique<RouterState::Impl>();
  RouterState::Impl& s = *state.impl_;
  s.n = std::max(config_.n_instances, max_instances);
  s.window.resize(s.n);
  s.backlog.assign(s.n, 0);
  s.rng = Rng(config_.dispatch_seed);
  s.busy_until.assign(s.n, 0.0);
  if (config_.policy == RoutePolicy::kPrefixAffinity) {
    s.mirror.reserve(s.n);
    for (int32_t i = 0; i < s.n; ++i) {
      s.mirror.emplace_back(config_.block_size,
                            config_.affinity_mirror_max_nodes);
    }
  }
  return state;
}

void Router::AttachTrace(RouterState* state, obs::TraceSink sink,
                         const runtime::Clock* clock) const {
  APT_CHECK(state != nullptr && state->impl_ != nullptr);
  state->impl_->sink = sink;
  state->impl_->obs_clock = clock;
}

void Router::GrowState(RouterState* state, int32_t n_instances) const {
  APT_CHECK(state != nullptr && state->impl_ != nullptr);
  RouterState::Impl& s = *state->impl_;
  if (n_instances <= s.n) return;
  s.n = n_instances;
  s.window.resize(n_instances);
  s.backlog.resize(n_instances, 0);
  s.busy_until.resize(n_instances, 0.0);
  if (config_.policy == RoutePolicy::kPrefixAffinity) {
    while (static_cast<int32_t>(s.mirror.size()) < n_instances) {
      s.mirror.emplace_back(config_.block_size,
                            config_.affinity_mirror_max_nodes);
    }
  }
  return;
}

int32_t Router::RouteOne(const Request& req, size_t trace_index,
                         const std::vector<uint8_t>& live, RouterState* state,
                         bool* best_effort) const {
  APT_CHECK(state != nullptr && state->impl_ != nullptr);
  RouterState::Impl& s = *state->impl_;
  const int32_t n = s.n;
  APT_CHECK(static_cast<int32_t>(live.size()) == n);
  std::vector<int32_t>& live_ids = s.live_scratch;
  live_ids.clear();
  live_ids.reserve(n);
  for (int32_t i = 0; i < n; ++i) {
    if (live[i]) live_ids.push_back(i);
  }
  return RouteOneLive(req, trace_index, live_ids, state, best_effort);
}

int32_t Router::RouteOneLive(const Request& req, size_t trace_index,
                             const std::vector<int32_t>& live_ids,
                             RouterState* state, bool* best_effort) const {
  APT_CHECK(state != nullptr && state->impl_ != nullptr &&
            best_effort != nullptr);
  RouterState::Impl& s = *state->impl_;
  const int32_t n = s.n;
  const int32_t n_live = static_cast<int32_t>(live_ids.size());
  APT_CHECK_MSG(n_live >= 1, "routing with no live instances");
  APT_CHECK(live_ids.front() >= 0 && live_ids.back() < n);
  *best_effort = false;
  ++s.cost.decisions;

  // Observational only: reads the pre-commit routing state, mutates none
  // of it, so traced and untraced routing are decision-identical.
  const bool tracing = static_cast<bool>(s.sink);
  const double obs_ts =
      s.obs_clock != nullptr ? s.obs_clock->Now() : req.arrival;
  const auto emit_route_decision = [&](int32_t chosen) {
    double score = 0.0;
    switch (config_.policy) {
      case RoutePolicy::kRoundRobin:
        break;
      case RoutePolicy::kLeastLoaded:
      case RoutePolicy::kPowerOfTwo:
        score = static_cast<double>(s.backlog[chosen]);
        break;
      case RoutePolicy::kLeastOutstandingWork:
        score = std::max(0.0, s.busy_until[chosen] - req.arrival);
        break;
      case RoutePolicy::kPrefixAffinity:
        score = req.has_token_ids() && !s.mirror.empty()
                    ? static_cast<double>(
                          s.mirror[chosen].MatchTokens(req.token_ids))
                    : 0.0;
        break;
    }
    s.sink.Instant(obs::TraceOp::kRouteDecision, obs_ts, req.id,
                   static_cast<double>(chosen), score,
                   static_cast<double>(static_cast<int32_t>(config_.policy)));
  };

  // Only maintain the state some consumer actually reads: the token
  // backlog windows feed kLeastLoaded/kPowerOfTwo, the busy-until clocks
  // feed kLeastOutstandingWork, the affinity imbalance cap, and admission.
  const bool need_backlog = config_.policy == RoutePolicy::kLeastLoaded ||
                            config_.policy == RoutePolicy::kPowerOfTwo;
  const bool need_work =
      config_.policy == RoutePolicy::kLeastOutstandingWork ||
      config_.policy == RoutePolicy::kPrefixAffinity ||
      config_.admission != AdmissionMode::kNone;

  const TimePoint now = req.arrival;
  auto outstanding = [&](int32_t i) {
    return std::max(0.0, s.busy_until[i] - now);
  };
  auto least_outstanding = [&] {
    s.cost.instance_probes += n_live;
    int32_t best = live_ids[0];
    for (int32_t k = 1; k < n_live; ++k) {
      const int32_t i = live_ids[k];
      if (outstanding(i) < outstanding(best)) best = i;
    }
    return best;
  };

  if (need_backlog) {
    // Expire the sliding windows of every instance (live or not) so an
    // instance re-entering the live set carries no stale backlog.
    for (int32_t i = 0; i < n; ++i) {
      while (!s.window[i].empty() &&
             s.window[i].front().first < now - config_.load_window_s) {
        s.backlog[i] -= s.window[i].front().second;
        s.window[i].pop_front();
      }
    }
  }

  // 1. Pick the target instance under the policy. A one-instance fleet
  // (or a one-instance live set) skips the policy — and its RNG draws —
  // exactly like the historical single-instance shortcut.
  int32_t inst = live_ids[0];
  if (n_live > 1) {
    switch (config_.policy) {
      case RoutePolicy::kRoundRobin:
        inst = live_ids[trace_index % n_live];
        ++s.cost.instance_probes;
        break;
      case RoutePolicy::kLeastLoaded: {
        s.cost.instance_probes += n_live;
        int32_t best = live_ids[0];
        for (int32_t k = 1; k < n_live; ++k) {
          const int32_t i = live_ids[k];
          if (s.backlog[i] < s.backlog[best]) best = i;
        }
        inst = best;
        break;
      }
      case RoutePolicy::kPowerOfTwo: {
        s.cost.instance_probes += 2;
        const int32_t a =
            static_cast<int32_t>(s.rng.UniformInt(0, n_live - 1));
        int32_t b = static_cast<int32_t>(s.rng.UniformInt(0, n_live - 2));
        if (b >= a) ++b;
        inst = s.backlog[live_ids[a]] <= s.backlog[live_ids[b]]
                   ? live_ids[a]
                   : live_ids[b];
        break;
      }
      case RoutePolicy::kLeastOutstandingWork:
        inst = least_outstanding();
        break;
      case RoutePolicy::kPrefixAffinity: {
        const int32_t fallback = least_outstanding();
        const double min_work = outstanding(fallback);
        int32_t best = -1;
        int32_t best_match = 0;
        if (req.has_token_ids()) {
          for (int32_t k = 0; k < n_live; ++k) {
            const int32_t i = live_ids[k];
            ++s.cost.instance_probes;
            if (outstanding(i) - min_work >
                config_.affinity_max_imbalance_s) {
              continue;  // over the load-imbalance cap
            }
            const int32_t m = s.mirror[i].MatchTokens(
                req.token_ids, &s.cost.mirror_nodes_walked);
            if (m > best_match) {
              best_match = m;
              best = i;
            }
          }
        }
        inst = best_match > 0 ? best : fallback;
        break;
      }
    }
  } else {
    ++s.cost.instance_probes;
  }

  // 2. Admission against the effective TTFT deadline: queue wait plus
  // the request's own prefill time. A miss on the policy's choice first
  // spills to the least-outstanding instance — a request is only turned
  // away when NO live instance can meet its deadline.
  if (config_.admission != AdmissionMode::kNone) {
    const double ttft_bound =
        req.slo_ttft_s >= 0 ? req.slo_ttft_s : config_.default_slo.ttft_s;
    const double prefill_s = EstimatedPrefillSeconds(req);
    const double deadline = config_.admission_slack * ttft_bound;
    if (outstanding(inst) + prefill_s > deadline) {
      const int32_t spill = least_outstanding();
      if (outstanding(spill) + prefill_s <= deadline) {
        inst = spill;
      } else if (config_.admission == AdmissionMode::kReject) {
        if (tracing) {
          emit_route_decision(inst);
          s.sink.Instant(obs::TraceOp::kAdmission, obs_ts, req.id,
                         /*verdict=*/1.0, outstanding(inst) + prefill_s,
                         deadline);
        }
        return RouteDecision::kRejected;  // never enters any routing state
      } else {
        *best_effort = true;
      }
    }
    if (tracing) {
      emit_route_decision(inst);
      s.sink.Instant(obs::TraceOp::kAdmission, obs_ts, req.id,
                     *best_effort ? 2.0 : 0.0, outstanding(inst) + prefill_s,
                     deadline);
    }
  } else if (tracing) {
    emit_route_decision(inst);
  }

  // Predicted queue wait as a span on the router track: [decision, start
  // of service on the chosen instance] under the router's work model
  // (zero-length when no work model is maintained). The serving loop
  // emits the *measured* wait as the matching span on the instance track.
  if (tracing) {
    s.sink.Span(obs::TraceOp::kQueueWait, obs_ts, outstanding(inst), req.id,
                static_cast<double>(inst));
  }

  // 3. Commit: every live routing model observes the admitted request.
  if (need_backlog) {
    s.window[inst].emplace_back(now, req.prompt_len);
    s.backlog[inst] += req.prompt_len;
  }
  if (need_work) {
    const double start = std::max(now, s.busy_until[inst]);
    s.busy_until[inst] = start + EstimatedServiceSeconds(req);
  }
  if (!s.mirror.empty() && req.has_token_ids()) {
    const AffinityMirror::InsertDelta delta =
        s.mirror[inst].Insert(req.token_ids);
    s.cost.mirror_nodes += delta.created - delta.evicted;
    s.cost.mirror_node_peak =
        std::max(s.cost.mirror_node_peak, s.cost.mirror_nodes);
    s.cost.mirror_evictions += delta.evicted;
  }
  return inst;
}

RouteDecision Router::Route(const std::vector<Request>& trace) const {
  const int32_t n = config_.n_instances;
  RouteDecision decision;
  decision.assignment.assign(trace.size(), 0);
  decision.best_effort.assign(trace.size(), 0);
  decision.admitted_per_instance.assign(n, 0);

  RouterState state = MakeState();
  const std::vector<uint8_t> live(n, 1);
  for (size_t r = 0; r < trace.size(); ++r) {
    bool best_effort = false;
    const int32_t inst = RouteOne(trace[r], r, live, &state, &best_effort);
    if (inst == RouteDecision::kRejected) {
      decision.assignment[r] = RouteDecision::kRejected;
      ++decision.rejected;
      continue;
    }
    decision.assignment[r] = inst;
    decision.best_effort[r] = best_effort ? 1 : 0;
    ++decision.admitted;
    ++decision.admitted_per_instance[inst];
    if (best_effort) ++decision.deprioritized;
  }
  return decision;
}

}  // namespace aptserve
