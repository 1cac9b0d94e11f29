#include "serve/inference_backend.h"

#include <chrono>
#include <string>
#include <utility>

#include "common/logging.h"
#include "sim/cluster_spec.h"
#include "sim/model_spec.h"
#include "workload/token_ids.h"

namespace aptserve {

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

CostModel MakeRhoCarrier(double rho) {
  // The cost model's only role on this backend is carrying rho to the
  // scheduler's quantification model (paper Eq. 6).
  CostModel cm(ModelSpec::Opt13B(), ClusterSpec::ForModel(ModelSpec::Opt13B()));
  cm.SetRhoOverride(rho);
  return cm;
}

int32_t SwapCapacity(const InferenceBackendOptions& options,
                     int32_t pool_blocks) {
  return options.swap_blocks > 0 ? options.swap_blocks : 4 * pool_blocks;
}

InferenceEngine* CheckNotNull(InferenceEngine* engine) {
  APT_CHECK(engine != nullptr);
  return engine;
}

}  // namespace

InferenceBackend::InferenceBackend(InferenceEngine* engine,
                                   const InferenceBackendOptions& options)
    : engine_(CheckNotNull(engine)),
      options_(options),
      cost_model_(MakeRhoCarrier(options.rho_seconds_per_token)),
      swap_(SwapCapacity(options, engine_->pool().num_blocks())),
      prompt_rng_(options.prompt_seed) {
  if (options.enable_prefix_sharing) engine_->assigner().EnablePrefixSharing();
}

InferenceBackend::InferenceBackend(const ModelConfig& model,
                                   uint64_t weight_seed, int32_t num_blocks,
                                   int32_t block_size,
                                   const SamplingParams& sampling,
                                   const InferenceBackendOptions& options)
    : owned_engine_(std::make_unique<InferenceEngine>(
          model, weight_seed, num_blocks, block_size, options.runtime)),
      engine_(owned_engine_.get()),
      options_(options),
      cost_model_(MakeRhoCarrier(options.rho_seconds_per_token)),
      swap_(SwapCapacity(options, num_blocks)),
      prompt_rng_(options.prompt_seed) {
  engine_->SetSampling(sampling, weight_seed ^ 0x5851f42dULL);
  engine_->SetEncodingPolicy(options.cache_encoding);
  if (options.enable_prefix_sharing) engine_->assigner().EnablePrefixSharing();
}

Status InferenceBackend::Prepare(const std::vector<SimRequest>& reqs) {
  // Validate the whole trace before mutating the engine, so a rejected
  // trace leaves a reusable engine behind.
  for (const SimRequest& sr : reqs) APT_RETURN_NOT_OK(CheckContext(sr));
  for (const SimRequest& sr : reqs) APT_RETURN_NOT_OK(Register(sr));
  return Status::OK();
}

Status InferenceBackend::Admit(const SimRequest& sr) {
  APT_RETURN_NOT_OK(CheckContext(sr));
  return Register(sr);
}

Status InferenceBackend::CheckContext(const SimRequest& sr) const {
  if (sr.spec.total_len() + 1 > engine_->model().config().max_seq_len) {
    return Status::InvalidArgument(
        "request " + std::to_string(sr.spec.id) + " exceeds model context");
  }
  return Status::OK();
}

Status InferenceBackend::Register(const SimRequest& sr) {
  const int32_t vocab = engine_->model().config().vocab_size;
  // Prompts come from the trace when it carries token content (prefix
  // sharing matches on it). Length-only traces: with sharing enabled,
  // the same order-independent synthesizer the analytic backend uses
  // (so hit accounting stays comparable across backends when their
  // seed/vocab agree); with sharing off, the legacy sequential stream,
  // bit-identical to pre-sharing behaviour. Registration order must match
  // arrival order for that stream to reproduce a whole-shard Prepare.
  std::vector<int32_t> prompt;
  if (sr.spec.has_token_ids() || options_.enable_prefix_sharing) {
    // AddRequest validates the vocab range.
    APT_ASSIGN_OR_RETURN(prompt,
                         PromptTokenIds(sr.spec, options_.prompt_seed, vocab));
  } else {
    prompt.resize(sr.spec.prompt_len);
    for (int32_t& t : prompt) {
      t = static_cast<int32_t>(prompt_rng_.UniformInt(0, vocab - 1));
    }
  }
  return engine_->AddRequest(sr.spec.id, std::move(prompt), CacheType::kKV);
}

StatusOr<MigrationImage> InferenceBackend::ExportRequest(const SimRequest& sr) {
  if (swap_.Contains(sr.spec.id)) {
    return Status::FailedPrecondition(
        "swapped-out requests migrate cold, not live");
  }
  return engine_->ExportRequest(sr.spec.id);
}

StatusOr<MigrationImport> InferenceBackend::ImportRequest(
    const SimRequest& sr, const MigrationImage& image) {
  APT_RETURN_NOT_OK(CheckContext(sr));
  return engine_->ImportRequest(sr.spec.id, image);
}

void InferenceBackend::BeginIteration() {
  APT_CHECK_MSG(pending_.empty(),
                "previous iteration left unflushed pending steps");
  iteration_start_ = NowSeconds();
  executed_items_ = 0;
}

Status InferenceBackend::FlushPending() {
  if (pending_.empty()) return Status::OK();
  std::vector<PendingStep> steps = std::move(pending_);
  pending_.clear();
  return engine_->ExecuteSteps(&steps);
}

StatusOr<double> InferenceBackend::EndIteration() {
  // Run the deferred forwards of this iteration's batch — one batched
  // forward — before the clock is read, so measured latency covers the
  // whole batch.
  APT_RETURN_NOT_OK(FlushPending());
  if (options_.virtual_timing) {
    // Swap-outs of iterations that executed nothing carry forward to the
    // next executed iteration, mirroring the analytic backend's
    // carry_swap_bytes_ accounting.
    const double latency =
        options_.virtual_item_seconds * (executed_items_ + carry_items_);
    carry_items_ = 0;
    return latency;
  }
  return NowSeconds() - iteration_start_;
}

Status InferenceBackend::Release(const SimRequest& sr) {
  // Recompute preemption: the engine keeps token state and discards any
  // host swap copy; mirror the capacity account.
  if (swap_.Contains(sr.spec.id)) {
    APT_RETURN_NOT_OK(swap_.Drop(sr.spec.id));
  }
  return engine_->Preempt(sr.spec.id);
}

Status InferenceBackend::Convert(const SimRequest& sr, CacheType new_type) {
  // Paper §5: a type switch discards the cache (a swapped copy of the old
  // type is invalidated too) and the next prefill rebuilds it.
  if (swap_.Contains(sr.spec.id)) {
    APT_RETURN_NOT_OK(swap_.Drop(sr.spec.id));
  }
  APT_RETURN_NOT_OK(engine_->Preempt(sr.spec.id));
  return engine_->ConvertCacheType(sr.spec.id, new_type);
}

StatusOr<bool> InferenceBackend::TrySwapOut(const SimRequest& sr) {
  const CacheMap* map = engine_->assigner().Find(sr.spec.id);
  APT_CHECK(map != nullptr);
  // Reserve host capacity first; a full swap space falls back to recompute
  // exactly like the analytic backend.
  if (!swap_.SwapOut(sr.spec.id, sr.cache_type, sr.cached_tokens,
                     map->TotalBlocks())
           .ok()) {
    return false;
  }
  Status st = engine_->SwapOut(sr.spec.id);
  if (!st.ok()) {
    APT_RETURN_NOT_OK(swap_.Drop(sr.spec.id));
    return false;
  }
  ++carry_items_;  // the payload copy costs virtual time too
  return true;
}

StatusOr<bool> InferenceBackend::TrySwapIn(const SimRequest& sr) {
  APT_CHECK(swap_.Contains(sr.spec.id));
  Status st = engine_->SwapIn(sr.spec.id);
  if (st.IsOutOfMemory()) return false;  // stays swapped; retried later
  APT_RETURN_NOT_OK(st);
  APT_ASSIGN_OR_RETURN(SwapSpace::Entry entry, swap_.SwapIn(sr.spec.id));
  (void)entry;
  ++executed_items_;  // the payload copy costs real (or virtual) time
  return true;
}

Status InferenceBackend::FlushIfPending(RequestId id) {
  // A scheduler may (pathologically) schedule the same request twice in
  // one plan; serial execution would run the first step before preparing
  // the second, so the deferred path must flush to stay equivalent.
  for (const PendingStep& step : pending_) {
    if (step.id == id) return FlushPending();
  }
  return Status::OK();
}

StatusOr<ExecutionBackend::StepOutcome> InferenceBackend::ExecutePrefillChunk(
    const SimRequest& sr, CacheType cache_type, int32_t chunk) {
  if (!engine_->assigner().Has(sr.spec.id)) {
    // Fresh pass: adopt the scheduler's cache-type choice.
    APT_RETURN_NOT_OK(engine_->ConvertCacheType(sr.spec.id, cache_type));
  }
  APT_RETURN_NOT_OK(FlushIfPending(sr.spec.id));
  auto r = engine_->PreparePrefillChunk(sr.spec.id, chunk);
  if (!r.ok() && r.status().IsOutOfMemory()) return StepOutcome{true, false};
  if (!r.ok()) return r.status();
  ++executed_items_;
  StepOutcome outcome;
  outcome.token = r->completes;
  outcome.computed = r->upto - r->start;
  outcome.prefix_skipped = r->prefix_skipped;
  pending_.push_back(std::move(*r));
  return outcome;
}

StatusOr<ExecutionBackend::StepOutcome> InferenceBackend::ExecuteDecode(
    const SimRequest& sr) {
  APT_RETURN_NOT_OK(FlushIfPending(sr.spec.id));
  auto r = engine_->PrepareDecode(sr.spec.id);
  if (!r.ok() && r.status().IsOutOfMemory()) return StepOutcome{true, false};
  if (!r.ok()) return r.status();
  ++executed_items_;
  pending_.push_back(std::move(*r));
  return StepOutcome{false, true};
}

Status InferenceBackend::OnFinish(const SimRequest& sr) {
  const GenerationState* gs = engine_->Find(sr.spec.id);
  APT_CHECK(gs != nullptr);
  finished_tokens_[sr.spec.id] = gs->tokens;
  if (options_.finished_sink != nullptr) {
    (*options_.finished_sink)[sr.spec.id] = gs->tokens;
  }
  return engine_->RemoveRequest(sr.spec.id);
}

Status InferenceBackend::Finalize() {
  APT_CHECK_MSG(pending_.empty(),
                "run finished with unflushed pending steps");
  APT_CHECK_MSG(swap_.used_blocks() == 0,
                "swap space must drain by the end of the run");
  return Status::OK();
}

}  // namespace aptserve
