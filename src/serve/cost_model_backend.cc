#include "serve/cost_model_backend.h"

#include <algorithm>

#include "common/logging.h"
#include "workload/token_ids.h"

namespace aptserve {

namespace {

/// Seed for synthesizing the token ids of requests that carry none: the
/// default InferenceBackendOptions::prompt_seed, so hit accounting on
/// length-only traces is comparable across the two backends.
constexpr uint64_t kTokenSeed = 7;

}  // namespace

StatusOr<int32_t> CostModelBackend::DerivePoolBlocks(
    const CostModel& cost_model, const Options& options) {
  if (options.pool_blocks_override > 0) return options.pool_blocks_override;
  APT_ASSIGN_OR_RETURN(double cache_bytes, cost_model.cluster().CacheBytes(
                                               cost_model.model()));
  const double block_bytes =
      options.block_size * cost_model.model().HiddenBytesPerToken();
  const int32_t blocks = static_cast<int32_t>(cache_bytes / block_bytes);
  if (blocks <= 0) return Status::InvalidArgument("no cache memory available");
  return blocks;
}

StatusOr<std::unique_ptr<CostModelBackend>> CostModelBackend::Create(
    const CostModel& cost_model, const Options& options) {
  APT_ASSIGN_OR_RETURN(int32_t pool_blocks,
                       DerivePoolBlocks(cost_model, options));
  return std::unique_ptr<CostModelBackend>(
      new CostModelBackend(cost_model, options, pool_blocks));
}

CostModelBackend::CostModelBackend(const CostModel& cost_model,
                                   const Options& options, int32_t pool_blocks)
    : cost_model_(cost_model),
      options_(options),
      pool_(pool_blocks, options.block_size),
      assigner_(&pool_),
      swap_(options.swap_blocks > 0 ? options.swap_blocks : 4 * pool_blocks),
      block_bytes_(options.block_size *
                   cost_model.model().HiddenBytesPerToken()) {
  assigner_.SetEncodingPolicy(options.cache_encoding);
  if (options.enable_prefix_sharing) assigner_.EnablePrefixSharing();
}

Status CostModelBackend::Prepare(const std::vector<SimRequest>& reqs) {
  // Validate the whole trace before registering any of it.
  for (const SimRequest& sr : reqs) APT_RETURN_NOT_OK(CheckFits(sr));
  for (const SimRequest& sr : reqs) APT_RETURN_NOT_OK(RegisterTokenIds(sr));
  return Status::OK();
}

Status CostModelBackend::Admit(const SimRequest& sr) {
  APT_RETURN_NOT_OK(CheckFits(sr));
  return RegisterTokenIds(sr);
}

Status CostModelBackend::CheckFits(const SimRequest& sr) const {
  // Every request must fit at least as hidden cache in an empty pool.
  if (assigner_.BlocksNeeded(CacheType::kHidden, sr.spec.total_len()) >
      pool_.num_blocks()) {
    return Status::InvalidArgument(
        "request " + std::to_string(sr.spec.id) +
        " cannot fit in the cache pool even with hidden cache");
  }
  return Status::OK();
}

Status CostModelBackend::RegisterTokenIds(const SimRequest& sr) {
  // Matching needs token content; without sharing nothing reads it.
  if (assigner_.prefix_index() == nullptr) return Status::OK();
  APT_ASSIGN_OR_RETURN(token_ids_[sr.spec.id],
                       PromptTokenIds(sr.spec, kTokenSeed,
                                      options_.token_vocab));
  return Status::OK();
}

const std::vector<int32_t>& CostModelBackend::TokenIds(RequestId id) const {
  static const std::vector<int32_t> kNone;
  const auto it = token_ids_.find(id);
  return it != token_ids_.end() ? it->second : kNone;
}

StatusOr<MigrationImage> CostModelBackend::ExportRequest(const SimRequest& sr) {
  const RequestId id = sr.spec.id;
  MigrationImage image;
  auto ids = token_ids_.find(id);
  if (ids != token_ids_.end()) {
    image.tokens = ids->second;
  } else if (sr.spec.has_token_ids()) {
    image.tokens = sr.spec.token_ids;
  }
  image.prompt_len = sr.spec.prompt_len;
  image.cache_type = sr.cache_type;
  if (assigner_.Has(id)) {
    APT_ASSIGN_OR_RETURN(RequestCacheImage cache,
                         assigner_.SerializeRequestCache(id));
    image.cache_type = cache.type;
    image.cached_tokens = cache.num_tokens;
    APT_RETURN_NOT_OK(assigner_.ReleaseExported(id));
  }
  token_ids_.erase(id);
  return image;
}

StatusOr<MigrationImport> CostModelBackend::ImportRequest(
    const SimRequest& sr, const MigrationImage& image) {
  APT_RETURN_NOT_OK(Admit(sr));
  const RequestId id = sr.spec.id;
  if (assigner_.prefix_index() != nullptr &&
      static_cast<int32_t>(image.tokens.size()) >= image.prompt_len &&
      image.prompt_len > 0) {
    // The source's (possibly trace-provided) content wins over a fresh
    // synthesis so matching stays consistent across the migration.
    token_ids_[id].assign(image.tokens.begin(),
                          image.tokens.begin() + image.prompt_len);
  }
  MigrationImport import;
  if (!image.carries_cache()) return import;

  auto deduped = assigner_.RestoreRequestCache(
      id, RequestCacheImage{image.cache_type, image.cached_tokens},
      TokenIds(id), image.prompt_len);
  if (!deduped.ok()) {
    if (deduped.status().IsOutOfMemory()) {
      return import;  // cold import: the request re-prefills here
    }
    return deduped.status();
  }
  import.cache_restored = true;
  import.deduped_tokens = *deduped;
  import.copied_tokens = image.cached_tokens - *deduped;
  // Int8 tiers (and the quantize-in-transit knob) move codes plus
  // per-vector scale/zero instead of full-width values, so the
  // interconnect term prices ~4x fewer bytes per copied token.
  const double comps = image.cache_type == CacheType::kKV ? 2.0 : 1.0;
  const bool int8_transport =
      assigner_.EncodingFor(image.cache_type) == BlockEncoding::kInt8 ||
      options_.cache_encoding.quantize_migration_payload;
  const double per_token_bytes =
      int8_transport ? comps * cost_model_.model().Int8HiddenBytesPerToken()
                     : comps * block_bytes_ / options_.block_size;
  import.bytes = import.copied_tokens * per_token_bytes;
  return import;
}

void CostModelBackend::BeginIteration() {
  workload_ = BatchWorkload{};
  iter_swap_bytes_ = 0.0;
}

StatusOr<double> CostModelBackend::EndIteration() {
  // Publish blocks of prefills that completed this iteration. Deferred to
  // here — not done inside ExecutePrefillChunk — so a same-iteration
  // sibling cannot match them yet, exactly like the engine backend, whose
  // blocks only exist after its end-of-iteration flush.
  for (RequestId id : pending_inserts_) {
    const auto& tokens = TokenIds(id);
    assigner_.PublishPrompt(id, tokens, static_cast<int32_t>(tokens.size()));
  }
  pending_inserts_.clear();
  workload_.swap_bytes = carry_swap_bytes_ + iter_swap_bytes_;
  carry_swap_bytes_ = 0.0;
  return cost_model_.IterationSeconds(workload_);
}

Status CostModelBackend::Release(const SimRequest& sr) {
  return assigner_.Release(sr.spec.id);
}

Status CostModelBackend::Convert(const SimRequest& sr, CacheType new_type) {
  (void)new_type;  // the loop retypes the mirrored request state
  return assigner_.DiscardForConversion(sr.spec.id);
}

StatusOr<bool> CostModelBackend::TrySwapOut(const SimRequest& sr) {
  const CacheMap* map = assigner_.Find(sr.spec.id);
  APT_CHECK(map != nullptr);
  if (!swap_.SwapOut(sr.spec.id, sr.cache_type, sr.cached_tokens,
                     map->TotalBlocks())
           .ok()) {
    return false;  // swap space full: caller falls back to recompute
  }
  carry_swap_bytes_ += map->TotalBlocks() * block_bytes_;
  APT_RETURN_NOT_OK(assigner_.Release(sr.spec.id));
  return true;
}

StatusOr<bool> CostModelBackend::TrySwapIn(const SimRequest& sr) {
  const SwapSpace::Entry* entry = swap_.Find(sr.spec.id);
  APT_CHECK(entry != nullptr);
  const int32_t need = assigner_.BlocksNeeded(entry->type, entry->tokens);
  if (need > pool_.num_free()) return false;
  APT_ASSIGN_OR_RETURN(SwapSpace::Entry e, swap_.SwapIn(sr.spec.id));
  APT_RETURN_NOT_OK(assigner_.CreateFilled(sr.spec.id, e.type, e.tokens));
  iter_swap_bytes_ +=
      assigner_.Find(sr.spec.id)->TotalBlocks() * block_bytes_;
  return true;
}

StatusOr<ExecutionBackend::StepOutcome> CostModelBackend::ExecutePrefillChunk(
    const SimRequest& sr, CacheType cache_type, int32_t chunk) {
  const RequestId id = sr.spec.id;
  // Prefix sharing is the assigner's, as on the engine: matched positions
  // are adopted, and only the rest are priced as prefill work.
  const StatusOr<int32_t> skipped =
      assigner_.AllocatePrefill(id, cache_type, TokenIds(id),
                                sr.spec.prompt_len, sr.PrefillTarget(), chunk);
  if (skipped.status().IsOutOfMemory()) return StepOutcome{true, false};
  APT_RETURN_NOT_OK(skipped.status());
  const int32_t computed = std::min(chunk, sr.PrefillTarget() - *skipped);
  workload_.prefill_tokens += computed;
  // Adopted positions still count as attended context for the computed
  // span — attention over a hit prefix is real work, recomputing it isn't.
  const int64_t k = sr.prefill_progress + *skipped;
  const int64_t c = computed;
  workload_.prefill_attend_tokens += c * k + c * (c + 1) / 2;
  const bool completes =
      sr.prefill_progress + *skipped + computed >= sr.PrefillTarget();
  if (completes && assigner_.prefix_index() != nullptr) {
    pending_inserts_.push_back(id);
  }
  return StepOutcome{false, completes, computed, *skipped};
}

StatusOr<ExecutionBackend::StepOutcome> CostModelBackend::ExecuteDecode(
    const SimRequest& sr) {
  Status st = assigner_.Append(sr.spec.id, 1);
  if (st.IsOutOfMemory()) return StepOutcome{true, false};
  APT_RETURN_NOT_OK(st);
  ++workload_.decode_reqs;
  // sr.cached_tokens is grown by the loop's emit pass, so here it still
  // holds the pre-growth count == number of past context tokens.
  const int64_t ctx = sr.cached_tokens;
  if (sr.cache_type == CacheType::kHidden) {
    workload_.decode_hidden_context_tokens += ctx;
  } else {
    workload_.decode_kv_context_tokens += ctx;
  }
  return StepOutcome{false, true};
}

Status CostModelBackend::OnFinish(const SimRequest& sr) {
  return assigner_.Release(sr.spec.id);
}

Status CostModelBackend::Finalize() {
  APT_CHECK_MSG(swap_.used_blocks() == 0,
                "swap space must drain by the end of the run");
  return Status::OK();
}

}  // namespace aptserve
