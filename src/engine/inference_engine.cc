#include "engine/inference_engine.h"

#include <algorithm>

#include "cache/quantization.h"
#include "engine/ops.h"

namespace aptserve {

InferenceEngine::InferenceEngine(const ModelConfig& config, uint64_t seed,
                                 int32_t num_blocks, int32_t block_size,
                                 const RuntimeConfig& runtime)
    : storage_(num_blocks, block_size, config.n_layers, config.d_model),
      model_(TransformerModel::Shared(config, seed)),
      pool_(num_blocks, block_size),
      assigner_(&pool_) {
  if (runtime.ResolvedNumThreads() > 1) {
    thread_pool_ = std::make_unique<runtime::ThreadPool>(runtime);
  }
}

void InferenceEngine::SetSampling(const SamplingParams& params,
                                  uint64_t sample_seed) {
  sampling_ = params;
  sample_seed_ = sample_seed;
}

void InferenceEngine::SetEncodingPolicy(const CacheEncodingPolicy& policy) {
  assigner_.SetEncodingPolicy(policy);
}

void InferenceEngine::AttachMetrics(obs::MetricsRegistry* registry,
                                    const std::string& labels) {
  if (registry == nullptr) {
    obs_decode_prepared_ = nullptr;
    obs_prefill_prepared_ = nullptr;
    obs_steps_computed_ = nullptr;
    obs_steps_finished_ = nullptr;
    pool_.AttachMetrics(nullptr, nullptr);
    assigner_.AttachPrefixMetrics(PrefixIndex::MetricHooks{});
    return;
  }
  const auto with = [&](const std::string& extra) {
    return labels.empty() ? extra : labels + "," + extra;
  };
  obs_decode_prepared_ = registry->GetCounter(
      "aptserve_engine_steps_prepared_total", with("kind=\"decode\""));
  obs_prefill_prepared_ = registry->GetCounter(
      "aptserve_engine_steps_prepared_total", with("kind=\"prefill\""));
  obs_steps_computed_ =
      registry->GetCounter("aptserve_engine_steps_computed_total", labels);
  obs_steps_finished_ =
      registry->GetCounter("aptserve_engine_steps_finished_total", labels);
  // The pool gauges carry the encoding policy as labels: the unified pool
  // has no per-block tier, so "occupancy by tier" means "this engine's
  // pool, whose caches encode kv/hidden at these tiers".
  const CacheEncodingPolicy& policy = assigner_.encoding_policy();
  const std::string tiers =
      with(std::string("kv=\"") + BlockEncodingName(policy.kv) +
           "\",hidden=\"" + BlockEncodingName(policy.hidden) + "\"");
  pool_.AttachMetrics(
      registry->GetGauge("aptserve_engine_pool_blocks", tiers),
      registry->GetGauge("aptserve_engine_pool_blocks_peak", tiers));
  PrefixIndex::MetricHooks hooks;
  hooks.lookups =
      registry->GetCounter("aptserve_prefix_index_lookups_total", labels);
  hooks.hits = registry->GetCounter("aptserve_prefix_index_hits_total", labels);
  hooks.hit_tokens =
      registry->GetCounter("aptserve_prefix_index_hit_tokens_total", labels);
  hooks.inserted_blocks = registry->GetCounter(
      "aptserve_prefix_index_inserted_blocks_total", labels);
  hooks.evicted_blocks = registry->GetCounter(
      "aptserve_prefix_index_evicted_blocks_total", labels);
  assigner_.AttachPrefixMetrics(hooks);
}

namespace {

/// The copy-on-write payload copy for a seeded map's private tail.
HybridCacheAssigner::CowCopy CopyInto(BlockStorage* storage) {
  return [storage](BlockId src, BlockId dst, int32_t tokens) {
    storage->CopyBlockPrefix(src, dst, tokens);
  };
}

/// splitmix64 finalizer over (seed, request, position): the counter-based
/// per-draw seed that makes every sampled token a pure function of the
/// request — no shared stream exists to couple requests through batch
/// composition, chunking, preemption, migration, or serving mode.
uint64_t DrawSeed(uint64_t seed, RequestId id, size_t position) {
  uint64_t x = seed;
  x ^= 0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(id) + 1);
  x ^= 0xBF58476D1CE4E5B9ULL * (static_cast<uint64_t>(position) + 1);
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

StatusOr<int32_t> InferenceEngine::SampleNext(
    RequestId id, const GenerationState& gs, const std::vector<float>& logits) {
  if (sampling_.kind == SamplingParams::Kind::kGreedy) {
    return SampleToken(logits, sampling_, nullptr);
  }
  // The draw position is the absolute token index being produced, so a
  // resumed or migrated request continues exactly the stream it would have
  // produced uninterrupted.
  Rng draw_rng(DrawSeed(sample_seed_, id, gs.tokens.size()));
  return SampleToken(logits, sampling_, &draw_rng);
}

Status InferenceEngine::AddRequest(RequestId id, std::vector<int32_t> prompt,
                                   CacheType cache_type) {
  if (requests_.count(id)) {
    return Status::AlreadyExists("request " + std::to_string(id) +
                                 " already registered");
  }
  if (prompt.empty()) return Status::InvalidArgument("empty prompt");
  for (int32_t t : prompt) {
    if (t < 0 || t >= model_->config().vocab_size) {
      return Status::InvalidArgument("prompt token out of vocabulary");
    }
  }
  GenerationState gs;
  gs.prompt_len = static_cast<int32_t>(prompt.size());
  gs.tokens = std::move(prompt);
  gs.cache_type = cache_type;
  requests_.emplace(id, std::move(gs));
  return Status::OK();
}

StatusOr<PendingStep> InferenceEngine::PreparePrefillChunk(
    RequestId id, int32_t max_tokens) {
  auto it = requests_.find(id);
  if (it == requests_.end()) return Status::NotFound("unknown request");
  GenerationState& gs = it->second;
  if (swapped_.count(id)) {
    return Status::FailedPrecondition(
        "request is swapped out; SwapIn() before continuing");
  }
  if (gs.in_decode) {
    return Status::FailedPrecondition("request already prefilled");
  }
  if (max_tokens <= 0) {
    return Status::InvalidArgument("chunk must be positive");
  }
  const int32_t target = gs.PrefillTarget();
  if (target > model_->config().max_seq_len) {
    return Status::InvalidArgument("sequence exceeds max_seq_len");
  }

  // A fresh KV pass first adopts cached blocks of its prompt (the
  // assigner's prefix sharing); on failure nothing changes.
  const bool fresh = !assigner_.Has(id);
  const int32_t chunk = std::min(target - gs.cached_tokens, max_tokens);
  APT_CHECK(chunk > 0);
  APT_ASSIGN_OR_RETURN(const int32_t skipped,
                       assigner_.AllocatePrefill(id, gs.cache_type, gs.tokens,
                                                 gs.prompt_len, target, chunk,
                                                 CopyInto(&storage_)));
  gs.cached_tokens += skipped;
  const int32_t upto = std::min(target, gs.cached_tokens + max_tokens);
  if (obs_prefill_prepared_ != nullptr) obs_prefill_prepared_->Inc();
  PendingStep step;
  step.id = id;
  step.is_decode = false;
  step.prefill_tokens.assign(gs.tokens.begin() + gs.cached_tokens,
                             gs.tokens.begin() + upto);
  step.start = gs.cached_tokens;
  step.upto = upto;
  step.fresh = fresh;
  step.completes = upto >= target;
  step.prefix_skipped = skipped;
  return step;
}

StatusOr<std::optional<int32_t>> InferenceEngine::PrefillChunk(
    RequestId id, int32_t max_tokens) {
  APT_ASSIGN_OR_RETURN(PendingStep step, PreparePrefillChunk(id, max_tokens));
  ComputeSteps(&step, 1);
  return FinishStep(&step);
}

StatusOr<int32_t> InferenceEngine::Prefill(RequestId id) {
  auto it = requests_.find(id);
  if (it == requests_.end()) return Status::NotFound("unknown request");
  const int32_t remaining =
      it->second.PrefillTarget() - it->second.cached_tokens;
  if (remaining <= 0 && it->second.in_decode) {
    return Status::FailedPrecondition("request already prefilled");
  }
  APT_ASSIGN_OR_RETURN(std::optional<int32_t> token,
                       PrefillChunk(id, std::max(remaining, 1)));
  APT_CHECK_MSG(token.has_value(), "full prefill must complete the pass");
  return *token;
}

StatusOr<PendingStep> InferenceEngine::PrepareDecode(RequestId id) {
  auto it = requests_.find(id);
  if (it == requests_.end()) return Status::NotFound("unknown request");
  GenerationState& gs = it->second;
  if (!gs.in_decode) {
    return Status::FailedPrecondition("request needs a prefill first");
  }
  const int32_t pos = gs.cached_tokens;
  APT_CHECK(pos < static_cast<int32_t>(gs.tokens.size()));
  if (pos >= model_->config().max_seq_len) {
    return Status::InvalidArgument("sequence reached max_seq_len");
  }
  APT_RETURN_NOT_OK(assigner_.Append(id, 1));
  if (obs_decode_prepared_ != nullptr) obs_decode_prepared_->Inc();
  PendingStep step;
  step.id = id;
  step.is_decode = true;
  step.pos = pos;
  step.token = gs.tokens[pos];
  return step;
}

StatusOr<int32_t> InferenceEngine::DecodeStep(RequestId id) {
  APT_ASSIGN_OR_RETURN(PendingStep step, PrepareDecode(id));
  ComputeSteps(&step, 1);
  APT_ASSIGN_OR_RETURN(std::optional<int32_t> next, FinishStep(&step));
  APT_CHECK(next.has_value());
  return *next;
}

void InferenceEngine::ComputeSteps(PendingStep* steps, size_t n) {
  // One layer-major forward over every step whose map is still present;
  // items keep their own status, so a rejected step fails alone.
  std::vector<ForwardItem> items;
  std::vector<PendingStep*> owners;
  for (size_t s = 0; s < n; ++s) {
    PendingStep& step = steps[s];
    APT_CHECK(!step.computed);
    step.computed = true;
    if (obs_steps_computed_ != nullptr) obs_steps_computed_->Inc();
    const CacheMap* map = assigner_.Find(step.id);
    if (map == nullptr) {
      step.compute_status =
          Status::Internal("pending step lost its cache map before compute");
      continue;
    }
    ForwardItem item;
    if (step.is_decode) {
      item.tokens = &step.token;
      item.start = step.pos;
      item.count = 1;
    } else {
      item.tokens = step.prefill_tokens.data();
      item.start = step.start;
      item.count = step.upto - step.start;
    }
    item.map = map;
    item.logits = &step.logits;
    items.push_back(item);
    owners.push_back(&step);
  }
  model_->ForwardBatch(items.data(), static_cast<int32_t>(items.size()),
                      &storage_, thread_pool_.get());
  for (size_t i = 0; i < items.size(); ++i) {
    owners[i]->compute_status = std::move(items[i].status);
  }
}

StatusOr<std::optional<int32_t>> InferenceEngine::FinishStep(
    PendingStep* step) {
  APT_CHECK(step != nullptr && step->computed);
  if (obs_steps_finished_ != nullptr) obs_steps_finished_->Inc();
  auto it = requests_.find(step->id);
  APT_CHECK_MSG(it != requests_.end(),
                "pending step finished for a removed request");
  GenerationState& gs = it->second;
  if (!step->compute_status.ok()) {
    if (!step->is_decode && step->fresh) {
      (void)assigner_.Release(step->id);
      gs.cached_tokens = 0;  // a seeded prepare advanced it
    }
    return step->compute_status;
  }
  if (step->is_decode) {
    gs.cached_tokens = step->pos + 1;
  } else {
    gs.cached_tokens = step->upto;
    if (!step->completes) return std::optional<int32_t>{};  // more chunks
    gs.in_decode = true;
    // Index the completed pass's full prompt blocks so later requests (and
    // this request's own re-prefills) can adopt them.
    assigner_.PublishPrompt(step->id, gs.tokens, gs.prompt_len);
  }
  APT_ASSIGN_OR_RETURN(const int32_t next,
                       SampleNext(step->id, gs, step->logits));
  gs.tokens.push_back(next);
  return std::optional<int32_t>{next};
}

Status InferenceEngine::ExecuteSteps(std::vector<PendingStep>* steps) {
  APT_CHECK(steps != nullptr);
  ComputeSteps(steps->data(), steps->size());
  // Serial finish barrier, in preparation order: state mutations (cache
  // advance, prefix-index inserts) replay exactly as in serial execution.
  // Sampling itself is counter-based per request, so it is order-free.
  // Every step finishes; the first failure is reported.
  Status first = Status::OK();
  for (PendingStep& step : *steps) {
    auto finished = FinishStep(&step);
    if (!finished.ok() && first.ok()) first = finished.status();
  }
  return first;
}

Status InferenceEngine::ConvertCacheType(RequestId id, CacheType new_type) {
  auto it = requests_.find(id);
  if (it == requests_.end()) return Status::NotFound("unknown request");
  GenerationState& gs = it->second;
  if (gs.cache_type == new_type) return Status::OK();
  gs.cache_type = new_type;
  if (assigner_.Has(id)) {
    // Paper §5: a type switch discards the cache; the next Prefill() rebuilds
    // it from the prompt plus all generated tokens so far (footnote 2).
    APT_RETURN_NOT_OK(assigner_.DiscardForConversion(id));
  }
  // A host-side swap copy holds the old type; it is invalidated too.
  swapped_.erase(id);
  gs.cached_tokens = 0;
  gs.in_decode = false;
  return Status::OK();
}

Status InferenceEngine::Preempt(RequestId id) {
  auto it = requests_.find(id);
  if (it == requests_.end()) return Status::NotFound("unknown request");
  GenerationState& gs = it->second;
  if (assigner_.Has(id)) {
    APT_RETURN_NOT_OK(assigner_.Release(id));
  }
  swapped_.erase(id);  // recompute preemption discards any swap copy
  gs.cached_tokens = 0;
  gs.in_decode = false;
  return Status::OK();
}

Status InferenceEngine::SwapOut(RequestId id) {
  auto it = requests_.find(id);
  if (it == requests_.end()) return Status::NotFound("unknown request");
  if (swapped_.count(id)) {
    return Status::AlreadyExists("request already swapped out");
  }
  GenerationState& gs = it->second;
  const CacheMap* map = assigner_.Find(id);
  if (map == nullptr || gs.cached_tokens == 0) {
    return Status::FailedPrecondition("request holds no cache to swap");
  }
  const int32_t d = model_->config().d_model;
  const int32_t layers = model_->config().n_layers;
  SwappedCache host;
  host.type = gs.cache_type;
  host.tokens = gs.cached_tokens;
  host.was_in_decode = gs.in_decode;
  const auto components = map->Components();
  host.data.resize(static_cast<int64_t>(components.size()) * layers *
                   host.tokens * d);
  int64_t cursor = 0;
  for (CacheComponent c : components) {
    for (int32_t l = 0; l < layers; ++l) {
      storage_.Gather(*map, c, l, host.tokens, host.data.data() + cursor);
      cursor += static_cast<int64_t>(host.tokens) * d;
    }
  }
  APT_RETURN_NOT_OK(assigner_.Release(id));
  gs.cached_tokens = 0;
  gs.in_decode = false;
  swapped_.emplace(id, std::move(host));
  return Status::OK();
}

Status InferenceEngine::SwapIn(RequestId id) {
  auto req_it = requests_.find(id);
  if (req_it == requests_.end()) return Status::NotFound("unknown request");
  auto swap_it = swapped_.find(id);
  if (swap_it == swapped_.end()) {
    return Status::FailedPrecondition("request is not swapped out");
  }
  const SwappedCache& host = swap_it->second;
  APT_RETURN_NOT_OK(assigner_.CreateFilled(id, host.type, host.tokens));
  const CacheMap* map = assigner_.Find(id);
  const int32_t d = model_->config().d_model;
  const int32_t layers = model_->config().n_layers;
  int64_t cursor = 0;
  for (CacheComponent c : map->Components()) {
    for (int32_t l = 0; l < layers; ++l) {
      for (int32_t pos = 0; pos < host.tokens; ++pos) {
        storage_.WriteVector(*map, c, l, pos,
                             host.data.data() + cursor +
                                 static_cast<int64_t>(pos) * d);
      }
      cursor += static_cast<int64_t>(host.tokens) * d;
    }
  }
  GenerationState& gs = req_it->second;
  gs.cache_type = host.type;
  gs.cached_tokens = host.tokens;
  gs.in_decode = host.was_in_decode;
  swapped_.erase(swap_it);
  return Status::OK();
}

StatusOr<MigrationImage> InferenceEngine::ExportRequest(RequestId id) {
  auto it = requests_.find(id);
  if (it == requests_.end()) return Status::NotFound("unknown request");
  if (swapped_.count(id)) {
    return Status::FailedPrecondition(
        "request is swapped out; it must migrate cold");
  }
  GenerationState& gs = it->second;
  MigrationImage image;
  image.tokens = gs.tokens;
  image.prompt_len = gs.prompt_len;
  image.cache_type = gs.cache_type;
  image.cached_tokens = gs.cached_tokens;
  if (gs.cached_tokens > 0) {
    const CacheMap* map = assigner_.Find(id);
    APT_CHECK_MSG(map != nullptr, "cached tokens without a cache map");
    const int32_t d = model_->config().d_model;
    const int32_t layers = model_->config().n_layers;
    const auto components = map->Components();
    const int64_t vectors = static_cast<int64_t>(components.size()) * layers *
                            gs.cached_tokens;
    // Int8 blocks always travel as raw codes (exact, ~4x fewer bytes);
    // fp32 blocks quantize in transit only when the policy opts in.
    const bool int8_transport =
        map->encoding() == BlockEncoding::kInt8 ||
        assigner_.encoding_policy().quantize_migration_payload;
    if (int8_transport) {
      image.payload_encoding = BlockEncoding::kInt8;
      image.qpayload.resize(vectors * d);
      image.qscale.resize(vectors);
      image.qzero.resize(vectors);
      std::vector<float> row(d);
      int64_t v = 0;
      for (CacheComponent c : components) {
        for (int32_t l = 0; l < layers; ++l) {
          for (int32_t pos = 0; pos < gs.cached_tokens; ++pos, ++v) {
            uint8_t* codes = image.qpayload.data() + v * d;
            QuantParams p;
            if (map->encoding() == BlockEncoding::kInt8) {
              storage_.ReadQuantized(*map, c, l, pos, codes, &p);
            } else {
              storage_.ReadVector(*map, c, l, pos, row.data());
              p = ComputeQuantParams(row.data(), d);
              QuantizeVector(row.data(), d, p, codes);
            }
            image.qscale[v] = p.scale;
            image.qzero[v] = p.zero;
          }
        }
      }
    } else {
      image.payload.resize(vectors * d);
      int64_t cursor = 0;
      for (CacheComponent c : components) {
        for (int32_t l = 0; l < layers; ++l) {
          storage_.Gather(*map, c, l, gs.cached_tokens,
                          image.payload.data() + cursor);
          cursor += static_cast<int64_t>(gs.cached_tokens) * d;
        }
      }
    }
    APT_RETURN_NOT_OK(assigner_.ReleaseExported(id));
  }
  requests_.erase(it);
  return image;
}

StatusOr<MigrationImport> InferenceEngine::ImportRequest(
    RequestId id, const MigrationImage& image) {
  if (requests_.count(id)) {
    return Status::AlreadyExists("request " + std::to_string(id) +
                                 " already registered");
  }
  if (image.tokens.empty() || image.prompt_len <= 0 ||
      image.prompt_len > static_cast<int32_t>(image.tokens.size())) {
    return Status::InvalidArgument("malformed migration image");
  }
  if (image.cached_tokens > static_cast<int32_t>(image.tokens.size())) {
    return Status::InvalidArgument("image caches more than its tokens");
  }
  GenerationState gs;
  gs.tokens = image.tokens;
  gs.prompt_len = image.prompt_len;
  gs.cache_type = image.cache_type;
  requests_.emplace(id, gs);

  MigrationImport import;
  if (image.cached_tokens == 0) return import;

  // Re-resolve the cached prompt prefix through this engine's index so
  // already-resident shared blocks dedupe instead of crossing the
  // interconnect.
  auto deduped = assigner_.RestoreRequestCache(
      id, RequestCacheImage{image.cache_type, image.cached_tokens},
      image.tokens, image.prompt_len, CopyInto(&storage_));
  if (!deduped.ok()) {
    if (deduped.status().IsOutOfMemory()) {
      return import;  // cold import: the request re-prefills here
    }
    requests_.erase(id);
    return deduped.status();
  }

  // Scatter the transferred span [deduped, cached) from the payload.
  const CacheMap* map = assigner_.Find(id);
  APT_CHECK(map != nullptr);
  const int32_t d = model_->config().d_model;
  const int32_t layers = model_->config().n_layers;
  const auto components = map->Components();
  const int64_t vectors = static_cast<int64_t>(components.size()) * layers *
                          image.cached_tokens;
  if (image.payload_encoding == BlockEncoding::kInt8) {
    APT_CHECK(static_cast<int64_t>(image.qpayload.size()) == vectors * d);
    APT_CHECK(static_cast<int64_t>(image.qscale.size()) == vectors &&
              static_cast<int64_t>(image.qzero.size()) == vectors);
  } else {
    APT_CHECK(static_cast<int64_t>(image.payload.size()) == vectors * d);
  }
  std::vector<float> row(d);
  int64_t base = 0;  // vector index of (component, layer, pos=0)
  for (CacheComponent c : components) {
    for (int32_t l = 0; l < layers; ++l) {
      for (int32_t pos = *deduped; pos < image.cached_tokens; ++pos) {
        const int64_t v = base + pos;
        if (image.payload_encoding == BlockEncoding::kInt8) {
          const uint8_t* codes = image.qpayload.data() + v * d;
          const QuantParams p{image.qscale[v], image.qzero[v]};
          if (map->encoding() == BlockEncoding::kInt8) {
            // Raw code transport between int8 tiers: bit-exact handoff.
            storage_.WriteQuantized(*map, c, l, pos, codes, p);
          } else {
            DequantizeVector(codes, d, p, row.data());
            storage_.WriteVector(*map, c, l, pos, row.data());
          }
        } else {
          // WriteVector quantizes in place when this tier is int8.
          storage_.WriteVector(*map, c, l, pos,
                               image.payload.data() + v * d);
        }
      }
      base += image.cached_tokens;
    }
  }
  auto& state = requests_.at(id);
  state.cached_tokens = image.cached_tokens;
  import.cache_restored = true;
  import.deduped_tokens = *deduped;
  import.copied_tokens = image.cached_tokens - *deduped;
  import.bytes = static_cast<double>(import.copied_tokens) *
                 static_cast<double>(components.size()) * layers *
                 image.BytesPerVector(d);
  return import;
}

Status InferenceEngine::RemoveRequest(RequestId id) {
  auto it = requests_.find(id);
  if (it == requests_.end()) return Status::NotFound("unknown request");
  if (assigner_.Has(id)) APT_RETURN_NOT_OK(assigner_.Release(id));
  swapped_.erase(id);
  requests_.erase(it);
  return Status::OK();
}

StatusOr<std::vector<int32_t>> InferenceEngine::Generate(
    RequestId id, int32_t max_new_tokens, int32_t eos_token) {
  auto it = requests_.find(id);
  if (it == requests_.end()) return Status::NotFound("unknown request");
  int32_t produced = 0;
  if (!it->second.in_decode) {
    APT_ASSIGN_OR_RETURN(int32_t first, Prefill(id));
    ++produced;
    if (first == eos_token) return it->second.tokens;
  }
  while (produced < max_new_tokens) {
    if (static_cast<int32_t>(it->second.tokens.size()) >=
        model_->config().max_seq_len) {
      break;
    }
    APT_ASSIGN_OR_RETURN(int32_t next, DecodeStep(id));
    ++produced;
    if (next == eos_token) break;
  }
  return it->second.tokens;
}

const GenerationState* InferenceEngine::Find(RequestId id) const {
  auto it = requests_.find(id);
  return it == requests_.end() ? nullptr : &it->second;
}

}  // namespace aptserve
