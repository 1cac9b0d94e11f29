#include "engine/transformer.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <map>
#include <mutex>
#include <tuple>
#include <utility>

#include "engine/ops.h"
#include "runtime/thread_pool.h"

namespace aptserve {

namespace {

/// Grows `v` to at least `n` elements, dropping the old contents first so
/// growing never holds two copies at once.
void Reserve(std::vector<float>* v, int64_t n) {
  if (static_cast<int64_t>(v->size()) >= n) return;
  std::vector<float>().swap(*v);
  v->resize(n);
}

}  // namespace

/// One attention task's context: K/V over [0, start + count) for an item
/// with a past, a tile of the hidden path's past layer inputs and their
/// LayerNorm, and a score row.
struct TransformerModel::Context {
  std::vector<float> keys, values, past, past_ln, scores;
};

/// ForwardBatch's scratch: reused across one call's row groups, layers and
/// items, and released when the call returns. (Kept across calls, it would
/// pin the largest prefill's footprint for the engine's life.)
struct TransformerModel::Workspace {
  /// (item index, first row) of each item in the current row group.
  std::vector<std::pair<int32_t, int32_t>> spans;
  /// [rows, d_model] per-row activations: the residual stream `x`; `h`,
  /// which holds each layer's normalized rows, then Q, then the attention
  /// output, then the FFN's normalized input; and K/V. `ff` is one row
  /// tile of the FFN (or of Q).
  std::vector<float> x, h, k, v, ff;
  /// [group items, d_model] final-LayerNorm rows, and their logits.
  std::vector<float> last, logits;
  /// One context per attention task (see ForwardGroup).
  std::vector<Context> contexts;
};

TransformerModel::TransformerModel(ModelWeights weights)
    : weights_(std::move(weights)) {
  Status st = weights_.config.Validate();
  APT_CHECK_MSG(st.ok(), st.ToString());
}

std::shared_ptr<const TransformerModel> TransformerModel::Shared(
    const ModelConfig& config, uint64_t seed) {
  // Every ModelConfig field is part of the key: the binding stops
  // compiling when ModelConfig gains a field, which must then join it.
  const auto& [vocab_size, d_model, n_heads, n_layers, d_ff, max_seq_len,
               use_relu] = config;
  using Key = std::tuple<int32_t, int32_t, int32_t, int32_t, int32_t, int32_t,
                         bool, uint64_t>;
  const Key key{vocab_size, d_model,     n_heads,  n_layers,
                d_ff,       max_seq_len, use_relu, seed};
  static std::mutex mu;
  static std::map<Key, std::weak_ptr<const TransformerModel>> live;
  std::lock_guard<std::mutex> lock(mu);
  for (auto it = live.begin(); it != live.end();) {
    it = it->second.expired() ? live.erase(it) : std::next(it);
  }
  auto& slot = live[key];
  std::shared_ptr<const TransformerModel> model = slot.lock();
  if (model == nullptr) {
    // Not make_shared: a weak reference must not pin the model's storage.
    model = std::shared_ptr<const TransformerModel>(
        new TransformerModel(ModelWeights::Random(config, seed)));
    slot = model;
  }
  return model;
}

void TransformerModel::Activation(float* x, int32_t n) const {
  if (weights_.config.use_relu) {
    ops::Relu(x, n);
  } else {
    ops::Gelu(x, n);
  }
}

void TransformerModel::ReferenceAttention(const float* q, const float* keys,
                                          const float* values, int32_t n_ctx,
                                          float* out) const {
  const ModelConfig& cfg = weights_.config;
  const int32_t hd = cfg.head_dim();
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
  std::vector<float> scores(n_ctx);
  for (int32_t h = 0; h < cfg.n_heads; ++h) {
    const int32_t off = h * hd;
    for (int32_t j = 0; j < n_ctx; ++j) {
      scores[j] =
          ops::Dot(q + off, keys + static_cast<int64_t>(j) * cfg.d_model + off,
                   hd) *
          scale;
    }
    ops::Softmax(scores.data(), n_ctx);
    float* o = out + off;
    std::fill(o, o + hd, 0.0f);
    for (int32_t j = 0; j < n_ctx; ++j) {
      const float* v = values + static_cast<int64_t>(j) * cfg.d_model + off;
      const float a = scores[j];
      for (int32_t k = 0; k < hd; ++k) o[k] += a * v[k];
    }
  }
}

void TransformerModel::AttendHead(const float* q, const float* keys,
                                  const float* values, int32_t n_ctx,
                                  int32_t head, float* out,
                                  float* scores) const {
  const ModelConfig& cfg = weights_.config;
  const int32_t d = cfg.d_model;
  const int32_t hd = cfg.head_dim();
  const int32_t off = head * hd;
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
  ops::ScoreKeys(q + off, keys + off, d, n_ctx, hd, scale, scores);
  ops::Softmax(scores, n_ctx);
  ops::WeightedSum(scores, values + off, d, n_ctx, hd, out + off);
}

StatusOr<std::vector<float>> TransformerModel::ForwardFull(
    const std::vector<int32_t>& tokens, runtime::ThreadPool* pool) const {
  const ModelConfig& cfg = weights_.config;
  const int32_t n = static_cast<int32_t>(tokens.size());
  if (n == 0) return Status::InvalidArgument("empty token sequence");
  if (n > cfg.max_seq_len) {
    return Status::InvalidArgument("sequence exceeds max_seq_len");
  }
  const int32_t d = cfg.d_model;

  // X holds the current layer's inputs for all positions.
  Tensor x({n, d});
  for (int32_t i = 0; i < n; ++i) {
    const int32_t t = tokens[i];
    if (t < 0 || t >= cfg.vocab_size) {
      return Status::InvalidArgument("token id out of vocabulary");
    }
    std::memcpy(x.Row(i), weights_.token_embedding.Row(t), sizeof(float) * d);
    ops::AddInPlace(x.Row(i), weights_.position_embedding.Row(i), d);
  }

  Tensor keys({n, d}), values({n, d}), normed({n, d});
  for (const LayerWeights& lw : weights_.layers) {
    // Pass 1: K/V for every position from the layer input — one batched
    // LayerNorm shared by both projections, then one blocked GEMM each.
    ops::LayerNormBatch(x.data(), lw.ln1_gain.data(), lw.ln1_bias.data(),
                        normed.data(), n, d, pool);
    ops::MatMat(lw.wk.data(), normed.data(), keys.data(), n, d, d, pool);
    ops::MatMat(lw.wv.data(), normed.data(), values.data(), n, d, d, pool);
    // Pass 2: causal attention + FFN per position. Positions are
    // independent given the K/V of pass 1 (position i reads keys[0..i]).
    runtime::ParallelFor(pool, 0, n, 1, [&](int64_t lo, int64_t hi) {
      std::vector<float> ln(d), q(d), attn(d), proj(d), ff(cfg.d_ff), ffo(d);
      for (int64_t i = lo; i < hi; ++i) {
        const int32_t pos = static_cast<int32_t>(i);
        ops::LayerNorm(x.Row(pos), lw.ln1_gain.data(), lw.ln1_bias.data(),
                       ln.data(), d);
        ops::MatVec(lw.wq.data(), ln.data(), q.data(), d, d);
        ReferenceAttention(q.data(), keys.data(), values.data(), pos + 1,
                           attn.data());
        ops::MatVec(lw.wo.data(), attn.data(), proj.data(), d, d);
        ops::AddInPlace(x.Row(pos), proj.data(), d);

        ops::LayerNorm(x.Row(pos), lw.ln2_gain.data(), lw.ln2_bias.data(),
                       ln.data(), d);
        ops::MatVec(lw.w1.data(), ln.data(), ff.data(), cfg.d_ff, d);
        Activation(ff.data(), cfg.d_ff);
        ops::MatVec(lw.w2.data(), ff.data(), ffo.data(), d, cfg.d_ff);
        ops::AddInPlace(x.Row(pos), ffo.data(), d);
      }
    });
  }

  std::vector<float> ln(d);
  ops::LayerNorm(x.Row(n - 1), weights_.final_ln_gain.data(),
                 weights_.final_ln_bias.data(), ln.data(), d);
  std::vector<float> logits(cfg.vocab_size);
  ops::MatVecBlocked(weights_.token_embedding.data(), ln.data(), logits.data(),
                     cfg.vocab_size, d, pool);
  return logits;
}

Status TransformerModel::CheckItem(const ForwardItem& item) const {
  const ModelConfig& cfg = weights_.config;
  APT_CHECK(item.map != nullptr && item.logits != nullptr);
  if (item.count <= 0) return Status::InvalidArgument("empty token span");
  if (item.start < 0 || item.start + item.count > cfg.max_seq_len) {
    return Status::InvalidArgument("position exceeds max_seq_len");
  }
  if (item.map->num_tokens() < item.start + item.count) {
    return Status::FailedPrecondition(
        "cache map does not cover the span; allocate first");
  }
  for (int32_t r = 0; r < item.count; ++r) {
    if (item.tokens[r] < 0 || item.tokens[r] >= cfg.vocab_size) {
      return Status::InvalidArgument("token id out of vocabulary");
    }
  }
  return Status::OK();
}

void TransformerModel::ForwardBatch(ForwardItem* items, int32_t n_items,
                                    BlockStorage* storage,
                                    runtime::ThreadPool* pool) const {
  APT_CHECK(n_items >= 0 && storage != nullptr);
  for (int32_t j = 0; j < n_items; ++j) items[j].status = CheckItem(items[j]);
  Workspace ws;
  int32_t i = 0;
  while (i < n_items) {
    // Collect the next group: accepted items up to kGroupRows rows, or one
    // longer item alone (a span is never split — an int8 map's cache
    // round trip is lossy, so its rows must see each other's fresh K/V).
    ws.spans.clear();
    int32_t rows = 0;
    for (; i < n_items; ++i) {
      if (!items[i].status.ok()) continue;
      if (rows > 0 && rows + items[i].count > kGroupRows) break;
      ws.spans.emplace_back(i, rows);
      rows += items[i].count;
    }
    if (rows > 0) ForwardGroup(items, rows, storage, &ws, pool);
  }
}

void TransformerModel::ForwardGroup(ForwardItem* items, int32_t rows,
                                    BlockStorage* storage, Workspace* ws,
                                    runtime::ThreadPool* pool) const {
  const ModelConfig& cfg = weights_.config;
  const int32_t d = cfg.d_model;
  const int32_t n_spans = static_cast<int32_t>(ws->spans.size());
  const int32_t rd = rows * d;
  for (std::vector<float>* buf : {&ws->x, &ws->h, &ws->k, &ws->v}) {
    Reserve(buf, rd);
  }
  Reserve(&ws->ff, static_cast<int64_t>(std::min(rows, kTileRows)) *
                       std::max(cfg.d_ff, d));
  Reserve(&ws->last, static_cast<int64_t>(n_spans) * d);
  Reserve(&ws->logits, static_cast<int64_t>(n_spans) * cfg.vocab_size);
  float* x = ws->x.data();
  float* h = ws->h.data();
  float* ff = ws->ff.data();
  const int32_t fan = pool != nullptr && n_spans >= pool->num_threads()
                          ? pool->num_threads()
                          : 1;
  if (static_cast<int32_t>(ws->contexts.size()) < fan) {
    ws->contexts.resize(fan);
  }

  for (const auto& [i, row] : ws->spans) {
    const ForwardItem& item = items[i];
    for (int32_t r = 0; r < item.count; ++r) {
      float* xr = x + static_cast<int64_t>(row + r) * d;
      std::memcpy(xr, weights_.token_embedding.Row(item.tokens[r]),
                  sizeof(float) * d);
      ops::AddInPlace(xr, weights_.position_embedding.Row(item.start + r), d);
    }
  }

  for (int32_t l = 0; l < cfg.n_layers; ++l) {
    const LayerWeights& lw = weights_.layers[l];
    ops::LayerNormBatch(x, lw.ln1_gain.data(), lw.ln1_bias.data(), h, rows,
                        d, pool);
    ops::MatMat(lw.wk.data(), h, ws->k.data(), rows, d, d, pool);
    ops::MatMat(lw.wv.data(), h, ws->v.data(), rows, d, d, pool);
    // Q replaces the normalized rows a tile at a time, through `ff`, so a
    // group holds four [rows, d] buffers, not five.
    for (int32_t t0 = 0; t0 < rows; t0 += kTileRows) {
      const int32_t tn = std::min(kTileRows, rows - t0);
      float* ht = h + static_cast<int64_t>(t0) * d;
      ops::MatMat(lw.wq.data(), ht, ff, tn, d, d, pool);
      std::memcpy(ht, ff, sizeof(float) * tn * d);
    }
    // This layer's cache writes (block-slot copies; serial). They land at
    // each span's own positions, which no past read below touches.
    for (const auto& [i, row] : ws->spans) {
      const ForwardItem& item = items[i];
      for (int32_t r = 0; r < item.count; ++r) {
        const int32_t pos = item.start + r;
        const int64_t off = static_cast<int64_t>(row + r) * d;
        if (item.map->type() == CacheType::kKV) {
          storage->WriteVector(*item.map, CacheComponent::kKey, l, pos,
                               ws->k.data() + off);
          storage->WriteVector(*item.map, CacheComponent::kValue, l, pos,
                               ws->v.data() + off);
        } else {
          storage->WriteVector(*item.map, CacheComponent::kHidden, l, pos,
                               x + off);
        }
      }
    }
    // Attention overwrites Q with its output. With at least as many items
    // as threads, `fan` tasks claim items one at a time (hidden-cache
    // items cost far more than KV ones) and run each serially; with fewer,
    // one task runs the items in turn with the pool inside each
    // (re-projection, row x head units). In bench_parallel_scaling on 4
    // cores, fanning out decoded batches of 4-16 at 2-8 threads 1.2-2.5x
    // faster than the pool inside each item (12 interleaved pairs;
    // DESIGN.md).
    std::atomic<int32_t> next{0};
    runtime::ParallelFor(pool, 0, fan, 1, [&](int64_t lo, int64_t hi) {
      for (int64_t t = lo; t < hi; ++t) {
        for (int32_t s; (s = next.fetch_add(1)) < n_spans;) {
          const auto& [i, row] = ws->spans[s];
          AttendItem(items[i], row, l, *storage, ws, &ws->contexts[t],
                     fan > 1 ? nullptr : pool);
        }
      }
    });
    // K/V are spent: k holds each sublayer's output projection.
    float* proj = ws->k.data();
    ops::MatMat(lw.wo.data(), h, proj, rows, d, d, pool);
    ops::AddInPlace(x, proj, rd);

    ops::LayerNormBatch(x, lw.ln2_gain.data(), lw.ln2_bias.data(), h, rows,
                        d, pool);
    // The FFN is row-local: tiles of rows keep its d_ff-wide activations
    // small while W1/W2 stay cache-hot across tiles.
    for (int32_t t0 = 0; t0 < rows; t0 += kTileRows) {
      const int32_t tn = std::min(kTileRows, rows - t0);
      const int64_t off = static_cast<int64_t>(t0) * d;
      ops::FusedMatMatAct(lw.w1.data(), h + off, ff, tn, cfg.d_ff, d,
                          cfg.use_relu, pool);
      ops::MatMat(lw.w2.data(), ff, proj + off, tn, d, cfg.d_ff, pool);
    }
    ops::AddInPlace(x, proj, rd);
  }

  // Logits at each item's last row: one MatMat over the final-LayerNorm
  // rows.
  for (int32_t s = 0; s < n_spans; ++s) {
    const auto& [i, row] = ws->spans[s];
    const int32_t last_row = row + items[i].count - 1;
    ops::LayerNorm(x + static_cast<int64_t>(last_row) * d,
                   weights_.final_ln_gain.data(),
                   weights_.final_ln_bias.data(),
                   ws->last.data() + static_cast<int64_t>(s) * d, d);
  }
  ops::MatMat(weights_.token_embedding.data(), ws->last.data(),
              ws->logits.data(), n_spans, cfg.vocab_size, d, pool);
  for (int32_t s = 0; s < n_spans; ++s) {
    const float* lg =
        ws->logits.data() + static_cast<int64_t>(s) * cfg.vocab_size;
    items[ws->spans[s].first].logits->assign(lg, lg + cfg.vocab_size);
  }
}

void TransformerModel::AttendItem(const ForwardItem& item, int32_t row,
                                  int32_t layer, const BlockStorage& storage,
                                  Workspace* ws, Context* ctx,
                                  runtime::ThreadPool* pool) const {
  const ModelConfig& cfg = weights_.config;
  const int32_t d = cfg.d_model;
  const int32_t start = item.start;
  const int32_t n_ctx = start + item.count;
  const int64_t span = static_cast<int64_t>(row) * d;
  Reserve(&ctx->scores, n_ctx);
  // K/V over [0, n_ctx): a span with no past attends straight over its
  // own fresh rows; otherwise the past is assembled in `ctx` and the
  // span's rows are appended.
  const float* keys = ws->k.data() + span;
  const float* values = ws->v.data() + span;
  if (start > 0) {
    Reserve(&ctx->keys, static_cast<int64_t>(n_ctx) * d);
    Reserve(&ctx->values, static_cast<int64_t>(n_ctx) * d);
    float* past_k = ctx->keys.data();
    float* past_v = ctx->values.data();
    if (item.map->type() == CacheType::kKV) {
      // Figure 3a: straight from cache.
      storage.Gather(*item.map, CacheComponent::kKey, layer, start, past_k);
      storage.Gather(*item.map, CacheComponent::kValue, layer, start, past_v);
    } else {
      // Figure 3b: re-project the cached layer inputs — the extra linear
      // work of the hidden cache — a tile of rows at a time.
      const LayerWeights& lw = weights_.layers[layer];
      const int64_t tile = std::min(start, kTileRows);
      Reserve(&ctx->past, tile * d);
      Reserve(&ctx->past_ln, tile * d);
      for (int32_t j0 = 0; j0 < start; j0 += kTileRows) {
        const int32_t jn = std::min(kTileRows, start - j0);
        for (int32_t j = 0; j < jn; ++j) {
          storage.ReadVector(*item.map, CacheComponent::kHidden, layer, j0 + j,
                             ctx->past.data() + static_cast<int64_t>(j) * d);
        }
        ops::LayerNormBatch(ctx->past.data(), lw.ln1_gain.data(),
                            lw.ln1_bias.data(), ctx->past_ln.data(), jn, d,
                            pool);
        const int64_t off = static_cast<int64_t>(j0) * d;
        ops::MatMat(lw.wk.data(), ctx->past_ln.data(), past_k + off, jn, d, d,
                    pool);
        ops::MatMat(lw.wv.data(), ctx->past_ln.data(), past_v + off, jn, d, d,
                    pool);
      }
    }
    const size_t span_bytes = sizeof(float) * item.count * d;
    std::memcpy(past_k + static_cast<int64_t>(start) * d, keys, span_bytes);
    std::memcpy(past_v + static_cast<int64_t>(start) * d, values, span_bytes);
    keys = past_k;
    values = past_v;
  }

  // Causal attention: span row r attends over [0, start + r]. (row, head)
  // units own disjoint head slices; each writes its output over the q
  // slice it has just scored with (k/v are not touched).
  float* q = ws->h.data() + span;
  const int32_t heads = cfg.n_heads;
  const auto attend = [&](int64_t lo, int64_t hi, float* scores) {
    for (int64_t u = lo; u < hi; ++u) {
      const int32_t r = static_cast<int32_t>(u / heads);
      float* qr = q + static_cast<int64_t>(r) * d;
      AttendHead(qr, keys, values, start + r + 1,
                 static_cast<int32_t>(u % heads), qr, scores);
    }
  };
  const int64_t units = static_cast<int64_t>(item.count) * heads;
  // Each row scores and mixes up to n_ctx keys over all d_model lanes.
  const int64_t tasks = ops::ParallelTasks(
      pool, 2 * static_cast<int64_t>(item.count) * n_ctx * d);
  if (tasks <= 1) {
    attend(0, units, ctx->scores.data());
  } else {
    pool->ParallelFor(0, units, (units + tasks - 1) / tasks,
                      [&](int64_t lo, int64_t hi) {
      std::vector<float> scores(n_ctx);
      attend(lo, hi, scores.data());
    });
  }
}

}  // namespace aptserve
