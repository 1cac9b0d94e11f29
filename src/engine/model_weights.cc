#include "engine/model_weights.h"

#include <cmath>

#include "common/rng.h"

namespace aptserve {

namespace {

Tensor RandomMatrix(Rng* rng, int32_t rows, int32_t cols, float scale) {
  Tensor t({rows, cols});
  rng->FillNormal(t.data(), t.NumElements(), scale);
  return t;
}

Tensor Ones(int32_t n) {
  Tensor t({n});
  t.Fill(1.0f);
  return t;
}

Tensor Zeros(int32_t n) { return Tensor({n}); }

}  // namespace

ModelWeights ModelWeights::Random(const ModelConfig& config, uint64_t seed) {
  Rng rng(seed);
  ModelWeights w;
  w.config = config;
  const float emb_scale = 0.05f;
  const float proj_scale =
      1.0f / std::sqrt(static_cast<float>(config.d_model));
  const float ff_scale = 1.0f / std::sqrt(static_cast<float>(config.d_ff));

  w.token_embedding =
      RandomMatrix(&rng, config.vocab_size, config.d_model, emb_scale);
  w.position_embedding =
      RandomMatrix(&rng, config.max_seq_len, config.d_model, emb_scale);
  w.final_ln_gain = Ones(config.d_model);
  w.final_ln_bias = Zeros(config.d_model);

  w.layers.reserve(config.n_layers);
  for (int32_t l = 0; l < config.n_layers; ++l) {
    LayerWeights lw;
    lw.wq = RandomMatrix(&rng, config.d_model, config.d_model, proj_scale);
    lw.wk = RandomMatrix(&rng, config.d_model, config.d_model, proj_scale);
    lw.wv = RandomMatrix(&rng, config.d_model, config.d_model, proj_scale);
    lw.wo = RandomMatrix(&rng, config.d_model, config.d_model, proj_scale);
    lw.w1 = RandomMatrix(&rng, config.d_ff, config.d_model, proj_scale);
    lw.w2 = RandomMatrix(&rng, config.d_model, config.d_ff, ff_scale);
    lw.ln1_gain = Ones(config.d_model);
    lw.ln1_bias = Zeros(config.d_model);
    lw.ln2_gain = Ones(config.d_model);
    lw.ln2_bias = Zeros(config.d_model);
    w.layers.push_back(std::move(lw));
  }
  return w;
}

}  // namespace aptserve
