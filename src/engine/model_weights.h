// Randomly initialized, seeded transformer weights. The reproduction has no
// pretrained checkpoints available offline; correctness claims (KV path ==
// hidden path == full recompute) hold for arbitrary weights, so seeded
// random weights exercise the same code paths a real checkpoint would.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/model_config.h"
#include "engine/tensor.h"

namespace aptserve {

/// One transformer layer's parameters (paper Eqs. 1–4, pre-LN).
struct LayerWeights {
  Tensor wq, wk, wv, wo;      ///< [d_model, d_model]
  Tensor w1;                  ///< [d_ff, d_model]
  Tensor w2;                  ///< [d_model, d_ff]
  Tensor ln1_gain, ln1_bias;  ///< [d_model]
  Tensor ln2_gain, ln2_bias;  ///< [d_model]
};

struct ModelWeights {
  ModelConfig config;
  Tensor token_embedding;     ///< [vocab, d_model]; also the tied output head.
  Tensor position_embedding;  ///< [max_seq_len, d_model]
  Tensor final_ln_gain, final_ln_bias;  ///< [d_model]
  std::vector<LayerWeights> layers;

  /// Builds weights with scaled-normal initialization from `seed`.
  static ModelWeights Random(const ModelConfig& config, uint64_t seed);
};

}  // namespace aptserve
