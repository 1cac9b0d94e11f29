// One-item TransformerModel::ForwardBatch calls for tests that drive the
// cached forward a decode step or a prefill chunk at a time.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/cache_map.h"
#include "common/status.h"
#include "engine/block_storage.h"
#include "engine/transformer.h"

namespace aptserve {

/// Forwards tokens[start, tokens.size()) over positions [0, start) already
/// cached in `map` ((chunked) prefill); returns the item's status.
inline Status ForwardSpan(const TransformerModel& model,
                          const std::vector<int32_t>& tokens, int32_t start,
                          const CacheMap& map, BlockStorage* storage,
                          std::vector<float>* logits,
                          runtime::ThreadPool* pool = nullptr) {
  APT_CHECK(start >= 0 && start <= static_cast<int32_t>(tokens.size()));
  ForwardItem item{tokens.data() + start, start,
                   static_cast<int32_t>(tokens.size()) - start, &map, logits};
  model.ForwardBatch(&item, 1, storage, pool);
  return item.status;
}

/// Forwards the one token at position `pos` over positions [0, pos)
/// already cached in `map` (decode); returns the item's status.
inline Status ForwardToken(const TransformerModel& model, int32_t token,
                           int32_t pos, const CacheMap& map,
                           BlockStorage* storage, std::vector<float>* logits,
                           runtime::ThreadPool* pool = nullptr) {
  ForwardItem item{&token, pos, 1, &map, logits};
  model.ForwardBatch(&item, 1, storage, pool);
  return item.status;
}

}  // namespace aptserve
