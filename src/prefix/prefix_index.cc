#include "prefix/prefix_index.h"

#include <algorithm>

#include "common/logging.h"

namespace aptserve {

PrefixIndex::PrefixIndex(BlockPool* pool, int32_t block_size)
    : pool_(pool), block_size_(block_size) {
  APT_CHECK(pool != nullptr);
  APT_CHECK_MSG(block_size > 0, "block size must be positive");
  APT_CHECK_MSG(block_size == pool->block_size(),
                "index block size must match the pool's");
}

PrefixIndex::~PrefixIndex() { Clear(); }

PrefixMatch PrefixIndex::Match(const std::vector<int32_t>& tokens,
                               int32_t max_usable) {
  ++stats_.lookups;
  if (hooks_.lookups != nullptr) hooks_.lookups->Inc();
  PrefixMatch match;
  if (max_usable <= 0) return match;

  // Walk the longest raw path first; the cap is applied afterwards so a
  // match that overruns `max_usable` mid-block becomes the COW case.
  std::vector<Node*> path;
  Node* node = &root_;
  int32_t raw = 0;
  std::vector<int32_t> chunk(block_size_);
  while (raw + block_size_ <= static_cast<int32_t>(tokens.size())) {
    chunk.assign(tokens.begin() + raw, tokens.begin() + raw + block_size_);
    auto it = node->children.find(chunk);
    if (it == node->children.end()) break;
    node = it->second.get();
    path.push_back(node);
    raw += block_size_;
  }
  if (raw == 0) return match;

  const int32_t usable = std::min(raw, max_usable);
  if (usable <= 0) return match;
  // Keep the matched path hot regardless of the cap: the deep prefix was
  // recognized even if the requester cannot use all of it.
  for (Node* n : path) Touch(n);

  const int32_t full = usable / block_size_;
  const int32_t cow = usable % block_size_;
  match.tokens = usable;
  match.k_blocks.reserve(full);
  match.v_blocks.reserve(full);
  for (int32_t i = 0; i < full; ++i) {
    match.k_blocks.push_back(path[i]->k_block);
    match.v_blocks.push_back(path[i]->v_block);
  }
  if (cow > 0) {
    match.cow_src_k = path[full]->k_block;
    match.cow_src_v = path[full]->v_block;
    match.cow_tokens = cow;
  }
  return match;
}

void PrefixIndex::RecordAdoption(const PrefixMatch& match) {
  if (!match.hit()) return;
  ++stats_.hits;
  stats_.matched_tokens += match.tokens;
  stats_.shared_blocks += static_cast<int64_t>(match.k_blocks.size());
  if (match.cow_tokens > 0) ++stats_.cow_matches;
  if (hooks_.hits != nullptr) hooks_.hits->Inc();
  if (hooks_.hit_tokens != nullptr) hooks_.hit_tokens->Inc(match.tokens);
}

int32_t PrefixIndex::Insert(const std::vector<int32_t>& tokens,
                            int32_t num_tokens,
                            const std::vector<BlockId>& k_blocks,
                            const std::vector<BlockId>& v_blocks) {
  const int32_t limit =
      std::min(num_tokens, static_cast<int32_t>(tokens.size()));
  const int32_t max_nodes =
      std::min(static_cast<int32_t>(std::min(k_blocks.size(), v_blocks.size())),
               limit / block_size_);
  Node* node = &root_;
  int32_t created = 0;
  std::vector<int32_t> chunk(block_size_);
  for (int32_t i = 0; i < max_nodes; ++i) {
    chunk.assign(tokens.begin() + static_cast<int64_t>(i) * block_size_,
                 tokens.begin() + static_cast<int64_t>(i + 1) * block_size_);
    auto it = node->children.find(chunk);
    if (it != node->children.end()) {
      // First writer wins: the existing node's payload caches the same
      // token prefix, so re-pointing it at this request's blocks would
      // only churn references for no benefit.
      node = it->second.get();
      Touch(node);
      continue;
    }
    APT_CHECK_MSG(pool_->IsAllocated(k_blocks[i]) &&
                      pool_->IsAllocated(v_blocks[i]),
                  "cannot index a free block");
    auto child = std::make_unique<Node>();
    child->parent = node;
    child->k_block = k_blocks[i];
    child->v_block = v_blocks[i];
    APT_CHECK(pool_->Ref(k_blocks[i]).ok());
    APT_CHECK(pool_->Ref(v_blocks[i]).ok());
    Node* raw = child.get();
    node->children.emplace(chunk, std::move(child));
    node = raw;
    Touch(node);
    ++created;
    ++num_nodes_;
    stats_.inserted_blocks += 2;
    if (hooks_.inserted_blocks != nullptr) hooks_.inserted_blocks->Inc(2);
  }
  return created;
}

void PrefixIndex::CollectEvictableLeaves(Node* node,
                                         std::vector<Node*>* out) const {
  // A leaf is evictable when nothing besides the index owns its blocks; a
  // pinned leaf (matched by a request mid-seeding, or still part of a live
  // cache map) has RefCount > 1 and is skipped, which is exactly the
  // "eviction racing a concurrent match" guarantee.
  for (const auto& [chunk, child] : node->children) {
    (void)chunk;
    if (child->children.empty()) {
      if (pool_->RefCount(child->k_block) == 1 &&
          pool_->RefCount(child->v_block) == 1) {
        out->push_back(child.get());
      }
    } else {
      CollectEvictableLeaves(child.get(), out);
    }
  }
}

int32_t PrefixIndex::EvictLru(int32_t min_blocks) {
  int32_t freed = 0;
  while (freed < min_blocks) {
    // One traversal per wave: collect every currently evictable leaf, then
    // evict in LRU order. Interior nodes exposed by a wave become leaves
    // for the next one, so sustained pressure still peels bottom-up
    // without rescanning the tree per evicted pair.
    std::vector<Node*> wave;
    CollectEvictableLeaves(&root_, &wave);
    if (wave.empty()) break;
    std::sort(wave.begin(), wave.end(), [](const Node* a, const Node* b) {
      return a->last_use < b->last_use;
    });
    for (Node* victim : wave) {
      if (freed >= min_blocks) return freed;
      APT_CHECK(pool_->Free(victim->k_block).ok());
      APT_CHECK(pool_->Free(victim->v_block).ok());
      freed += 2;
      stats_.evicted_blocks += 2;
      if (hooks_.evicted_blocks != nullptr) hooks_.evicted_blocks->Inc(2);
      --num_nodes_;
      Node* parent = victim->parent;
      for (auto it = parent->children.begin(); it != parent->children.end();
           ++it) {
        if (it->second.get() == victim) {
          parent->children.erase(it);
          break;
        }
      }
    }
  }
  return freed;
}

int32_t PrefixIndex::EvictableBlocks() const {
  bool whole = false;
  return CountEvictable(root_, &whole);
}

int32_t PrefixIndex::CountEvictable(const Node& node, bool* whole) const {
  // A node drains once its subtree has: EvictLru peels leaves wave by wave,
  // so a pinned descendant keeps every ancestor in the index.
  int32_t blocks = 0;
  *whole = true;
  for (const auto& [chunk, child] : node.children) {
    (void)chunk;
    bool below = false;
    blocks += CountEvictable(*child, &below);
    if (below && pool_->RefCount(child->k_block) == 1 &&
        pool_->RefCount(child->v_block) == 1) {
      blocks += 2;
    } else {
      *whole = false;
    }
  }
  return blocks;
}

void PrefixIndex::Clear() {
  // Post-order release: children before parents (unique_ptr destruction
  // handles the tree; the pool references need the explicit walk).
  struct Walker {
    BlockPool* pool;
    void Release(Node* node) {
      for (auto& [chunk, child] : node->children) {
        (void)chunk;
        Release(child.get());
        APT_CHECK(pool->Free(child->k_block).ok());
        APT_CHECK(pool->Free(child->v_block).ok());
      }
      node->children.clear();
    }
  };
  Walker{pool_}.Release(&root_);
  num_nodes_ = 0;
}

std::string PrefixIndex::DebugString() const {
  std::string out = "PrefixIndex{nodes=" + std::to_string(num_nodes_) +
                    ", indexed_blocks=" + std::to_string(indexed_blocks()) +
                    ", lookups=" + std::to_string(stats_.lookups) +
                    ", hits=" + std::to_string(stats_.hits) +
                    ", matched_tokens=" + std::to_string(stats_.matched_tokens) +
                    ", shared_blocks=" + std::to_string(stats_.shared_blocks) +
                    ", cow_matches=" + std::to_string(stats_.cow_matches) +
                    ", inserted_blocks=" +
                    std::to_string(stats_.inserted_blocks) +
                    ", evicted_blocks=" +
                    std::to_string(stats_.evicted_blocks) + "}\n  " +
                    pool_->DebugString();
  return out;
}

}  // namespace aptserve
