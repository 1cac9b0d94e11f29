#include "serve/cell_router.h"

#include <algorithm>

#include "common/logging.h"

namespace aptserve {

namespace {

/// splitmix64 finalizer: cheap, well-mixed, and stable across platforms —
/// ring placement and key hashing must never change between builds or the
/// cell assignment of every committed trace changes with them.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Virtual nodes per cell on the consistent-hash ring. More replicas
/// smooth the keyspace share per cell; 64 keeps the ring a few KB at 128
/// cells while bounding share skew to a few percent.
constexpr int32_t kRingReplicas = 64;
/// Leading full block chunks hashed into the ring key. One chunk pins a
/// conversation's turns (same system prompt + opening) to one cell.
constexpr int32_t kHashChunks = 1;
/// Ring/key hash seed.
constexpr uint64_t kHashSeed = 0x9e3779b97f4a7c15ull;

}  // namespace

CellRouter::CellRouter(const CellRouterConfig& config,
                       int32_t block_size_fallback)
    : config_(config),
      block_size_(config.block_size > 0 ? config.block_size
                                        : block_size_fallback) {
  APT_CHECK_MSG(config_.num_cells >= 1, "a fleet needs at least one cell");
  APT_CHECK(block_size_ >= 1);

  ring_.reserve(static_cast<size_t>(config_.num_cells) * kRingReplicas);
  for (int32_t c = 0; c < config_.num_cells; ++c) {
    for (int32_t r = 0; r < kRingReplicas; ++r) {
      const uint64_t point =
          Mix64(kHashSeed ^ Mix64((static_cast<uint64_t>(c) << 20) +
                                  static_cast<uint64_t>(r)));
      ring_.emplace_back(point, c);
    }
  }
  std::sort(ring_.begin(), ring_.end());

  busy_until_.assign(config_.num_cells, 0.0);
  live_.assign(config_.num_cells, 1);
  for (int32_t c = 0; c < config_.num_cells; ++c) loads_.emplace(0.0, c);
}

uint64_t CellRouter::PrefixKey(const Request& req) const {
  if (!req.has_token_ids()) return 0;
  // Same usable-positions rule as the affinity mirrors: a chunk counts
  // only when fully contained in the first prompt_len - 1 positions.
  const int32_t usable = static_cast<int32_t>(req.token_ids.size()) - 1;
  const int32_t full_chunks = usable / block_size_;
  if (full_chunks < 1) return 0;
  const int32_t chunks = std::min(kHashChunks, full_chunks);
  uint64_t h = Mix64(kHashSeed);
  for (int32_t i = 0; i < chunks * block_size_; ++i) {
    h = Mix64(h ^ static_cast<uint64_t>(
                      static_cast<uint32_t>(req.token_ids[i])));
  }
  // Reserve 0 as the "no usable chunk" sentinel.
  return h != 0 ? h : 1;
}

int32_t CellRouter::RingCell(uint64_t key) const {
  auto it = std::upper_bound(ring_.begin(), ring_.end(),
                             std::make_pair(key, INT32_MAX));
  if (it == ring_.end()) it = ring_.begin();  // wrap around the ring
  return it->second;
}

double CellRouter::Outstanding(int32_t cell, double now) const {
  APT_CHECK(cell >= 0 && cell < config_.num_cells);
  return std::max(0.0, busy_until_[cell] - now);
}

int32_t CellRouter::RouteOne(const Request& req, double now) {
  ++stats_.decisions;
  APT_CHECK_MSG(!loads_.empty(), "routing with no live cells");
  if (config_.num_cells == 1) {
    // Flat fleet: no ring, no summaries — the front tier is free.
    ++stats_.hash_routed;
    return 0;
  }

  // Least-loaded live cell: busy_until is time-independent, so the argmin
  // of outstanding(c) = max(0, busy_until[c] - now) is the ordered set's
  // first element — one read, not a scan.
  const auto [min_busy, min_cell] = *loads_.begin();
  const double min_out = std::max(0.0, min_busy - now);
  ++stats_.cell_probes;

  const uint64_t key = PrefixKey(req);
  if (key != 0) {
    const int32_t hashed = RingCell(key);
    ++stats_.cell_probes;  // the ring lookup + hashed-cell summary read
    if (live_[hashed] &&
        Outstanding(hashed, now) - min_out <= config_.cell_max_imbalance_s) {
      ++stats_.hash_routed;
      return hashed;
    }
  }
  ++stats_.fallback_routed;
  return min_cell;
}

void CellRouter::Commit(int32_t cell, double now, double service_seconds,
                        int32_t cell_width) {
  APT_CHECK(cell >= 0 && cell < config_.num_cells);
  APT_CHECK(service_seconds >= 0.0);
  const double per_instance =
      service_seconds / static_cast<double>(std::max(1, cell_width));
  const double start = std::max(now, busy_until_[cell]);
  if (live_[cell]) loads_.erase({busy_until_[cell], cell});
  busy_until_[cell] = start + per_instance;
  if (live_[cell]) loads_.emplace(busy_until_[cell], cell);
}

void CellRouter::SetLive(int32_t cell, bool live) {
  APT_CHECK(cell >= 0 && cell < config_.num_cells);
  if (static_cast<bool>(live_[cell]) == live) return;
  if (live) {
    live_[cell] = 1;
    loads_.emplace(busy_until_[cell], cell);
  } else {
    loads_.erase({busy_until_[cell], cell});
    APT_CHECK_MSG(!loads_.empty(), "retiring the last live cell");
    live_[cell] = 0;
  }
}

}  // namespace aptserve
