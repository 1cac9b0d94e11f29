#include "workload/token_ids.h"

#include <string>

#include "common/logging.h"
#include "common/rng.h"

namespace aptserve {

std::vector<int32_t> DeterministicPromptTokens(RequestId id, uint64_t seed,
                                               int32_t prompt_len,
                                               int32_t vocab_size) {
  APT_CHECK(prompt_len >= 0 && vocab_size > 0);
  // Mix the id into the seed (splitmix-style multiplier) so consecutive
  // request ids get uncorrelated streams.
  Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(id + 1)));
  std::vector<int32_t> tokens(prompt_len);
  for (int32_t& t : tokens) {
    t = static_cast<int32_t>(rng.UniformInt(0, vocab_size - 1));
  }
  return tokens;
}

StatusOr<std::vector<int32_t>> PromptTokenIds(const Request& r, uint64_t seed,
                                              int32_t vocab_size) {
  if (!r.has_token_ids()) {
    return DeterministicPromptTokens(r.id, seed, r.prompt_len, vocab_size);
  }
  if (static_cast<int32_t>(r.token_ids.size()) != r.prompt_len) {
    return Status::InvalidArgument("request " + std::to_string(r.id) +
                                   " token_ids size does not match prompt_len");
  }
  return r.token_ids;
}

void EnsureTokenIds(std::vector<Request>* trace, uint64_t seed,
                    int32_t vocab_size) {
  APT_CHECK(trace != nullptr);
  for (Request& r : *trace) {
    if (!r.has_token_ids()) {
      r.token_ids =
          DeterministicPromptTokens(r.id, seed, r.prompt_len, vocab_size);
    }
  }
}

}  // namespace aptserve
