// Deterministic prompt-token synthesis for traces that only carry lengths.
//
// Prefix matching needs real token content. Traces from the length
// samplers (ShareGPT/LMSYS profiles) describe only prompt_len; this
// synthesizer expands such a request into concrete ids as a pure function
// of (seed, request id) — order-independent, so every backend, instance
// and replay derives the same content for the same request without
// coordinating. Random content shares essentially no prefixes, which is
// exactly right: sharing must be earned by the workload (see
// workload/shared_prefix.h), never conjured by the synthesizer.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "workload/request.h"

namespace aptserve {

/// Token ids for request `id`: `prompt_len` draws from [0, vocab_size),
/// seeded by (seed, id) only.
std::vector<int32_t> DeterministicPromptTokens(RequestId id, uint64_t seed,
                                               int32_t prompt_len,
                                               int32_t vocab_size);

/// The prompt token ids a backend registers for `r`: the trace's own ids
/// (InvalidArgument unless there are exactly prompt_len of them), otherwise
/// DeterministicPromptTokens(r.id, seed, r.prompt_len, vocab_size).
StatusOr<std::vector<int32_t>> PromptTokenIds(const Request& r, uint64_t seed,
                                              int32_t vocab_size);

/// Fills token_ids for every request of `trace` that lacks them.
void EnsureTokenIds(std::vector<Request>* trace, uint64_t seed,
                    int32_t vocab_size);

}  // namespace aptserve
