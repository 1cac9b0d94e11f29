// MultiInstanceRunner composes with any ExecutionBackend: the same
// routing policies shard the analytic CostModelBackend and the real-engine
// InferenceBackend — which before the serve/ refactor was impossible
// (sharding was wired to the simulator only).
#include <gtest/gtest.h>

#include <memory>

#include "baselines/fcfs_scheduler.h"
#include "common/rng.h"
#include "serve/inference_backend.h"
#include "serve/multi_instance.h"

namespace aptserve {
namespace {

TEST(MultiBackendFleetTest, InferenceBackendFleetServesAllRequests) {
  // Shard a burst of tiny requests across two *real-engine* instances.
  std::vector<Request> trace;
  Rng rng(5);
  for (int32_t i = 0; i < 12; ++i) {
    Request r;
    r.id = i;
    r.prompt_len = static_cast<int32_t>(rng.UniformInt(4, 16));
    r.output_len = static_cast<int32_t>(rng.UniformInt(2, 8));
    r.arrival = 0.01 * i;
    trace.push_back(r);
  }

  RouterConfig rc;
  rc.n_instances = 2;
  rc.policy = RoutePolicy::kRoundRobin;
  ServingLoopConfig loop;
  loop.max_batch_size = INT32_MAX;
  MultiInstanceRunner runner(Router(rc), loop);
  auto result = runner.Run(
      trace, [] { return std::make_unique<FcfsScheduler>(); },
      [](int32_t instance) -> StatusOr<std::unique_ptr<ExecutionBackend>> {
        InferenceBackendOptions options;
        options.virtual_timing = true;
        return std::unique_ptr<ExecutionBackend>(
            std::make_unique<InferenceBackend>(
                ModelConfig::Tiny(), /*weight_seed=*/42 + instance,
                /*num_blocks=*/96, /*block_size=*/8, SamplingParams{},
                options));
      },
      SloSpec{5.0, 5.0});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->requests_per_instance[0], 6);
  EXPECT_EQ(result->requests_per_instance[1], 6);
  // Every request produced a first token on some instance.
  EXPECT_EQ(result->combined.ttfts.count(), 12u);
}

}  // namespace
}  // namespace aptserve
