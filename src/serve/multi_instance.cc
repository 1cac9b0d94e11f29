#include "serve/multi_instance.h"

#include <utility>

#include "serve/async_serving.h"
#include "serve/fleet_controller.h"

namespace aptserve {

MultiInstanceRunner::MultiInstanceRunner(const Router& router,
                                         const ServingLoopConfig& loop,
                                         const RuntimeConfig& runtime,
                                         const CellRouterConfig& cells)
    : router_(router), loop_(loop), runtime_(runtime), cells_(cells) {}

FleetController MultiInstanceRunner::Controller() const {
  // The static fleet is the FleetController's degenerate case: no scaling
  // rules, no migration. In virtual time that is one infinite window that
  // routes everything and runs every instance to completion, bit-identical
  // to the historical shard-and-run runner.
  FleetConfig config;
  config.router = router_.config();
  config.loop = loop_;
  config.runtime = runtime_;
  config.cells = cells_;
  return FleetController(config, router_);
}

StatusOr<MultiInstanceResult> MultiInstanceRunner::Run(
    const std::vector<Request>& trace, const SchedulerFactory& make_scheduler,
    const BackendFactory& make_backend, const SloSpec& slo) {
  APT_ASSIGN_OR_RETURN(
      FleetResult result,
      Controller().Run(trace, make_scheduler, make_backend, slo));
  return std::move(result.serve);
}

StatusOr<AsyncServingResult> MultiInstanceRunner::RunAsync(
    const std::vector<Request>& trace, const SchedulerFactory& make_scheduler,
    const BackendFactory& make_backend, const SloSpec& slo,
    const AsyncServingConfig& async) {
  return Controller().RunAsync(trace, make_scheduler, make_backend, slo,
                               async);
}

}  // namespace aptserve
