// Umbrella header: the full public API of the Apt-Serve reproduction.
// Include this to get the engine, cache, scheduling, workload and
// simulation layers in one line; fine-grained headers remain available for
// selective inclusion.
#pragma once

// Common utilities.
#include "common/logging.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/types.h"

// Parallel runtime layer (thread pool + config).
#include "runtime/runtime_config.h"
#include "runtime/thread_pool.h"

// Unified hybrid cache (paper §4.3).
#include "cache/block_pool.h"
#include "cache/cache_map.h"
#include "cache/cache_types.h"
#include "cache/hybrid_assigner.h"
#include "cache/swap_space.h"

// Prefix sharing (refcounted COW blocks + radix prefix index).
#include "prefix/prefix_index.h"

// Real mini-transformer inference engine (paper Figure 3 / §6.1).
#include "engine/block_storage.h"
#include "engine/inference_engine.h"
#include "engine/model_config.h"
#include "engine/rho_calibrator.h"
#include "engine/sampling.h"
#include "engine/transformer.h"

// Workloads (paper §6.2).
#include "workload/arrival.h"
#include "workload/length_sampler.h"
#include "workload/request.h"
#include "workload/shared_prefix.h"
#include "workload/token_ids.h"
#include "workload/trace.h"

// The unified serving loop and its execution backends.
#include "serve/cost_model_backend.h"
#include "serve/execution_backend.h"
#include "serve/inference_backend.h"
#include "serve/multi_instance.h"
#include "serve/serving_loop.h"

// Serving simulation substrate.
#include "sim/cluster_spec.h"
#include "sim/cost_model.h"
#include "sim/metrics.h"
#include "sim/model_spec.h"
#include "sim/report_writer.h"
#include "sim/scheduler.h"

// Baseline schedulers (paper §6.2).
#include "baselines/fcfs_scheduler.h"
#include "baselines/random_scheduler.h"
#include "baselines/sarathi_scheduler.h"

// The Apt-Serve contribution (paper §4-§5).
#include "core/apt_sarathi_scheduler.h"
#include "core/apt_scheduler.h"
#include "core/greedy_solver.h"
#include "core/length_predictor.h"
#include "core/quantification.h"
#include "core/runtime_tracker.h"
