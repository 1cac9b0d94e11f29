// TraceRecorder: concurrent emit/flush churn (the suite runs under TSan in
// CI), virtual-timestamp determinism of instrumented fleet runs across
// runtime thread counts, the typed-event check (flow arrows, scale events,
// the rejections), and the Chrome trace_event exporter as a faithful
// serialisation (its output parsed back and matched event by event).
#include "obs/trace_recorder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/fcfs_scheduler.h"
#include "common/json.h"
#include "obs/chrome_trace.h"
#include "obs/metrics_registry.h"
#include "serve/fleet_controller.h"
#include "serve/inference_backend.h"
#include "sim/cost_model.h"
#include "workload/request.h"

namespace aptserve::obs {
namespace {

TEST(TraceRecorderTest, EmitFlushRoundTrip) {
  TraceRecorder rec;
  TraceSink sink = rec.MakeSink(0);
  ASSERT_TRUE(static_cast<bool>(sink));
  sink.Instant(TraceOp::kArrival, 1.0, /*id=*/7);
  sink.Span(TraceOp::kIteration, 2.0, 0.5, /*id=*/-1, 3.0, 1.0);
  const uint64_t flow = sink.FlowBegin(TraceOp::kMigrationExport, 3.0, 7, 4.0);
  EXPECT_GT(flow, 0u);
  sink.FlowEnd(TraceOp::kMigrationImport, 3.5, 7, flow, 1.0, 16.0);

  const auto events = rec.Flush();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].op, TraceOp::kArrival);
  EXPECT_EQ(events[0].kind, EventKind::kInstant);
  EXPECT_EQ(events[0].id, 7);
  EXPECT_EQ(events[1].kind, EventKind::kSpan);
  EXPECT_DOUBLE_EQ(events[1].dur, 0.5);
  EXPECT_EQ(events[2].kind, EventKind::kFlowBegin);
  EXPECT_EQ(events[3].kind, EventKind::kFlowEnd);
  EXPECT_EQ(events[2].flow, flow);
  EXPECT_EQ(events[3].flow, flow);
  EXPECT_EQ(rec.TotalEmitted(), 4u);
  EXPECT_EQ(rec.TotalDropped(), 0u);
  // A second flush is empty: the first one drained the shard.
  EXPECT_TRUE(rec.Flush().empty());
}

TEST(TraceRecorderTest, DetachedSinkIsInert) {
  TraceSink off;
  EXPECT_FALSE(static_cast<bool>(off));
  off.Instant(TraceOp::kArrival, 1.0, 1);
  off.Span(TraceOp::kIteration, 1.0, 1.0, 1);
  EXPECT_EQ(off.FlowBegin(TraceOp::kMigrationExport, 1.0, 1), 0u);
  off.FlowEnd(TraceOp::kMigrationImport, 1.0, 1, 0);
}

TEST(TraceRecorderTest, RingOverwritesOldestAndCountsDrops) {
  TraceRecorder rec(/*shard_capacity=*/8);
  TraceSink sink = rec.MakeSink(0);
  for (int i = 0; i < 20; ++i) {
    sink.Instant(TraceOp::kDecodeStep, static_cast<double>(i), i);
  }
  const auto events = rec.Flush();
  ASSERT_EQ(events.size(), 8u);
  // The retained window is the most recent events, in emission order.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].id, static_cast<int64_t>(12 + i));
  }
  EXPECT_EQ(rec.TotalEmitted(), 20u);
  EXPECT_EQ(rec.TotalDropped(), 12u);

  // A drained ring fills from its first slot again: a partial window and
  // then a second wrap both come back oldest first.
  for (int i = 20; i < 23; ++i) {
    sink.Instant(TraceOp::kDecodeStep, static_cast<double>(i), i);
  }
  const auto partial = rec.Flush();
  ASSERT_EQ(partial.size(), 3u);
  for (size_t i = 0; i < partial.size(); ++i) {
    EXPECT_EQ(partial[i].id, static_cast<int64_t>(20 + i));
  }
  for (int i = 23; i < 34; ++i) {
    sink.Instant(TraceOp::kDecodeStep, static_cast<double>(i), i);
  }
  const auto wrapped = rec.Flush();
  ASSERT_EQ(wrapped.size(), 8u);
  for (size_t i = 0; i < wrapped.size(); ++i) {
    EXPECT_EQ(wrapped[i].id, static_cast<int64_t>(26 + i));
  }
  EXPECT_EQ(rec.TotalDropped(), 15u);
}

TEST(TraceRecorderTest, ConcurrentEmitFlushChurn) {
  TraceRecorder rec(/*shard_capacity=*/64);
  TraceSink shared = rec.MakeSink(100);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      TraceSink own = rec.MakeSink(t);
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kPerThread; ++i) {
        own.Instant(TraceOp::kDecodeStep, static_cast<double>(i), i);
        shared.Instant(TraceOp::kRouteDecision, static_cast<double>(i), i,
                       static_cast<double>(t));
        if (i % 16 == 0) {
          const uint64_t flow =
              own.FlowBegin(TraceOp::kMigrationExport, i, i);
          shared.FlowEnd(TraceOp::kMigrationImport, i + 0.5, i, flow);
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  // Flush concurrently with the emitters: collected + still-buffered +
  // ring-dropped must conserve every emitted event.
  uint64_t collected = 0;
  for (int round = 0; round < 50; ++round) {
    collected += rec.Flush().size();
  }
  for (auto& th : threads) th.join();
  collected += rec.Flush().size();
  EXPECT_EQ(collected + rec.TotalDropped(), rec.TotalEmitted());
  EXPECT_GT(collected, 0u);
}

// ---- Instrumented fleet runs ----------------------------------------------

std::vector<Request> BurstTrace(int32_t n) {
  std::vector<Request> trace;
  for (int32_t i = 0; i < n; ++i) {
    Request r;
    r.id = i;
    r.prompt_len = 64 + (i % 5) * 4;
    r.output_len = 6 + (i % 3) * 2;
    r.arrival = 0.01 * i;
    trace.push_back(r);
  }
  return trace;
}

BackendFactory EngineBackends() {
  return [](int32_t instance) -> StatusOr<std::unique_ptr<ExecutionBackend>> {
    InferenceBackendOptions options;
    options.virtual_timing = true;
    return std::unique_ptr<ExecutionBackend>(
        std::make_unique<InferenceBackend>(
            ModelConfig::Tiny(), /*weight_seed=*/42, /*num_blocks=*/128,
            /*block_size=*/8, SamplingParams{}, options));
  };
}

FleetConfig ElasticConfig(int32_t fleet_threads) {
  FleetConfig cfg;
  cfg.router.n_instances = 2;
  cfg.router.policy = RoutePolicy::kLeastOutstandingWork;
  cfg.min_instances = 2;
  cfg.max_instances = 3;
  cfg.tick_interval_s = 0.25;
  cfg.instance_warmup_s = 0.1;
  cfg.scale_up_cooldown_s = 0.25;
  cfg.scale_down_cooldown_s = 1.0;
  cfg.scaling = {ScalingRule::QueueDepth(1.0, 0.1)};
  cfg.enable_migration = true;
  cfg.migration_imbalance_threshold = 2.0;
  cfg.runtime.num_threads = fleet_threads;
  return cfg;
}

std::vector<TraceEvent> RunInstrumentedFleet(int32_t fleet_threads) {
  const ModelSpec m = ModelSpec::Opt13B();
  const CostModel cm(m, ClusterSpec::ForModel(m));
  TraceRecorder rec;
  MetricsRegistry reg;
  FleetConfig cfg = ElasticConfig(fleet_threads);
  cfg.trace = &rec;
  cfg.metrics = &reg;
  FleetController controller(cfg, &cm);
  auto result = controller.Run(
      BurstTrace(32), [] { return std::make_unique<FcfsScheduler>(); },
      EngineBackends(), SloSpec{5.0, 5.0});
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return rec.Flush();
}

TEST(TraceRecorderTest, VirtualTimestampsDeterministicAcrossThreadCounts) {
  const std::vector<TraceEvent> serial = RunInstrumentedFleet(1);
  const std::vector<TraceEvent> threaded = RunInstrumentedFleet(4);
  ASSERT_FALSE(serial.empty());
  ASSERT_EQ(serial.size(), threaded.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    const TraceEvent& a = serial[i];
    const TraceEvent& b = threaded[i];
    EXPECT_EQ(static_cast<int>(a.op), static_cast<int>(b.op)) << i;
    EXPECT_EQ(static_cast<int>(a.kind), static_cast<int>(b.kind)) << i;
    EXPECT_EQ(a.track, b.track) << i;
    EXPECT_EQ(a.id, b.id) << i;
    EXPECT_EQ(a.flow, b.flow) << i;
    EXPECT_DOUBLE_EQ(a.ts, b.ts) << i;
    EXPECT_DOUBLE_EQ(a.dur, b.dur) << i;
    EXPECT_DOUBLE_EQ(a.a0, b.a0) << i;
    EXPECT_DOUBLE_EQ(a.a1, b.a1) << i;
    EXPECT_DOUBLE_EQ(a.a2, b.a2) << i;
  }
}

std::string ExportToString(std::vector<TraceEvent> events) {
  std::ostringstream out;
  ExportChromeTrace(std::move(events), out);
  return out.str();
}

TEST(TraceRecorderTest, FleetTraceChecksAndExportsDeterministically) {
  const std::vector<TraceEvent> events = RunInstrumentedFleet(1);
  ASSERT_FALSE(events.empty());
  auto stats = CheckTraceEvents(events);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->events, 0);
  // Router + controller + at least the two initial instances.
  EXPECT_GE(stats->tracks, 4);
  EXPECT_GE(stats->scale_events, 1);
  EXPECT_EQ(stats->flow_begins, stats->flow_ends);
  EXPECT_EQ(stats->matched_flows, stats->flow_begins);
  // Export is a pure function of the event sequence.
  EXPECT_EQ(ExportToString(events), ExportToString(events));
}

// ---- Chrome exporter and the typed check ----------------------------------

std::vector<TraceEvent> HandBuiltTrace() {
  TraceRecorder rec;
  TraceSink router = rec.MakeSink(kRouterTrack);
  TraceSink a = rec.MakeSink(0);
  TraceSink b = rec.MakeSink(1);
  router.Instant(TraceOp::kRouteDecision, 0.0, 1, 0.0, 0.25, 3.0);
  a.Instant(TraceOp::kArrival, 0.1, 1);
  a.Span(TraceOp::kPrefill, 0.2, 0.3, 1, 12.0);
  const uint64_t flow = a.FlowBegin(TraceOp::kMigrationExport, 0.6, 1, 2.0);
  b.FlowEnd(TraceOp::kMigrationImport, 0.7, 1, flow, 1.0, 0.0);
  b.Span(TraceOp::kDecodeStep, 0.8, 0.0, 1, 1.0);
  return rec.Flush();
}

TEST(TraceRecorderTest, CheckCountsHandBuiltTraceAsExported) {
  auto stats = CheckTraceEvents(HandBuiltTrace());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->events, 8);  // each flow event renders twice
  EXPECT_EQ(stats->tracks, 3);
  EXPECT_EQ(stats->flow_begins, 1);
  EXPECT_EQ(stats->flow_ends, 1);
  EXPECT_EQ(stats->matched_flows, 1);
  EXPECT_EQ(stats->scale_events, 0);
}

// The exported text parses, and its non-metadata events are the typed
// events in export order: per track by timestamp, a flow event as an
// instant followed by its "s"/"f" half.
TEST(TraceRecorderTest, ExportIsAFaithfulSerialisation) {
  for (std::vector<TraceEvent> events :
       {HandBuiltTrace(), RunInstrumentedFleet(1)}) {
    ASSERT_TRUE(CheckTraceEvents(events).ok());
    auto root = json::ParseJson(ExportToString(events));
    ASSERT_TRUE(root.ok()) << root.status().ToString();
    const json::JsonValue* rendered = root->Find("traceEvents");
    ASSERT_NE(rendered, nullptr);

    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                       if (a.track != b.track) return a.track < b.track;
                       return a.ts < b.ts;
                     });
    struct Expected {
      std::string ph;
      const TraceEvent* event;
    };
    std::vector<Expected> expected;
    for (const TraceEvent& e : events) {
      switch (e.kind) {
        case EventKind::kSpan:
          expected.push_back({"X", &e});
          break;
        case EventKind::kInstant:
          expected.push_back({"i", &e});
          break;
        case EventKind::kFlowBegin:
          expected.push_back({"i", &e});
          expected.push_back({"s", &e});
          break;
        case EventKind::kFlowEnd:
          expected.push_back({"i", &e});
          expected.push_back({"f", &e});
          break;
      }
    }

    size_t next = 0;
    std::map<int64_t, double> last_ts;  // tid -> ts
    for (const json::JsonValue& r : rendered->items()) {
      ASSERT_TRUE(r.is_object());
      if (r.Find("ph")->string_value() == "M") continue;
      ASSERT_LT(next, expected.size());
      const Expected& want = expected[next++];
      const TraceEvent& e = *want.event;
      // The exporter's track -> tid map: instances keep their ids, the
      // reserved negative tracks sit above 10000.
      const int64_t tid = e.track >= 0 ? e.track : 10000 - int64_t{e.track};
      const double ts = r.Find("ts")->number_value();
      EXPECT_EQ(r.Find("ph")->string_value(), want.ph) << next;
      EXPECT_EQ(r.Find("name")->string_value(), TraceOpName(e.op)) << next;
      EXPECT_EQ(r.Find("tid")->number_value(), static_cast<double>(tid))
          << next;
      EXPECT_NEAR(ts, e.ts * 1e6, 1e-3) << next;
      auto [it, inserted] = last_ts.emplace(tid, ts);
      if (!inserted) {
        EXPECT_GE(ts, it->second) << "tid " << tid;
        it->second = ts;
      }
    }
    EXPECT_EQ(next, expected.size());
  }
}

TEST(TraceRecorderTest, CheckRejectsUnmatchedFlow) {
  TraceRecorder rec;
  TraceSink sink = rec.MakeSink(0);
  (void)sink.FlowBegin(TraceOp::kMigrationExport, 1.0, 1);
  EXPECT_FALSE(CheckTraceEvents(rec.Flush()).ok());
}

TEST(TraceRecorderTest, CheckRejectsNanStamp) {
  // "%.3f" would print nan, which is not JSON, and a NaN breaks the
  // exporter's timestamp order.
  TraceRecorder rec;
  TraceSink sink = rec.MakeSink(0);
  sink.Instant(TraceOp::kArrival, 1.0, 1);
  sink.Instant(TraceOp::kArrival, std::nan(""), 2);
  auto stats = CheckTraceEvents(rec.Flush());
  ASSERT_FALSE(stats.ok());
  EXPECT_NE(stats.status().message().find("trace event 1"), std::string::npos)
      << stats.status().ToString();
}

}  // namespace
}  // namespace aptserve::obs
