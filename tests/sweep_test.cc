// Sweep harness (bench/sweep/): matrix expansion, the --resume contract
// (skip on matching meta.json, rerun on any config change), run-directory
// layout, runs.csv row conservation, report rendering, a traced cell that
// drops events failing, and the committed fleet configs' gates (elastic
// savings, int8 migration bytes, a checked trace of a scaling, migrating
// fleet).
#include "bench/sweep/config.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench/sweep/collect.h"
#include "bench/sweep/fs_util.h"
#include "bench/sweep/report.h"
#include "bench/sweep/runner.h"
#include "common/json.h"
#include "obs/chrome_trace.h"
#include "obs/trace_recorder.h"

namespace aptserve {
namespace sweep {
namespace {

SweepConfig TinyConfig(const std::string& out_root) {
  SweepConfig config;
  config.name = "tiny";
  config.out_root = out_root;
  config.jobs = 2;
  config.base.num_requests = 8;
  config.base.n_instances = 2;
  config.matrix.schedulers = {"vLLM", "Apt"};
  config.matrix.router_policies = {"round-robin"};
  config.matrix.admission = {"none"};
  config.matrix.prefix_sharing = {false};
  config.matrix.seeds = {7};
  config.matrix.rates = {2.0};
  return config;
}

SweepOptions Quiet() {
  SweepOptions options;
  options.verbose = false;
  return options;
}

class SweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/aptserve_sweep_test_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    out_root_ = tmpl;
  }
  void TearDown() override {
    // Best-effort cleanup; test dirs are tiny.
    const std::string cmd = "rm -rf '" + out_root_ + "'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }
  std::string out_root_;
};

TEST(SweepConfigTest, ExpandMatrixIsFullCartesianProductInStableOrder) {
  SweepConfig config = TinyConfig("unused");
  config.matrix.schedulers = {"vLLM", "Apt"};
  config.matrix.router_policies = {"round-robin", "least-loaded"};
  config.matrix.admission = {"none", "reject"};
  config.matrix.prefix_sharing = {false, true};
  config.matrix.seeds = {1, 2, 3};
  config.matrix.rates = {0.5, 1.0};
  Ablation no_hedge;
  no_hedge.name = "baseline";
  no_hedge.overrides = json::JsonValue::Object();
  config.ablations.push_back(no_hedge);
  Ablation bigger;
  bigger.name = "more-instances";
  bigger.overrides = json::JsonValue::Object();
  bigger.overrides.Set("n_instances", json::JsonValue::Int(3));
  config.ablations.push_back(bigger);

  auto cells = ExpandMatrix(config);
  ASSERT_TRUE(cells.ok()) << cells.status().ToString();
  EXPECT_EQ(cells->size(), 2u * 2 * 2 * 2 * 2 * 3 * 2);
  // Deterministic order: seed is the innermost axis.
  EXPECT_EQ((*cells)[0].seed, 1u);
  EXPECT_EQ((*cells)[1].seed, 2u);
  EXPECT_EQ((*cells)[2].seed, 3u);
  // The ablation override resolved into the cell params.
  EXPECT_EQ(cells->front().params.n_instances, 2);
  EXPECT_EQ(cells->back().params.n_instances, 3);
  EXPECT_EQ(cells->back().ablation, "more-instances");
  // Run ids are unique and filesystem-safe.
  std::set<std::string> ids;
  for (const RunCell& cell : *cells) {
    EXPECT_TRUE(ids.insert(cell.run_id).second) << cell.run_id;
    EXPECT_EQ(cell.run_id.find('/'), std::string::npos);
    EXPECT_EQ(cell.run_id.find('*'), std::string::npos) << cell.run_id;
  }
}

TEST(SweepConfigTest, StrictParsingRejectsTyposAndBadNames) {
  const auto expect_bad = [](const std::string& text) {
    auto doc = json::ParseJson(text);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    EXPECT_FALSE(ParseSweepConfig(*doc).ok()) << text;
  };
  expect_bad(R"({"name":"x","out_root":"o","basee":{}})");
  expect_bad(R"({"name":"x","out_root":"o","base":{"num_request":4}})");
  expect_bad(R"({"name":"x","out_root":"o","matrix":{"schedulers":["nope"]}})");
  expect_bad(
      R"({"name":"x","out_root":"o","matrix":{"router_policies":["rr"]}})");
  expect_bad(R"({"name":"x","out_root":"o","matrix":{"rates":[]}})");
  expect_bad(R"({"name":"x","out_root":"o","base":{"workload":"zipf"}})");
  expect_bad(
      R"({"name":"x","out_root":"o","ablations":[{"name":"a","extra":1}]})");
  // A hierarchical fleet needs an instance per cell; the fleet would abort.
  expect_bad(
      R"({"name":"x","out_root":"o","base":{"n_instances":1,"num_cells":2}})");
  expect_bad(R"({"name":"x","out_root":"o","base":{"num_cells":0}})");

  auto good = json::ParseJson(
      R"({"name":"x","out_root":"o","matrix":{"schedulers":["Apt"]}})");
  ASSERT_TRUE(good.ok());
  auto config = ParseSweepConfig(*good);
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  // A default baseline ablation materializes when none are given.
  ASSERT_EQ(config->ablations.size(), 1u);
  EXPECT_EQ(config->ablations[0].name, "baseline");
}

TEST_F(SweepTest, RunsProduceMetaAndResultPerCell) {
  const SweepConfig config = TinyConfig(out_root_);
  auto run = RunSweep(config, Quiet());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->planned, 2);
  EXPECT_EQ(run->executed, 2);
  EXPECT_EQ(run->skipped, 0);
  EXPECT_EQ(run->failed, 0);

  auto cells = ExpandMatrix(config);
  ASSERT_TRUE(cells.ok());
  for (const RunCell& cell : *cells) {
    const std::string run_dir = run->exp_dir + "/runs/" + cell.run_id;
    auto meta = json::ParseJsonFile(run_dir + "/meta.json");
    ASSERT_TRUE(meta.ok()) << run_dir;
    // The recorded cell is exactly the expansion's resume key, and the
    // environment stamp is present.
    const json::JsonValue* recorded = meta->Find("cell");
    ASSERT_NE(recorded, nullptr);
    EXPECT_TRUE(*recorded == cell.Key());
    ASSERT_NE(meta->Find("environment"), nullptr);
    EXPECT_NE(meta->Find("environment")->GetString("runtime", ""), "");

    auto result = json::ParseJsonFile(run_dir + "/result.json");
    ASSERT_TRUE(result.ok()) << run_dir;
    EXPECT_EQ(result->GetInt("requests", -1), 8);
    EXPECT_GT(result->GetInt("pool_blocks", 0), 0);
    EXPECT_GT(result->GetInt("peak_blocks", 0), 0);

    // One requests.csv row per served request, after the header.
    std::ifstream requests(run_dir + "/requests.csv");
    ASSERT_TRUE(requests.good()) << run_dir;
    std::string line;
    int64_t lines = 0;
    while (std::getline(requests, line)) ++lines;
    EXPECT_EQ(lines, 1 + 8);
    EXPECT_GT(result->GetNumber("total_serving_time_s", 0.0), 0.0);
    ASSERT_NE(result->Find("ttft_cdf"), nullptr);
    EXPECT_FALSE(result->Find("ttft_cdf")->items().empty());
  }
}

// One instance serving 1,500 ShareGPT requests emits more than the sweep's
// 2^18 events per trace shard. The cell fails, naming the dropped count,
// instead of writing a truncated trace.json.
TEST_F(SweepTest, TracedCellFailsWhenItsTraceDropsEvents) {
  SweepConfig config = TinyConfig(out_root_);
  config.base.num_requests = 1500;
  config.base.n_instances = 1;
  config.matrix.schedulers = {"vLLM"};
  config.matrix.seeds = {55};
  config.matrix.rates = {6.0};
  SweepOptions traced = Quiet();
  traced.trace = true;
  auto run = RunSweep(config, traced);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->outcomes.size(), 1u);
  EXPECT_EQ(run->failed, 1);
  const CellOutcome& outcome = run->outcomes[0];
  EXPECT_EQ(outcome.state, CellOutcome::State::kFailed);
  EXPECT_NE(outcome.error.find("events dropped"), std::string::npos)
      << outcome.error;
  const std::string run_dir = run->exp_dir + "/runs/" + outcome.run_id;
  EXPECT_FALSE(PathExists(run_dir + "/trace.json"));
  EXPECT_FALSE(PathExists(run_dir + "/result.json"));
}

TEST_F(SweepTest, ResumeSkipsCellsWhoseMetaMatches) {
  const SweepConfig config = TinyConfig(out_root_);
  auto first = RunSweep(config, Quiet());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->executed, 2);

  SweepOptions resume = Quiet();
  resume.resume = true;
  auto second = RunSweep(config, resume);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->executed, 0);
  EXPECT_EQ(second->skipped, 2);
  EXPECT_EQ(second->failed, 0);
}

TEST_F(SweepTest, ResumeRerunsCellsWhenConfigChanges) {
  SweepConfig config = TinyConfig(out_root_);
  auto first = RunSweep(config, Quiet());
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  // Any resolved-params change invalidates every cell it touches — here
  // all of them (the trace gets longer).
  config.base.num_requests = 12;
  SweepOptions resume = Quiet();
  resume.resume = true;
  auto second = RunSweep(config, resume);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->executed, 2);
  EXPECT_EQ(second->skipped, 0);

  // And without resume, everything always reruns.
  auto third = RunSweep(config, Quiet());
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_EQ(third->executed, 2);
}

TEST_F(SweepTest, ResumeRerunsCellsMissingResults) {
  const SweepConfig config = TinyConfig(out_root_);
  auto first = RunSweep(config, Quiet());
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  // Simulate a cell that died after writing meta.json: stale, must rerun.
  const std::string victim =
      first->exp_dir + "/runs/" + first->outcomes[0].run_id + "/result.json";
  ASSERT_EQ(std::remove(victim.c_str()), 0);

  SweepOptions resume = Quiet();
  resume.resume = true;
  auto second = RunSweep(config, resume);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->executed, 1);
  EXPECT_EQ(second->skipped, 1);
}

TEST_F(SweepTest, RunsCsvConservesOneRowPerFinishedCell) {
  const SweepConfig config = TinyConfig(out_root_);
  auto run = RunSweep(config, Quiet());
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  auto runs = CollectAndWriteCsv(run->exp_dir);
  ASSERT_TRUE(runs.ok()) << runs.status().ToString();
  EXPECT_EQ(static_cast<int64_t>(runs->size()), run->executed);

  std::ifstream csv(run->exp_dir + "/aggregate/runs.csv");
  ASSERT_TRUE(csv.good());
  std::string line;
  ASSERT_TRUE(std::getline(csv, line));
  EXPECT_EQ(line, RunsCsvHeader());
  const size_t header_cols = 1 + std::count(line.begin(), line.end(), ',');
  int64_t rows = 0;
  while (std::getline(csv, line)) {
    if (line.empty()) continue;
    ++rows;
    EXPECT_EQ(1 + std::count(line.begin(), line.end(), ','), header_cols)
        << line;
  }
  EXPECT_EQ(rows, run->executed);
}

TEST_F(SweepTest, ReportIsSelfContainedHtmlWithSvgPlots) {
  const SweepConfig config = TinyConfig(out_root_);
  auto run = RunSweep(config, Quiet());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  auto runs = CollectRuns(run->exp_dir);
  ASSERT_TRUE(runs.ok()) << runs.status().ToString();

  const std::string html = RenderReportHtml(config.name, *runs);
  EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_NE(html.find("SLO attainment vs. request rate"), std::string::npos);
  EXPECT_NE(html.find("TTFT CDF"), std::string::npos);
  // Both schedulers appear as series.
  EXPECT_NE(html.find("Apt"), std::string::npos);
  EXPECT_NE(html.find("vLLM"), std::string::npos);
  // Self-contained: no external scripts or stylesheets.
  EXPECT_EQ(html.find("<script"), std::string::npos);
  EXPECT_EQ(html.find("<link"), std::string::npos);

  ASSERT_TRUE(WriteReport(config.name, *runs, run->exp_dir).ok());
  EXPECT_TRUE(PathExists(run->exp_dir + "/report/index.html"));
}

TEST_F(SweepTest, DryRunExecutesNothingAndTouchesNoDisk) {
  const SweepConfig config = TinyConfig(out_root_);
  SweepOptions dry = Quiet();
  dry.dry_run = true;
  auto run = RunSweep(config, dry);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->planned, 2);
  EXPECT_EQ(run->executed, 0);
  EXPECT_FALSE(PathExists(run->exp_dir + "/runs"));
}

TEST(HighestPassingRateTest, ShuffledRatesStillReturnMax) {
  // Regression: the old loop kept the *last* passing rate in iteration
  // order, so any unsorted rate list could under-report throughput. With
  // pass = rate <= 2.5, the highest passing rate is 2.0 regardless of
  // where it sits in the list.
  const auto passes = [](double rate) { return rate <= 2.5; };
  EXPECT_DOUBLE_EQ(HighestPassingRate({0.5, 1.0, 2.0, 4.0}, passes), 2.0);
  EXPECT_DOUBLE_EQ(HighestPassingRate({2.0, 4.0, 1.0, 0.5}, passes), 2.0);
  EXPECT_DOUBLE_EQ(HighestPassingRate({4.0, 0.5, 2.0, 1.0}, passes), 2.0);
  EXPECT_DOUBLE_EQ(HighestPassingRate({1.0, 2.0, 0.5}, passes), 2.0);
}

TEST(HighestPassingRateTest, NonMonotonePassSet) {
  // A rate can fail while a higher one passes (noisy attainment); the max
  // over the passing set is still what the readout reports.
  const auto passes = [](double rate) { return rate != 2.0; };
  EXPECT_DOUBLE_EQ(HighestPassingRate({1.0, 2.0, 3.0}, passes), 3.0);
  EXPECT_DOUBLE_EQ(HighestPassingRate({3.0, 2.0, 1.0}, passes), 3.0);
}

TEST(HighestPassingRateTest, NothingPassesIsZero) {
  EXPECT_DOUBLE_EQ(
      HighestPassingRate({1.0, 2.0}, [](double) { return false; }), 0.0);
  EXPECT_DOUBLE_EQ(HighestPassingRate({}, [](double) { return true; }), 0.0);
}

CollectedRun FakeRun(const std::string& scheduler, uint64_t seed, double rate,
                     double slo_attainment) {
  CollectedRun run;
  run.run_id = scheduler + "_s" + std::to_string(seed) + "_r" +
               std::to_string(rate);
  run.cell = json::JsonValue::Object();
  run.cell.Set("ablation", json::JsonValue::String("baseline"));
  run.cell.Set("scheduler", json::JsonValue::String(scheduler));
  run.cell.Set("router_policy", json::JsonValue::String("round-robin"));
  run.cell.Set("admission", json::JsonValue::String("none"));
  run.cell.Set("prefix_sharing", json::JsonValue::Bool(false));
  run.cell.Set("rate", json::JsonValue::Number(rate));
  run.cell.Set("seed", json::JsonValue::Int(static_cast<int64_t>(seed)));
  run.result = json::JsonValue::Object();
  run.result.Set("slo_attainment", json::JsonValue::Number(slo_attainment));
  return run;
}

TEST(SweepCollectTest, EffectiveCsvReducesEachRateSeriesAtBothThresholds) {
  const std::vector<CollectedRun> runs = {
      // vLLM, seed 7, rates out of order: >=0.9 up to 2, >=0.6 up to 3.
      FakeRun("vLLM", 7, 3.0, 0.7), FakeRun("vLLM", 7, 1.0, 1.0),
      FakeRun("vLLM", 7, 4.0, 0.3), FakeRun("vLLM", 7, 2.0, 0.95),
      // Apt, seed 1: a non-monotone series still reports the max passing
      // rate; 0.9 itself passes.
      FakeRun("Apt", 1, 1.0, 0.5), FakeRun("Apt", 1, 2.0, 0.9),
      // Apt, seed 2: nothing passes either threshold.
      FakeRun("Apt", 2, 1.0, 0.1)};
  std::ostringstream out;
  WriteEffectiveCsv(runs, &out);
  EXPECT_EQ(out.str(),
            "ablation,scheduler,router_policy,admission,prefix_sharing,seed,"
            "effective_rate_90,effective_rate_60\n"
            "baseline,Apt,round-robin,none,0,1,2,2\n"
            "baseline,Apt,round-robin,none,0,2,0,0\n"
            "baseline,vLLM,round-robin,none,0,7,2,3\n");
}

TEST(SweepSchedulerTest, MakeSchedulerByNameCoversBenchNamesAndFailsClosed) {
  const SloSpec slo{1.0, 1.0};
  for (const char* kind : {"vLLM", "Random", "Sarathi", "FastGen",
                           "FCFS-hybrid", "Apt", "Apt-KVonly", "Apt-S"}) {
    auto sched = MakeSchedulerByName(kind, slo);
    ASSERT_TRUE(sched.ok()) << kind;
    EXPECT_NE(sched->get(), nullptr) << kind;
  }
  EXPECT_FALSE(MakeSchedulerByName("Apt-Typo", slo).ok());
  // "Apt*" was Apt with violation_decay 0.4; that is a cell key now.
  EXPECT_TRUE(MakeSchedulerByName("Apt*", slo).status().IsInvalidArgument());
  auto doc = json::ParseJson(
      R"({"name":"x","out_root":"o","matrix":{"schedulers":["Apt*"]}})");
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(ParseSweepConfig(*doc).status().IsInvalidArgument());
}

TEST(SweepConfigTest, ServingKnobsParseAndRejectOutOfRangeValues) {
  const auto parse = [](const std::string& base) {
    auto doc = json::ParseJson(R"({"name":"x","out_root":"o","base":)" +
                               base + "}");
    EXPECT_TRUE(doc.ok()) << base;
    return ParseSweepConfig(*doc);
  };
  auto good = parse(
      R"({"preemption_mode":"swap","violation_decay":1,)"
      R"("prediction_quantile":0.9})");
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->base.preemption_mode, "swap");
  EXPECT_EQ(good->base.violation_decay, 1.0);
  EXPECT_EQ(good->base.prediction_quantile, 0.9);
  EXPECT_TRUE(parse(R"({"violation_decay":0,"prediction_quantile":0})").ok());

  auto fleet = parse(
      R"({"elastic":true,"n_gpus":2,"cache_encoding":"int8-transit",)"
      R"("workload":"diurnal"})");
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  EXPECT_TRUE(fleet->base.elastic);
  EXPECT_EQ(fleet->base.n_gpus, 2);
  EXPECT_EQ(fleet->base.cache_encoding, "int8-transit");
  EXPECT_EQ(fleet->base.workload, "diurnal");

  for (const char* bad :
       {R"({"preemption_mode":"evict"})", R"({"preemption_mode":1})",
        R"({"violation_decay":-0.1})", R"({"violation_decay":1.5})",
        R"({"prediction_quantile":-0.5})", R"({"prediction_quantile":1})",
        R"({"elastic":1})", R"({"elastic":"true"})",
        R"({"cache_encoding":"int8-hidden"})", R"({"cache_encoding":8})",
        R"({"n_gpus":-1})", R"({"n_gpus":1.5})",
        // An elastic fleet starts at one instance, which cannot populate
        // two cells; the fleet would abort on it.
        R"({"elastic":true,"n_instances":4,"num_cells":2})"}) {
    EXPECT_TRUE(parse(bad).status().IsInvalidArgument()) << bad;
  }
  // A resumed cell is skipped, so it would have no trace.
  SweepOptions traced_resume = Quiet();
  traced_resume.trace = true;
  traced_resume.resume = true;
  traced_resume.dry_run = true;
  EXPECT_TRUE(RunSweep(TinyConfig("unused"), traced_resume)
                  .status()
                  .IsInvalidArgument());
  // An ablation override is validated the same way.
  auto doc = json::ParseJson(
      R"({"name":"x","out_root":"o","ablations":[)"
      R"({"name":"a","overrides":{"violation_decay":2}}]})");
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(ParseSweepConfig(*doc).status().IsInvalidArgument());
}

TEST(SweepCollectTest, RunsCsvHeaderIsPinned) {
  // Committed bench/results/*/runs.csv files are compared byte for byte;
  // new columns go at the end.
  EXPECT_STREQ(
      RunsCsvHeader(),
      "run_id,ablation,scheduler,router_policy,admission,prefix_sharing,"
      "workload,profile,model,n_instances,num_cells,rate,seed,requests,"
      "slo_attainment,ttft_attainment,tbt_attainment,goodput_rps,"
      "mean_ttft_s,p99_ttft_s,total_serving_time_s,iterations,"
      "mean_batch_size,batch_limit_time_ratio,preemptions,conversions,"
      "rejected,deprioritized,prefill_tokens_computed,"
      "prefill_tokens_skipped,prefix_hits,prefix_matched_tokens,"
      "tokens_generated,route_probe_count,ttft_p50_s,max_ttft_s,"
      "p99_tbt_p50_s,p99_tbt_p99_s,ttft_violation_run_max,pool_blocks,"
      "peak_blocks,swap_ins,instance_seconds,peak_instances,cold_starts,"
      "scale_events,migrations,migrations_with_cache,"
      "migration_deduped_tokens,migration_copied_tokens,migration_bytes,"
      "migration_seconds");
}

struct ExecutedCell {
  RunCell cell;
  CellRun run;
};

// Every cell of a committed config, executed, by ablation name.
std::map<std::string, ExecutedCell> RunCommittedConfig(
    const std::string& name) {
  std::map<std::string, ExecutedCell> out;
  auto config = LoadSweepConfigFile(std::string(APTSERVE_SOURCE_DIR) +
                                    "/bench/experiments/" + name + ".json");
  EXPECT_TRUE(config.ok()) << config.status().ToString();
  if (!config.ok()) return out;
  auto cells = ExpandMatrix(*config);
  EXPECT_TRUE(cells.ok()) << cells.status().ToString();
  if (!cells.ok()) return out;
  for (const RunCell& cell : *cells) {
    auto run = ExecuteCell(cell);
    EXPECT_TRUE(run.ok()) << cell.run_id << ": " << run.status().ToString();
    if (run.ok()) out[cell.ablation] = {cell, std::move(*run)};
  }
  return out;
}

double BytesPerCopiedToken(const FleetMetrics& fm) {
  return fm.migration_bytes / fm.migration_copied_tokens;
}

TEST(SweepFleetConfigTest, ElasticFleetSavesInstanceSecondsAtEqualAttainment) {
  const auto runs = RunCommittedConfig("ext_fleet_elasticity");
  ASSERT_EQ(runs.count("static-peak"), 1u);
  ASSERT_EQ(runs.count("elastic"), 1u);
  const CellRun& fixed = runs.at("static-peak").run;
  const CellRun& elastic = runs.at("elastic").run;
  // >= 20% fewer instance-seconds than the fleet sized for the peak, at
  // equal or better attainment.
  EXPECT_LE(elastic.fleet_metrics.instance_seconds,
            0.8 * fixed.fleet_metrics.instance_seconds);
  EXPECT_GE(elastic.fleet.combined.slo_attainment + 1e-9,
            fixed.fleet.combined.slo_attainment);
  EXPECT_GT(elastic.fleet_metrics.cold_starts, 0);
  EXPECT_GT(elastic.fleet_metrics.migrations, 0);

  // Traced, the scaling, migrating fleet records a trace the check
  // accepts, with a matched migration flow and a scale event, and the
  // tracer changes no result.
  obs::TraceRecorder recorder(/*shard_capacity=*/size_t{1} << 18);
  auto traced = ExecuteCell(runs.at("elastic").cell, &recorder);
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  EXPECT_EQ(recorder.TotalDropped(), 0u);
  auto stats = obs::CheckTraceEvents(recorder.Flush());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats->matched_flows, 1);
  EXPECT_GE(stats->scale_events, 1);
  EXPECT_NE(traced->metrics_prom.find("aptserve_"), std::string::npos);
  EXPECT_TRUE(elastic.metrics_prom.empty());
  EXPECT_EQ(traced->fleet.combined.slo_attainment,
            elastic.fleet.combined.slo_attainment);
  EXPECT_EQ(traced->fleet.combined.total_serving_time,
            elastic.fleet.combined.total_serving_time);
  EXPECT_EQ(traced->fleet_metrics.instance_seconds,
            elastic.fleet_metrics.instance_seconds);
  EXPECT_EQ(traced->fleet_metrics.migrations,
            elastic.fleet_metrics.migrations);
}

TEST(SweepFleetConfigTest, Int8TransitHalvesMigrationBytesPerCopiedToken) {
  const auto runs = RunCommittedConfig("ext_quantized_migration");
  ASSERT_EQ(runs.count("fp32"), 1u);
  ASSERT_EQ(runs.count("int8-transit"), 1u);
  ASSERT_EQ(runs.count("all-int8"), 1u);
  const FleetMetrics& fp32 = runs.at("fp32").run.fleet_metrics;
  const FleetMetrics& transit = runs.at("int8-transit").run.fleet_metrics;
  ASSERT_GT(fp32.migration_copied_tokens, 0);
  ASSERT_GT(transit.migration_copied_tokens, 0);
  // The analytic cache baseline is fp16, so int8 codes halve the bytes.
  EXPECT_LE(1.8 * BytesPerCopiedToken(transit), BytesPerCopiedToken(fp32));
  const double fp32_attainment =
      runs.at("fp32").run.fleet.combined.slo_attainment;
  for (const auto& [encoding, executed] : runs) {
    EXPECT_GE(executed.run.fleet.combined.slo_attainment + 1e-9,
              fp32_attainment)
        << encoding;
  }
}

TEST(SweepConfigTest, CommittedExampleConfigsParseAndExpand) {
  const std::string root = APTSERVE_SOURCE_DIR;
  const std::string dir = root + "/bench/experiments";
  std::vector<std::string> names;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* entry = ::readdir(d)) {
      const std::string name = entry->d_name;
      if (name.size() > 5 && name.compare(name.size() - 5, 5, ".json") == 0) {
        names.push_back(name.substr(0, name.size() - 5));
      }
    }
    ::closedir(d);
  }
  EXPECT_GE(names.size(), 2u);
  for (const std::string& name : names) {
    auto config = LoadSweepConfigFile(dir + "/" + name + ".json");
    ASSERT_TRUE(config.ok()) << name << ": " << config.status().ToString();
    // The CI paper-sweep step finds each snapshot by the config's name.
    EXPECT_EQ(config->name, name);
    auto cells = ExpandMatrix(*config);
    ASSERT_TRUE(cells.ok()) << name << ": " << cells.status().ToString();
    EXPECT_FALSE(cells->empty()) << name;
  }
  // The smoke config is the CI two-cell matrix; pin its size so the CI
  // resume assertion ("executed 0 of 2") stays meaningful.
  auto smoke = LoadSweepConfigFile(root + "/bench/experiments/smoke.json");
  ASSERT_TRUE(smoke.ok());
  auto cells = ExpandMatrix(*smoke);
  ASSERT_TRUE(cells.ok());
  EXPECT_EQ(cells->size(), 2u);
}

}  // namespace
}  // namespace sweep
}  // namespace aptserve
