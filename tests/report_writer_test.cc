#include "sim/report_writer.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "baselines/fcfs_scheduler.h"
#include "serve/cost_model_backend.h"
#include "serve/serving_loop.h"
#include "workload/trace.h"

namespace aptserve {
namespace {

TEST(ReportWriterTest, RequestRecordsCsvShape) {
  std::unordered_map<RequestId, RequestRecord> records;
  RequestRecord a;
  a.spec = Request{2, 10, 5, 1.0};
  a.ttft = 0.5;
  a.tbt_samples = {0.1, 0.2};
  a.finish_time = 2.0;
  RequestRecord b;
  b.spec = Request{1, 20, 3, 0.5};
  b.ttft = 2.0;  // violates a 1s TTFT SLO
  b.finish_time = 3.0;
  records[2] = a;
  records[1] = b;

  std::ostringstream out;
  WriteRequestRecordsCsv(records, SloSpec{1.0, 1.0}, &out);
  const std::string csv = out.str();
  // Header plus two rows, sorted by id.
  EXPECT_NE(csv.find("id,arrival"), std::string::npos);
  const size_t row1 = csv.find("\n1,");
  const size_t row2 = csv.find("\n2,");
  ASSERT_NE(row1, std::string::npos);
  ASSERT_NE(row2, std::string::npos);
  EXPECT_LT(row1, row2);
  // SLO flags present: request 1 misses TTFT (",0,"), request 2 meets.
  EXPECT_NE(csv.find(",0,1\n"), std::string::npos);
  EXPECT_NE(csv.find(",1,1\n"), std::string::npos);
}

TEST(ReportWriterTest, SweepCsv) {
  std::ostringstream out;
  WriteSweepCsv({{"vLLM", 2.0, 0.9, 0.92, 1.0, 3.5, 4},
                 {"Apt", 2.0, 0.99, 0.99, 1.0, 4.25, 0}},
                &out);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("system,rate,slo_attainment,ttft_attainment,"
                     "tbt_attainment,goodput_rps,rejected\n"),
            std::string::npos);
  EXPECT_NE(csv.find("vLLM,2,0.9,0.92,1,3.5,4\n"), std::string::npos);
  EXPECT_NE(csv.find("Apt,2,0.99,0.99,1,4.25,0\n"), std::string::npos);
}

TEST(ReportWriterTest, RequestRecordsCsvCarriesDeadlinesAndBestEffort) {
  std::unordered_map<RequestId, RequestRecord> records;
  RequestRecord own_slo;
  own_slo.spec = Request{7, 10, 5, 1.0};
  own_slo.spec.slo_ttft_s = 0.25;   // own deadline, tighter than run SLO
  own_slo.ttft = 0.5;               // misses its own bound, meets the run's
  own_slo.finish_time = 2.0;
  RequestRecord best_effort;
  best_effort.spec = Request{8, 10, 5, 1.5};
  best_effort.spec.best_effort = true;
  best_effort.ttft = 0.1;
  best_effort.finish_time = 2.5;
  records[7] = own_slo;
  records[8] = best_effort;

  std::ostringstream out;
  WriteRequestRecordsCsv(records, SloSpec{1.0, 1.0}, &out);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("ttft_bound,tbt_bound,best_effort,meets_ttft"),
            std::string::npos);
  // Request 7: bound 0.25 (own), best_effort 0, meets_ttft 0.
  EXPECT_NE(csv.find(",0.25,1,0,0,1\n"), std::string::npos);
  // Request 8: inherited bound 1, best_effort 1, meets_ttft 1.
  EXPECT_NE(csv.find(",1,1,1,1,1\n"), std::string::npos);
}

TEST(ReportWriterTest, FleetCsvShape) {
  SloReport a, b;
  a.slo_attainment = 1.0;
  a.goodput_rps = 2.5;
  a.mean_ttft = 0.125;
  a.preemptions = 3;
  b.slo_attainment = 0.5;
  b.goodput_rps = 1.25;
  b.mean_ttft = 0.5;
  std::ostringstream out;
  WriteFleetCsv({a, b}, {40, 60}, &out);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("instance,requests,slo_attainment,goodput_rps,"
                     "mean_ttft,preemptions\n"),
            std::string::npos);
  EXPECT_NE(csv.find("0,40,1,2.5,0.125,3\n"), std::string::npos);
  EXPECT_NE(csv.find("1,60,0.5,1.25,0.5,0\n"), std::string::npos);
}

TEST(ReportWriterTest, CdfCsvMonotone) {
  SampleSet s;
  for (int i = 100; i >= 1; --i) s.Add(i);
  std::ostringstream out;
  WriteCdfCsv(s, &out, 10);
  std::istringstream in(out.str());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "value,cum_fraction");
  double prev_v = -1, prev_f = -1;
  while (std::getline(in, line)) {
    const size_t comma = line.find(',');
    const double v = std::stod(line.substr(0, comma));
    const double f = std::stod(line.substr(comma + 1));
    EXPECT_GE(v, prev_v);
    EXPECT_GE(f, prev_f);
    prev_v = v;
    prev_f = f;
  }
  EXPECT_DOUBLE_EQ(prev_f, 1.0);
}

TEST(ReportWriterTest, WriteFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/apt_report_test.csv";
  Status st = WriteFile(path, [](std::ostream* out) { *out << "x,y\n1,2\n"; });
  ASSERT_TRUE(st.ok()) << st.ToString();
  std::ifstream f(path);
  std::string content((std::istreambuf_iterator<char>(f)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "x,y\n1,2\n");
}

TEST(ReportWriterTest, WriteFileBadPath) {
  Status st = WriteFile("/nonexistent_dir_xyz/file.csv",
                        [](std::ostream*) {});
  EXPECT_TRUE(st.IsInvalidArgument());
}

TEST(ReportWriterTest, WallLatencyCsvShape) {
  // The async bench writes one row per serving mode; pin the header
  // columns and the row count.
  WallClockMetrics m;
  m.OnArrival(1, 0.0);
  m.OnToken(1, 0.2);  // TTFT 0.2
  m.OnToken(1, 0.3);  // TBT 0.1
  m.OnFinish(1, 0.3);
  m.OnArrival(2, 0.1);
  m.OnToken(2, 0.5);
  m.OnFinish(2, 0.5);
  const WallLatencyReport report = m.Report();
  ASSERT_EQ(report.requests, 2);
  ASSERT_EQ(report.tokens, 3);

  std::ostringstream out;
  WriteWallLatencyCsv({{"async", report}, {"virtual", report}}, &out);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("mode,requests,tokens,duration_s"), std::string::npos);
  EXPECT_NE(csv.find("ttft_p50"), std::string::npos);
  EXPECT_NE(csv.find("e2e_p99"), std::string::npos);
  EXPECT_NE(csv.find("\nasync,2,3,"), std::string::npos);
  EXPECT_NE(csv.find("\nvirtual,2,3,"), std::string::npos);
  int lines = 0;
  for (char c : csv) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 3);  // header + 2 rows
}

TEST(ReportWriterTest, SimulatorRecordsExportEndToEnd) {
  TraceConfig tc;
  tc.profile = DatasetProfile::HumanEval();
  tc.num_requests = 50;
  tc.rate_per_sec = 3.0;
  tc.seed = 15;
  auto trace = BuildTrace(tc);
  ASSERT_TRUE(trace.ok());
  const SloSpec slo{1.0, 1.0};
  FcfsScheduler sched;
  const ModelSpec model = ModelSpec::Opt13B();
  CostModel cm(model, ClusterSpec::ForModel(model));
  auto backend = CostModelBackend::Create(cm, {});
  ASSERT_TRUE(backend.ok());
  auto result =
      ServingLoop(backend->get(), ServingLoopConfig{}).Run(*trace, &sched, slo);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->records.size(), 50u);
  std::ostringstream out;
  WriteRequestRecordsCsv(result->records, slo, &out);
  // 1 header + 50 rows.
  int lines = 0;
  for (char c : out.str()) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 51);
}

}  // namespace
}  // namespace aptserve
