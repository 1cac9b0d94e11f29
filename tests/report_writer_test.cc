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
