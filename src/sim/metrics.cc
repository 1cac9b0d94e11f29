#include "sim/metrics.h"

#include <algorithm>

#include "common/logging.h"

namespace aptserve {

double RequestRecord::P99Tbt() const {
  std::vector<double> scratch;
  return P99Tbt(&scratch);
}

double RequestRecord::P99Tbt(std::vector<double>* scratch) const {
  scratch->assign(tbt_samples.begin(), tbt_samples.end());
  return SelectQuantile(scratch, 0.99);
}

RequestRecord* MetricsCollector::RegisterRequest(const Request& spec) {
  RequestRecord& rec = records_[spec.id];
  rec = RequestRecord{};
  rec.spec = spec;
  // Room for every gap the request can produce: token stamps never
  // reallocate.
  if (spec.output_len > 1) rec.tbt_samples.reserve(spec.output_len - 1);
  return &rec;
}

RequestRecord* MetricsCollector::Find(RequestId id) {
  auto it = records_.find(id);
  return it == records_.end() ? nullptr : &it->second;
}

void MetricsCollector::OnIteration(double seconds, int32_t batch_size,
                                   bool at_batch_limit) {
  total_time_ += seconds;
  if (at_batch_limit) batch_limit_time_ += seconds;
  ++iterations_;
  batch_size_weighted_ += static_cast<double>(batch_size);
}

void WallClockMetrics::OnArrival(double arrival) {
  if (first_arrival_ < 0 || arrival < first_arrival_) first_arrival_ = arrival;
}

void WallClockMetrics::OnToken(double arrival, double last_token,
                               double now) {
  if (last_token < 0) {
    ttft_.Add(now - arrival);
  } else {
    tbt_.Add(now - last_token);
  }
  ++tokens_;
}

void WallClockMetrics::OnFinish(double arrival, double now) {
  e2e_.Add(now - arrival);
  ++finished_requests_;
  if (now > last_finish_) last_finish_ = now;
}

void WallClockMetrics::Merge(const WallClockMetrics& other) {
  ttft_.Merge(other.ttft_);
  tbt_.Merge(other.tbt_);
  e2e_.Merge(other.e2e_);
  finished_requests_ += other.finished_requests_;
  tokens_ += other.tokens_;
  if (other.first_arrival_ >= 0 &&
      (first_arrival_ < 0 || other.first_arrival_ < first_arrival_)) {
    first_arrival_ = other.first_arrival_;
  }
  if (other.last_finish_ > last_finish_) last_finish_ = other.last_finish_;
}

WallLatencyReport WallClockMetrics::Report() const {
  WallLatencyReport r;
  r.requests = finished_requests_;
  r.tokens = tokens_;
  r.ttft = ttft_;
  r.tbt = tbt_;
  r.e2e = e2e_;
  if (first_arrival_ >= 0 && last_finish_ > first_arrival_) {
    r.duration_s = last_finish_ - first_arrival_;
    r.throughput_tok_s = static_cast<double>(tokens_) / r.duration_s;
    r.throughput_req_s = static_cast<double>(finished_requests_) / r.duration_s;
  }
  return r;
}

RequestRecord MetricsCollector::ExtractRecord(RequestId id) {
  auto it = records_.find(id);
  APT_CHECK_MSG(it != records_.end(), "extracting an unregistered request");
  RequestRecord record = std::move(it->second);
  records_.erase(it);
  return record;
}

RequestRecord* MetricsCollector::AdoptRecord(RequestRecord record) {
  auto [it, inserted] = records_.emplace(record.spec.id, std::move(record));
  APT_CHECK_MSG(inserted, "adopting a duplicate request");
  return &it->second;
}

SloReport MetricsCollector::Report(const SloSpec& slo) const {
  SloReport r;
  if (records_.empty()) return r;
  int64_t meets_both = 0, meets_ttft = 0, meets_tbt = 0;
  int64_t eligible = 0;
  SampleSet ttft_mean_acc;
  r.ttfts.Reserve(records_.size());
  ttft_mean_acc.Reserve(records_.size());
  std::vector<double> scratch;  // one P99 selection buffer for every record
  for (const auto& [id, rec] : records_) {
    (void)id;
    // Latency samples cover every served request; attainment counts only
    // eligible (non-best-effort) ones.
    if (rec.ttft >= 0) {
      r.ttfts.Add(rec.ttft);
      ttft_mean_acc.Add(rec.ttft);
    }
    // Once: it selects over every gap.
    const double p99_tbt = rec.P99Tbt(&scratch);
    if (!rec.tbt_samples.empty()) r.p99_tbts.Add(p99_tbt);
    if (rec.spec.best_effort) {
      ++r.best_effort_requests;
      continue;
    }
    ++eligible;
    const bool ttft_ok = rec.MeetsTtft(slo);
    const bool tbt_ok = rec.TbtWithin(p99_tbt, slo);
    if (ttft_ok && tbt_ok) ++meets_both;
    if (ttft_ok) ++meets_ttft;
    if (tbt_ok) ++meets_tbt;
  }
  r.eligible_requests = eligible;
  r.slo_met_requests = meets_both;
  const double n = static_cast<double>(eligible);
  if (eligible > 0) {
    r.slo_attainment = meets_both / n;
    r.ttft_attainment = meets_ttft / n;
    r.tbt_attainment = meets_tbt / n;
  }
  r.total_serving_time = total_time_;
  r.batch_limit_time_ratio =
      total_time_ > 0 ? batch_limit_time_ / total_time_ : 0.0;
  r.iterations = iterations_;
  r.mean_batch_size =
      iterations_ > 0 ? batch_size_weighted_ / iterations_ : 0.0;
  r.preemptions = preemptions_;
  r.conversions = conversions_;
  r.mean_ttft = ttft_mean_acc.Mean();
  r.p99_ttft = ttft_mean_acc.P99();
  r.jain_fairness_ttft = JainFairnessIndex(r.ttfts.samples());
  r.goodput_rps = total_time_ > 0 ? meets_both / total_time_ : 0.0;
  return r;
}

void FoldRejectedIntoReport(int64_t rejected, SloReport* report) {
  APT_CHECK(report != nullptr);
  if (rejected <= 0) return;
  // Attainment is met / (eligible + previously folded rejects); re-base the
  // denominator to include the new rejects. All-rejected runs keep zero.
  const double prev =
      static_cast<double>(report->eligible_requests +
                          report->rejected_requests);
  report->rejected_requests += rejected;
  const double denom = prev + rejected;
  const double scale = denom > 0 ? prev / denom : 0.0;
  report->slo_attainment *= scale;
  report->ttft_attainment *= scale;
  report->tbt_attainment *= scale;
}

double JainFairnessIndex(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0, sum_sq = 0.0;
  for (double v : values) {
    sum += v;
    sum_sq += v * v;
  }
  if (sum_sq == 0.0) return 1.0;  // all-zero: perfectly equal
  return (sum * sum) / (static_cast<double>(values.size()) * sum_sq);
}

}  // namespace aptserve
