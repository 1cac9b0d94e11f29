#include "sim/report_writer.h"

#include <algorithm>
#include <fstream>
#include <vector>

namespace aptserve {

void WriteRequestRecordsCsv(
    const std::unordered_map<RequestId, RequestRecord>& records,
    const SloSpec& slo, std::ostream* out) {
  out->precision(12);
  *out << "id,arrival,prompt_len,output_len,ttft,p99_tbt,finish,"
          "ttft_bound,tbt_bound,best_effort,meets_ttft,meets_tbt\n";
  std::vector<const RequestRecord*> rows;
  rows.reserve(records.size());
  for (const auto& [id, rec] : records) rows.push_back(&rec);
  std::sort(rows.begin(), rows.end(),
            [](const RequestRecord* a, const RequestRecord* b) {
              return a->spec.id < b->spec.id;
            });
  for (const RequestRecord* rec : rows) {
    *out << rec->spec.id << ',' << rec->spec.arrival << ','
         << rec->spec.prompt_len << ',' << rec->spec.output_len << ','
         << rec->ttft << ',' << rec->P99Tbt() << ',' << rec->finish_time
         << ',' << rec->TtftBound(slo) << ',' << rec->TbtBound(slo) << ','
         << (rec->spec.best_effort ? 1 : 0) << ','
         << (rec->MeetsTtft(slo) ? 1 : 0) << ','
         << (rec->MeetsTbt(slo) ? 1 : 0) << '\n';
  }
}

Status WriteFile(const std::string& path,
                 const std::function<void(std::ostream*)>& content_writer) {
  std::ofstream f(path);
  if (!f.is_open()) {
    return Status::InvalidArgument("cannot open " + path + " for writing");
  }
  content_writer(&f);
  if (!f.good()) return Status::Internal("write to " + path + " failed");
  return Status::OK();
}

}  // namespace aptserve
