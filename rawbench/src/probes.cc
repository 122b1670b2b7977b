// Layer probes of the traced run: public layer entry points called directly
// on the workload's own inputs, after the timed part.

#include <algorithm>
#include <cstdio>
#include <functional>

#include "columnar/hash_group_by.h"
#include "columnar/hash_join.h"
#include "columnar/in_memory_table.h"
#include "common/mmap_file.h"
#include "csv/csv_tokenizer.h"
#include "eventsim/ref_reader.h"
#include "workloads.h"

namespace rawbench {
namespace {

constexpr int kRepeats = 3;                     // medians of three
constexpr size_t kTokenizeBytes = 64ull << 20;  // CSV prefix tokenized

/// Median of kRepeats rates of `fn`, which returns the work it did.
double MedianRate(const std::function<double()>& fn) {
  std::vector<double> rates;
  for (int i = 0; i < kRepeats; ++i) {
    const Clock::time_point start = Clock::now();
    const double work = fn();
    const double secs = SecondsSince(start);
    rates.push_back(secs > 0 ? work / secs : 0);
  }
  return Percentile(rates, 0.5);
}

/// Bytes per second of CsvRowCursor over whole rows of the file's prefix.
double TokenizeGbps(const std::string& csv_path) {
  auto file = raw::MmapFile::Open(csv_path);
  if (!file.ok()) return 0;
  const char* begin = (*file)->data();
  const char* end = begin + std::min((*file)->size(), kTokenizeBytes);
  while (end > begin && end[-1] != '\n') --end;
  const double bytes = MedianRate([&] {
    raw::CsvRowCursor cursor(begin, end, raw::CsvOptions());
    std::vector<raw::FieldRef> fields;
    int64_t n = 0;
    while (!cursor.AtEnd() && cursor.NextRow(&fields).ok()) {
      n += static_cast<int64_t>(fields.size());
    }
    return n > 0 ? static_cast<double>(end - begin) : 0.0;
  });
  return bytes / 1e9;
}

/// Decoded bytes per second of every branch, through fresh RefReaders.
double DecodeMbps(const std::vector<std::string>& refs) {
  const double bytes = MedianRate([&] {
    double total = 0;
    for (const std::string& path : refs) {
      auto reader = raw::RefReader::Open(path);  // fresh, cold pool
      if (!reader.ok()) return 0.0;
      for (int b = 0; b < (*reader)->num_branches(); ++b) {
        const raw::RefBranch& branch = (*reader)->branch(b);
        const int64_t count = branch.num_values();
        std::vector<uint8_t> out(
            static_cast<size_t>(count * raw::FixedWidth(branch.type)));
        if (!(*reader)->ReadRange(b, 0, count, out.data()).ok()) return 0.0;
        total += static_cast<double>(out.size());
      }
    }
    return total;
  });
  return bytes / (1 << 20);
}

/// Probe rows per second: every event's run number against a hash table
/// of the good runs (the explore workload's join).
double JoinMrows(const HiggsOracle& oracle) {
  raw::Column runs(raw::DataType::kInt32);
  for (int32_t run : oracle.good_runs) runs.Append<int32_t>(run);
  const double rows = MedianRate([&] {
    raw::JoinHashTable table;
    if (!table.Build(runs, nullptr, 1).ok()) return 0.0;
    double probed = 0;
    int64_t matches = 0;
    for (const HiggsOracle::File& f : oracle.files) {
      for (int32_t run : f.run_number) {
        table.ForEachMatch(run, [&](int64_t) { ++matches; });
      }
      probed += static_cast<double>(f.run_number.size());
    }
    return matches > 0 ? probed : 0.0;
  });
  return rows / 1e6;
}

/// Input rows per second of muons grouped by eventID with COUNT and
/// SUM(pt) (the explore workload's GROUP BY).
double GroupByMrows(const HiggsOracle& oracle) {
  raw::Schema schema{{"eventID", raw::DataType::kInt64},
                     {"pt", raw::DataType::kFloat64}};
  raw::InMemoryTable table(schema);
  for (const HiggsOracle::File& f : oracle.files) {
    raw::ColumnBatch batch(schema);
    auto ids = std::make_shared<raw::Column>(raw::DataType::kInt64);
    auto pts = std::make_shared<raw::Column>(raw::DataType::kFloat64);
    for (size_t i = 0; i < f.particle[0][0].size(); ++i) {
      ids->Append<int64_t>(f.particle_event[0][i]);
      pts->Append<double>(f.particle[0][0][i]);
    }
    batch.AddColumn(ids);
    batch.AddColumn(pts);
    if (!table.AppendBatch(batch).ok()) return 0;
  }
  const double rows = MedianRate([&] {
    raw::HashGroupByOperator op(table.CreateScan(), {0},
                                {{raw::AggKind::kCount, -1, "n"},
                                 {raw::AggKind::kSum, 1, "s"}});
    if (!op.Open().ok()) return 0.0;
    while (true) {
      auto batch = op.Next();
      if (!batch.ok()) return 0.0;
      if (batch->empty()) break;
    }
    return static_cast<double>(table.num_rows());
  });
  return rows / 1e6;
}

}  // namespace

void RunProbes(const std::string& csv_path,
               const std::vector<std::string>& ref_paths,
               const std::string& good_runs_path, Report* report) {
  const double tokenize = csv_path.empty() ? 0 : TokenizeGbps(csv_path);
  const double decode = ref_paths.empty() ? 0 : DecodeMbps(ref_paths);
  double join = 0;
  double group = 0;
  if (!ref_paths.empty() && !good_runs_path.empty()) {
    auto oracle = HiggsOracle::Load(ref_paths, good_runs_path);
    if (oracle.ok()) {
      join = JoinMrows(*oracle);
      group = GroupByMrows(*oracle);
    }
  }
  auto samples = [](double v) { return v > 0 ? kRepeats : 0; };
  report->SetLayer("csv.tokenize_gbps", tokenize, "GB/s", samples(tokenize));
  report->SetLayer("eventsim.decode_mbps", decode, "MB/s", samples(decode));
  report->SetLayer("columnar.join_mrows_s", join, "Mrows/s", samples(join));
  report->SetLayer("columnar.groupby_mrows_s", group, "Mrows/s",
                   samples(group));
}

}  // namespace rawbench
