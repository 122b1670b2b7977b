#include "inputs.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/file_lock.h"
#include "common/hash.h"
#include "common/macros.h"
#include "common/mmap_file.h"
#include "common/temp_dir.h"
#include "eventsim/ref_reader.h"
#include "workload/data_gen.h"
#include "workload/higgs.h"

namespace rawbench {

using raw::Status;
using raw::StatusOr;

namespace {

// Distinct streams per input kind, so D30 and D120 of one seed differ.
uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return raw::MixHash64(seed * 0x9e3779b97f4a7c15ull + stream);
}

std::string SeedPrefix(uint64_t seed) {
  return "s" + std::to_string(seed) + "_";
}

}  // namespace

raw::TableSpec D30Spec(uint64_t seed, int64_t rows) {
  return raw::TableSpec::UniformInt32("d30", 30, rows, StreamSeed(seed, 30));
}

raw::TableSpec D120Spec(uint64_t seed, int64_t rows) {
  return raw::TableSpec::Mixed120("d120", rows, StreamSeed(seed, 120));
}

raw::EventGenOptions HiggsOptions(uint64_t seed, int64_t events, int file) {
  raw::EventGenOptions options;
  options.seed = StreamSeed(seed, 1000 + static_cast<uint64_t>(file));
  options.num_events = events;
  return options;
}

StatusOr<std::string> InputStore::Ensure(
    const std::string& name,
    const std::function<Status(const std::string&)>& make) const {
  RAW_RETURN_NOT_OK(raw::MakeDirs(dir_));
  const std::string path = dir_ + "/" + SeedPrefix(seed_) + name;
  RAW_ASSIGN_OR_RETURN(raw::FileLock lock,
                       raw::FileLock::Acquire(path + ".lock"));
  if (!raw::FileExists(path)) {
    const std::string tmp = path + ".tmp";
    RAW_RETURN_NOT_OK(make(tmp));
    // Flush now, so writeback of the new file does not overlap the timed
    // part of the run.
    const int fd = ::open(tmp.c_str(), O_RDONLY);
    if (fd < 0 || ::fsync(fd) != 0) {
      if (fd >= 0) ::close(fd);
      return Status::IOError("fsync failed for " + tmp);
    }
    ::close(fd);
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
      return Status::IOError("rename failed for " + path);
    }
  }
  ::utimensat(AT_FDCWD, path.c_str(), nullptr, 0);  // marks the seed as used
  return path;
}

StatusOr<std::string> InputStore::D30Csv(int64_t rows) {
  return Ensure("d30_" + std::to_string(rows) + ".csv",
                [&](const std::string& p) {
                  return raw::WriteCsvFile(D30Spec(seed_, rows), p);
                });
}

StatusOr<std::string> InputStore::D120Binary(int64_t rows) {
  return Ensure("d120_" + std::to_string(rows) + ".bin",
                [&](const std::string& p) {
                  return raw::WriteBinaryFile(D120Spec(seed_, rows), p);
                });
}

StatusOr<std::vector<std::string>> InputStore::HiggsRefs(int64_t events,
                                                         int files) {
  std::vector<std::string> paths;
  for (int f = 0; f < files; ++f) {
    RAW_ASSIGN_OR_RETURN(
        std::string path,
        Ensure("higgs_" + std::to_string(events) + "x" + std::to_string(files) +
                   "_" + std::to_string(f) + ".ref",
               [&](const std::string& p) {
                 return raw::WriteRefFile(p, HiggsOptions(seed_, events, f));
               }));
    paths.push_back(std::move(path));
  }
  return paths;
}

StatusOr<std::string> InputStore::GoodRuns(int64_t events, int files) {
  // Every file's generator shares the run-number range, so the list of
  // file 0's options covers all of them.
  return Ensure("goodruns_" + std::to_string(events) + "x" +
                    std::to_string(files) + ".csv",
                [&](const std::string& p) {
                  return raw::WriteGoodRunsCsv(
                      p, HiggsOptions(seed_, events, 0));
                });
}

void InputStore::EvictOtherSeeds(int keep) const {
  DIR* d = ::opendir(dir_.c_str());
  if (d == nullptr) return;
  // seed prefix -> (latest mtime, files)
  std::map<std::string, std::pair<int64_t, std::vector<std::string>>> seeds;
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    const size_t us = name.find('_');
    if (name.size() < 2 || name[0] != 's' || us == std::string::npos) continue;
    const std::string prefix = name.substr(0, us + 1);
    if (prefix == SeedPrefix(seed_)) continue;
    struct stat st {};
    const std::string path = dir_ + "/" + name;
    if (::stat(path.c_str(), &st) != 0) continue;
    auto& entry = seeds[prefix];
    entry.first = std::max<int64_t>(entry.first, st.st_mtime);
    entry.second.push_back(path);
  }
  ::closedir(d);
  std::vector<std::pair<int64_t, std::string>> by_age;
  for (const auto& [prefix, entry] : seeds) {
    by_age.emplace_back(entry.first, prefix);
  }
  std::sort(by_age.rbegin(), by_age.rend());  // newest first
  for (size_t i = static_cast<size_t>(std::max(keep, 0)); i < by_age.size();
       ++i) {
    for (const std::string& path : seeds[by_age[i].second].second) {
      ::unlink(path.c_str());
    }
  }
}

// ---------------------------------------------------------------------------

namespace {

const char* AggName(Agg agg) {
  switch (agg) {
    case Agg::kCount:
      return "COUNT";
    case Agg::kSum:
      return "SUM";
    case Agg::kMin:
      return "MIN";
    case Agg::kMax:
      return "MAX";
    case Agg::kAvg:
      return "AVG";
  }
  return "?";
}

std::string Literal(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  std::string s = buf;
  if (s.find_first_of(".e") == std::string::npos && std::floor(v) != v) {
    s += ".0";
  }
  return s;
}

}  // namespace

std::string AggQuery::Sql(const std::vector<std::string>& names) const {
  std::string sql = "SELECT ";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) sql += ", ";
    sql += AggName(items[i].agg);
    sql += "(";
    sql += items[i].column < 0
               ? "*"
               : names[static_cast<size_t>(items[i].column)];
    sql += ")";
  }
  sql += " FROM " + table;
  const std::string& f = names[static_cast<size_t>(filter)];
  const bool has_lo = std::isfinite(lo);
  const bool has_hi = std::isfinite(hi);
  if (has_lo) sql += " WHERE " + f + " >= " + Literal(lo);
  if (has_hi) {
    sql += std::string(has_lo ? " AND " : " WHERE ") + f + " < " + Literal(hi);
  }
  return sql;
}

std::vector<double> EvaluateByScan(
    const AggQuery& q, int64_t rows,
    const std::function<const std::vector<double>&(int)>& column) {
  const std::vector<double>& f = column(q.filter);
  std::vector<const std::vector<double>*> cols;
  for (const AggQuery::Item& item : q.items) {
    cols.push_back(item.column < 0 ? nullptr : &column(item.column));
  }
  int64_t count = 0;
  std::vector<long double> sum(q.items.size(), 0);
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> mn(q.items.size(), inf);
  std::vector<double> mx(q.items.size(), -inf);
  for (int64_t r = 0; r < rows; ++r) {
    const double v = f[static_cast<size_t>(r)];
    if (!(v >= q.lo && v < q.hi)) continue;
    ++count;
    for (size_t i = 0; i < cols.size(); ++i) {
      if (cols[i] == nullptr) continue;
      const double x = (*cols[i])[static_cast<size_t>(r)];
      sum[i] += x;
      mn[i] = std::min(mn[i], x);
      mx[i] = std::max(mx[i], x);
    }
  }
  std::vector<double> out;
  for (size_t i = 0; i < q.items.size(); ++i) {
    switch (q.items[i].agg) {
      case Agg::kCount:
        out.push_back(static_cast<double>(count));
        break;
      case Agg::kSum:
        out.push_back(static_cast<double>(sum[i]));
        break;
      case Agg::kMin:
        out.push_back(mn[i]);
        break;
      case Agg::kMax:
        out.push_back(mx[i]);
        break;
      case Agg::kAvg:
        out.push_back(count > 0 ? static_cast<double>(sum[i] / count) : 0);
        break;
    }
  }
  return out;
}

SpecColumns::SpecColumns(raw::TableSpec spec, int64_t rows)
    : spec_(std::move(spec)), rows_(rows) {}

const std::vector<double>& SpecColumns::Column(int c) {
  auto it = cols_.find(c);
  if (it != cols_.end()) return it->second;
  raw::TableSpec spec = spec_;
  spec.rows = rows_;
  raw::TableDataSource source(spec);
  std::vector<double> values(static_cast<size_t>(rows_));
  for (int64_t r = 0; r < rows_; ++r) {
    values[static_cast<size_t>(r)] = *source.Value(r, c).AsDouble();
  }
  return cols_.emplace(c, std::move(values)).first->second;
}

SortedPrefix::SortedPrefix(const std::vector<double>& filter,
                           const std::vector<double>& value) {
  std::vector<size_t> order(filter.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return filter[a] < filter[b]; });
  keys_.reserve(order.size());
  sum_.assign(1, 0);
  min_.assign(1, std::numeric_limits<double>::infinity());
  max_.assign(1, -std::numeric_limits<double>::infinity());
  for (size_t i : order) {
    keys_.push_back(filter[i]);
    sum_.push_back(sum_.back() + value[i]);
    min_.push_back(std::min(min_.back(), value[i]));
    max_.push_back(std::max(max_.back(), value[i]));
  }
}

double SortedPrefix::Eval(Agg agg, double hi) const {
  const auto k = static_cast<size_t>(
      std::lower_bound(keys_.begin(), keys_.end(), hi) - keys_.begin());
  switch (agg) {
    case Agg::kCount:
      return static_cast<double>(k);
    case Agg::kSum:
      return static_cast<double>(sum_[k]);
    case Agg::kMin:
      return min_[k];
    case Agg::kMax:
      return max_[k];
    case Agg::kAvg:
      return k > 0 ? static_cast<double>(sum_[k] / static_cast<long double>(k))
                   : 0;
  }
  return 0;
}

StatusOr<HiggsOracle> HiggsOracle::Load(const std::vector<std::string>& refs,
                                        const std::string& good_runs_csv) {
  HiggsOracle oracle;
  RAW_ASSIGN_OR_RETURN(oracle.good_runs, raw::LoadGoodRuns(good_runs_csv));
  for (const std::string& path : refs) {
    RAW_ASSIGN_OR_RETURN(std::unique_ptr<raw::RefReader> reader,
                         raw::RefReader::Open(path));
    File file;
    raw::Event event;
    for (int64_t e = 0; e < reader->num_events(); ++e) {
      RAW_RETURN_NOT_OK(reader->GetEntry(e, &event));
      file.run_number.push_back(event.run_number);
      for (int g = 0; g < 3; ++g) {
        for (const raw::Particle& p : event.particles(g)) {
          file.particle[g][0].push_back(p.pt);
          file.particle_event[g].push_back(event.event_id);
          file.particle[g][1].push_back(p.eta);
        }
      }
    }
    oracle.files.push_back(std::move(file));
  }
  return oracle;
}

int64_t HiggsOracle::JoinCount(int file, int32_t hi) const {
  int64_t n = 0;
  for (int32_t run : files[static_cast<size_t>(file)].run_number) {
    if (run < hi && good_runs.count(run) > 0) ++n;
  }
  return n;
}

std::vector<double> HiggsOracle::GroupCount(int file, int group,
                                            double lo) const {
  const File& f = files[static_cast<size_t>(file)];
  std::set<int64_t> events;
  int64_t n = 0;
  for (size_t i = 0; i < f.particle[group][0].size(); ++i) {
    if (f.particle[group][0][i] >= lo) {
      events.insert(f.particle_event[group][i]);
      ++n;
    }
  }
  return {static_cast<double>(events.size()), static_cast<double>(n)};
}

StatusOr<std::vector<double>> FirstRow(const raw::ColumnBatch& batch) {
  if (batch.num_rows() < 1) return Status::Internal("empty aggregate result");
  std::vector<double> row;
  for (int c = 0; c < batch.num_columns(); ++c) {
    RAW_ASSIGN_OR_RETURN(double v, batch.column(c)->GetDatum(0).AsDouble());
    row.push_back(v);
  }
  return row;
}

bool Matches(const std::vector<double>& got, const std::vector<double>& want,
             const std::vector<Agg>& aggs) {
  if (got.size() != want.size() || got.size() != aggs.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    const bool rounded = aggs[i] == Agg::kSum || aggs[i] == Agg::kAvg;
    const double tol = rounded ? 1e-9 * std::max(1.0, std::fabs(want[i])) : 0;
    if (!(std::fabs(got[i] - want[i]) <= tol)) return false;
  }
  return true;
}

}  // namespace rawbench
