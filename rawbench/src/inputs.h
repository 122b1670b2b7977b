// Seeded benchmark inputs, keyed by their own parameters, and the oracle that
// checks every answer independently of the engine's file readers.
#ifndef RAWBENCH_INPUTS_H_
#define RAWBENCH_INPUTS_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "columnar/batch.h"
#include "common/statusor.h"
#include "eventsim/event_generator.h"
#include "workload/table_spec.h"

namespace rawbench {

// Input sizes (also written into every report).
inline constexpr int64_t kD30Rows = 1000000;        // ~297 MB of CSV
inline constexpr int64_t kD120Rows = 300000;        // ~216 MB of binary
inline constexpr int64_t kHiggsEvents = 50000;      // per REF file
inline constexpr int kHiggsFiles = 4;
inline constexpr int64_t kRefreshRows = 200000;     // ~48 MB of CSV

raw::TableSpec D30Spec(uint64_t seed, int64_t rows);
raw::TableSpec D120Spec(uint64_t seed, int64_t rows);
raw::EventGenOptions HiggsOptions(uint64_t seed, int64_t events, int file);

/// Generated files under one data directory. Every file name carries the
/// seed and the sizes it was generated with, so a file made for other
/// parameters is never reused. Generation writes a temp file and renames it.
class InputStore {
 public:
  InputStore(std::string dir, uint64_t seed)
      : dir_(std::move(dir)), seed_(seed) {}

  const std::string& dir() const { return dir_; }

  raw::StatusOr<std::string> D30Csv(int64_t rows);
  raw::StatusOr<std::string> D120Binary(int64_t rows);
  raw::StatusOr<std::vector<std::string>> HiggsRefs(int64_t events, int files);
  raw::StatusOr<std::string> GoodRuns(int64_t events, int files);

  /// Deletes the files of all but the `keep` most recently used other seeds,
  /// bounding the data directory's size when many seeds are run.
  void EvictOtherSeeds(int keep) const;

 private:
  raw::StatusOr<std::string> Ensure(
      const std::string& name,
      const std::function<raw::Status(const std::string&)>& make) const;

  std::string dir_;
  uint64_t seed_;
};

// ---------------------------------------------------------------------------
// Oracle.

enum class Agg { kCount, kSum, kMin, kMax, kAvg };

/// SELECT <aggs> FROM table WHERE lo <= filter < hi (either bound optional).
struct AggQuery {
  struct Item {
    Agg agg = Agg::kCount;
    int column = -1;  // -1 for COUNT(*)
  };
  std::string table;
  int filter = 0;
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  std::vector<Item> items;

  std::string Sql(const std::vector<std::string>& column_names) const;
};

/// Expected values of an AggQuery over the first `rows` rows of columns
/// supplied by `column(i)` (a direct scan, used where queries are few).
std::vector<double> EvaluateByScan(
    const AggQuery& q, int64_t rows,
    const std::function<const std::vector<double>&(int)>& column);

/// Columns of a generated table computed from TableSpec::Value, a pure
/// function of (seed, row, column); independent of the files and readers.
class SpecColumns {
 public:
  SpecColumns(raw::TableSpec spec, int64_t rows);
  const std::vector<double>& Column(int c);

 private:
  raw::TableSpec spec_;
  int64_t rows_;
  std::map<int, std::vector<double>> cols_;
};

/// O(log n) oracle for `filter < L` aggregates over one (filter, value)
/// column pair: the pairs sorted by filter value plus prefix count, sum,
/// min and max. Serves the many Zipf-drawn literals of `serve`.
class SortedPrefix {
 public:
  SortedPrefix(const std::vector<double>& filter,
               const std::vector<double>& value);
  /// Expected value of `agg` over rows with filter < `hi`.
  double Eval(Agg agg, double hi) const;

 private:
  std::vector<double> keys_;
  std::vector<long double> sum_;  // sum_[k] = sum of the first k values
  std::vector<double> min_;       // min_[k] = min of the first k values
  std::vector<double> max_;
};

/// Per-group particle columns (pt, eta) and per-event run numbers of REF
/// files, read object-at-a-time with RefReader::GetEntry, the access path of
/// the hand-written Higgs analysis. Joins use the good-runs list as loaded
/// by that analysis (LoadGoodRuns).
struct HiggsOracle {
  struct File {
    std::vector<double> particle[3][2];  // [group][0=pt, 1=eta]
    std::vector<int64_t> particle_event[3];  // eventID of each particle
    std::vector<int32_t> run_number;
  };
  std::vector<File> files;
  std::set<int32_t> good_runs;

  static raw::StatusOr<HiggsOracle> Load(const std::vector<std::string>& refs,
                                         const std::string& good_runs_csv);
  /// Events of `file` in a good run with run number < `hi`.
  int64_t JoinCount(int file, int32_t hi) const;
  /// GROUP BY eventID over `group` particles with pt >= `lo`:
  /// {number of groups, number of particles}.
  std::vector<double> GroupCount(int file, int group, double lo) const;
};

/// First row of an aggregate result as doubles (one per output column).
raw::StatusOr<std::vector<double>> FirstRow(const raw::ColumnBatch& batch);

/// Answer check: exact for counts, min and max; relative 1e-9 for sums and
/// averages, whose float rounding depends on summation order.
bool Matches(const std::vector<double>& got, const std::vector<double>& want,
             const std::vector<Agg>& aggs);

}  // namespace rawbench

#endif  // RAWBENCH_INPUTS_H_
