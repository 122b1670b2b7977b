// The three rawbench workloads and what they share.
#ifndef RAWBENCH_WORKLOADS_H_
#define RAWBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/raw_engine.h"
#include "harness.h"
#include "inputs.h"

namespace rawbench {

/// Everything a workload needs from the command line and the harness.
struct RunContext {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int scan_threads = 4;
  InputStore* inputs = nullptr;
  Report* report = nullptr;
  Watchdog* watchdog = nullptr;
};

// Per-operation limit of the watchdog. The slowest healthy operation (a cold
// JIT query over the 297 MB CSV) takes well under a second.
inline constexpr double kOperationLimitSeconds = 20;

// Set-ups per run beyond those the sessions need: set-up takes milliseconds,
// so setup_s is the median of many.
inline constexpr int kSetups = 20;

/// One query through the session API, timed per layer call:
/// Session::Parse, Session::ExecuteStream (plan + compile + open) and each
/// Cursor::Next. With tracing on, each call is a span under a root span.
struct QueryRun {
  bool ok = false;
  std::string error;
  std::vector<raw::ColumnBatch> batches;  // the result, checked after timing
  double total_s = 0;
  double parse_s = 0;
  double stream_s = 0;
  double next_s = 0;
  double plan_s = 0;     // Cursor::plan_seconds - compile_seconds
  double compile_s = 0;  // Cursor::compile_seconds
};
QueryRun RunQuery(raw::Session* session, const std::string& sql,
                  Tracer* tracer, int64_t query_id);

/// A query with its oracle answer. An aggregate's answer is its one row; a
/// grouped query's answer is {number of groups, sum of output column 1}.
struct Check {
  std::string source;  // the raw file the query reads (first-touch tracking)
  std::string sql;
  std::vector<Agg> aggs;
  std::vector<double> want;
  bool grouped = false;
};

/// Records whether `run` answered `check` correctly; returns true if so.
bool Verify(const Check& check, const QueryRun& run, Report* report);

/// Layer counters of one engine over one measured interval.
struct EngineDelta {
  raw::EngineStats before;
  raw::EngineStats after;
};

/// What a run of fresh-engine sessions (explore, refresh) measured.
struct SessionPass {
  std::vector<double> setup_s;
  std::vector<double> first_query_s;
  std::vector<double> session_s;
  std::vector<double> post_change_ms;
  std::vector<double> latency_ms;
  std::vector<double> cold_scan_mbps;  // first query's file MB / execute s
  std::vector<QueryRun> runs;
  std::vector<EngineDelta> deltas;  // one per session
  double query_seconds = 0;
  double cpu_s = 0;
  int64_t queries = 0;
};

/// Engine options of explore and refresh: library defaults, with the scan
/// thread count stated.
raw::RawEngineOptions SessionEngineOptions(const RunContext& ctx);

/// End-to-end metrics of an untraced session pass; the tail is the
/// `tail_pct` percentile. slo_qps is the closed-loop session's query rate.
void ReportSessionPass(const SessionPass& pass, double tail_pct,
                       Report* report);

/// Per-layer metrics of a traced session pass, with the tracing overhead
/// against the untraced pass.
void ReportTracedPass(const SessionPass& untraced, const SessionPass& traced,
                      const Tracer& tracer, Report* report);

/// Sets the engine/jit/eventsim/autotune per-layer metrics from the
/// per-interval deltas (medians across intervals).
void ReportEngineLayers(const std::vector<EngineDelta>& deltas, Report* report);

/// Sets the per-query engine timings (parse, plan, execute) as medians.
void ReportQueryLayers(const std::vector<QueryRun>& runs, Report* report);

/// Sets the trace self times and the attribution check.
void ReportTrace(const Tracer& tracer, int64_t queries, Report* report);

int RunExplore(RunContext& ctx);
int RunServe(RunContext& ctx);
int RunRefresh(RunContext& ctx);

/// Layer probes of the traced run, on the workload's own inputs: CSV
/// tokenizer throughput, RefReader decode throughput, hash join and group-by
/// rows per second. Paths that are empty are skipped (metric 0).
void RunProbes(const std::string& csv_path,
               const std::vector<std::string>& ref_paths,
               const std::string& good_runs_path, Report* report);

}  // namespace rawbench

#endif  // RAWBENCH_WORKLOADS_H_
