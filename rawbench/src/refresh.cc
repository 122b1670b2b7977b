// refresh: one session with library defaults over a D30-shaped CSV. Between
// rounds the benchmark's own thread appends a fixed block of rows; each
// round then queries several columns. The catalog, positional map and shreds
// invalidate and rebuild here instead of hitting, so a change that makes warm
// hits cheaper by making rebuilds dearer shows.
//
// The appends run serially, between queries: concurrent file churn crashes
// the engine (a query planning on a table whose file changed reads a mapping
// the stale check just retired), so a concurrent variant waits for per-query
// table snapshots.

#include <fcntl.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>

#include "common/rng.h"
#include "workloads.h"

namespace rawbench {
namespace {

constexpr int kChanges = 20;          // file changes per session
constexpr int64_t kBlockRows = 2000;  // rows appended per change
constexpr int kQueriesPerRound = 4;   // the first is the post-append query
constexpr int64_t kMaxRows = kRefreshRows + kChanges * kBlockRows;

std::vector<std::string> ColumnNames() {
  std::vector<std::string> names;
  for (int c = 0; c < 30; ++c) names.push_back("col" + std::to_string(c));
  return names;
}

/// Rows [begin, end) of the spec in the generator's CSV format.
std::string CsvRows(const raw::TableSpec& spec, int64_t begin, int64_t end) {
  raw::TableDataSource source(spec);
  std::string out;
  for (int64_t r = begin; r < end; ++r) {
    for (int c = 0; c < 30; ++c) {
      if (c > 0) out += ',';
      out += std::to_string(source.Value(r, c).int32_value());
    }
    out += '\n';
  }
  return out;
}

bool WriteAll(const std::string& path, const std::string& bytes,
              bool append) {
  const int flags = O_WRONLY | O_CREAT | (append ? O_APPEND : O_TRUNC);
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) return false;
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n <= 0) break;
    done += static_cast<size_t>(n);
  }
  return ::close(fd) == 0 && done == bytes.size();
}

/// The session's queries with their answers over `rows` rows: the exact row
/// count, then filtered aggregates over fixed columns at fixed selectivities
/// whose literals carry a seeded jitter of at most 0.1% of the value range.
/// Every round repeats the same SQL, so compiled kernels are reused and a
/// round measures what the file change invalidated.
std::vector<Check> RoundChecks(uint64_t seed, int64_t rows,
                               SpecColumns* cols) {
  raw::Rng rng(seed * 104729 + 3);
  const int kFilter[] = {2, 14, 26};
  const int kValue[] = {9, 21, 5};
  const double kSelectivity[] = {0.25, 0.5, 0.75};
  std::vector<Check> checks;
  for (int i = 0; i < kQueriesPerRound; ++i) {
    AggQuery q;
    q.table = "t";
    if (i == 0) {
      q.items = {{Agg::kCount, -1}};  // no filter: the exact row count
    } else {
      q.filter = kFilter[i - 1];
      q.hi = std::floor((kSelectivity[i - 1] + 1e-3 * rng.NextDouble()) * 1e9);
      q.items = {{Agg::kCount, -1}, {Agg::kSum, kValue[i - 1]}};
    }
    Check c;
    c.sql = q.Sql(ColumnNames());
    for (const AggQuery::Item& item : q.items) c.aggs.push_back(item.agg);
    c.want = EvaluateByScan(q, rows, [&](int k) -> const std::vector<double>& {
      return cols->Column(k);
    });
    checks.push_back(std::move(c));
  }
  return checks;
}

struct Inputs {
  std::string base;  // the generated CSV's bytes
  std::string work_path;
  std::vector<std::vector<Check>> rounds;  // round 0 runs before any append
  std::vector<std::string> blocks;         // appended before rounds 1..
};

/// Runs whole sessions until `seconds` would be exceeded (at least two).
/// Each session starts from a fresh copy of the file.
bool RunSessions(RunContext& ctx, const Inputs& in, double seconds,
                 Tracer* tracer, SessionPass* pass,
                 std::vector<double>* vm_growth_mb_per_change) {
  const Clock::time_point start = Clock::now();
  const double cpu0 = ProcessCpuSeconds();
  int64_t query_id = 0;
  for (int s = 0;; ++s) {
    const double typical = Percentile(pass->session_s, 0.5);
    if (s >= 2 && SecondsSince(start) + typical > seconds) break;
    if (!WriteAll(in.work_path, in.base, /*append=*/false)) {
      std::fprintf(stderr, "rawbench: cannot write %s\n", in.work_path.c_str());
      return false;
    }

    const Clock::time_point t0 = Clock::now();
    raw::RawEngine engine(SessionEngineOptions(ctx));
    raw::Status st =
        engine.RegisterCsv("t", in.work_path, D30Spec(0, 0).ToSchema());
    if (!st.ok()) {
      std::fprintf(stderr, "rawbench: register: %s\n", st.ToString().c_str());
      return false;
    }
    std::unique_ptr<raw::Session> session = engine.OpenSession();
    pass->setup_s.push_back(SecondsSince(t0));
    EngineDelta delta{engine.Stats(), {}};
    double vm_before_changes = 0;

    for (size_t round = 0; round < in.rounds.size(); ++round) {
      if (round > 0) {
        ScopedSpan span(tracer, "refresh.append", ++query_id);
        if (!WriteAll(in.work_path, in.blocks[round - 1], /*append=*/true)) {
          std::fprintf(stderr, "rawbench: append failed\n");
          return false;
        }
      }
      for (size_t i = 0; i < in.rounds[round].size(); ++i) {
        const Check& check = in.rounds[round][i];
        ctx.watchdog->Arm(0, "refresh query");
        QueryRun run = RunQuery(session.get(), check.sql, tracer, ++query_id);
        ctx.watchdog->Disarm(0);
        if (round == 0 && i == 0) {
          pass->first_query_s.push_back(SecondsSince(t0));
          const double mb = static_cast<double>(in.base.size()) / (1 << 20);
          pass->cold_scan_mbps.push_back(run.next_s > 0 ? mb / run.next_s : 0);
        }
        if (run.ok) {
          if (round > 0 && i == 0) {
            pass->post_change_ms.push_back(run.total_s * 1e3);
          }
          pass->latency_ms.push_back(run.total_s * 1e3);
          pass->query_seconds += run.total_s;
        }
        Verify(check, run, ctx.report);
        ++pass->queries;
        pass->runs.push_back(std::move(run));
      }
      if (round == 0) vm_before_changes = ProcStatusMb("VmSize");
    }
    pass->session_s.push_back(SecondsSince(t0));
    vm_growth_mb_per_change->push_back(
        (ProcStatusMb("VmSize") - vm_before_changes) / kChanges);
    delta.after = engine.Stats();
    pass->deltas.push_back(std::move(delta));
  }
  pass->cpu_s = ProcessCpuSeconds() - cpu0;
  return true;
}

}  // namespace

int RunRefresh(RunContext& ctx) {
  auto base_path = ctx.inputs->D30Csv(kRefreshRows);
  if (!base_path.ok()) {
    std::fprintf(stderr, "rawbench: input generation failed\n");
    return 1;
  }
  Inputs in;
  {
    std::ifstream file(*base_path, std::ios::binary);
    in.base.assign(std::istreambuf_iterator<char>(file),
                   std::istreambuf_iterator<char>());
  }
  in.work_path = ctx.inputs->dir() + "/refresh_work.csv";
  // Appended rows continue the generated table: rows n.. of the same spec.
  const raw::TableSpec spec = D30Spec(ctx.seed, kMaxRows);
  SpecColumns cols(spec, kMaxRows);
  for (int round = 0; round <= kChanges; ++round) {
    const int64_t rows = kRefreshRows + round * kBlockRows;
    in.rounds.push_back(RoundChecks(ctx.seed, rows, &cols));
    if (round > 0) in.blocks.push_back(CsvRows(spec, rows - kBlockRows, rows));
  }
  ResetPeakRss();
  Report& r = *ctx.report;
  r.Note("refresh.changes_per_session", std::to_string(kChanges));
  r.Note("refresh.block_rows", std::to_string(kBlockRows));

  SessionPass pass;
  for (int i = 0; i < kSetups; ++i) {
    const Clock::time_point t0 = Clock::now();
    raw::RawEngine engine(SessionEngineOptions(ctx));
    if (!engine.RegisterCsv("t", *base_path, D30Spec(0, 0).ToSchema()).ok()) {
      return 1;
    }
    std::unique_ptr<raw::Session> session = engine.OpenSession();
    pass.setup_s.push_back(SecondsSince(t0));
  }
  Tracer untraced(false);
  std::vector<double> vm_growth;
  const double seconds = ctx.trace ? ctx.seconds / 2 : ctx.seconds;
  if (!RunSessions(ctx, in, seconds, &untraced, &pass, &vm_growth)) return 1;
  ReportSessionPass(pass, /*tail_pct=*/0.9, &r);

  if (ctx.trace) {
    Tracer tracer(true);
    SessionPass traced;
    vm_growth.clear();
    if (!RunSessions(ctx, in, seconds, &tracer, &traced, &vm_growth)) return 1;
    ReportTracedPass(pass, traced, tracer, &r);
    r.SetLayer("proc.vm_growth_mb_per_change", Percentile(vm_growth, 0.5),
               "MB", static_cast<int64_t>(vm_growth.size()));
    RunProbes(*base_path, {}, "", &r);
    // No rawd in this workload.
    for (const char* name : {"serve.overhead_p50_ms", "serve.overhead_tail_ms",
                             "serve.generator_lag_ms"}) {
      r.SetNotApplicable(name, "ms");
    }
    r.SetNotApplicable("serve.client_retries", "count");
  }
  return 0;
}

}  // namespace rawbench
