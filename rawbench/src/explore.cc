// explore: the paper's core scenario. A fresh engine with library defaults
// per session; each session runs one seeded ad hoc sequence (no query
// repeats) over a raw D30 CSV, a D120 binary file, and Higgs REF files
// joined with a good-runs CSV. The first answer comes with no load step;
// later ones ride positional maps, column shreds and JIT kernels.

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <future>
#include <set>

#include "common/macros.h"
#include "common/rng.h"
#include "workloads.h"

namespace rawbench {
namespace {

const char* kGroups[] = {"muons", "electrons", "jets"};

struct Inputs {
  std::string d30;
  std::string d120;
  std::vector<std::string> refs;
  std::string good_runs;
};

std::vector<std::string> ColumnNames(int n) {
  std::vector<std::string> names;
  for (int c = 0; c < n; ++c) names.push_back("col" + std::to_string(c));
  return names;
}

Check MakeCheck(const std::string& source, const AggQuery& q,
                const std::vector<std::string>& names, int64_t rows,
                const std::function<const std::vector<double>&(int)>& col) {
  Check c;
  c.source = source;
  c.sql = q.Sql(names);
  for (const AggQuery::Item& item : q.items) c.aggs.push_back(item.agg);
  c.want = EvaluateByScan(q, rows, col);
  return c;
}

/// The seeded session: 10 D30 queries (the first is the cold one), 8 D120
/// queries and 9 Higgs queries (particle aggregates, joins with the
/// good-runs CSV, one GROUP BY), each with its oracle answer. Tables,
/// columns, shapes, order and each literal's place in its range are fixed
/// so sessions of every seed do the same work; the seed draws the data and
/// moves each literal by at most 0.1% of its range. No query repeats.
std::vector<Check> BuildSession(uint64_t seed, const Inputs& in) {
  raw::Rng rng(seed * 7919 + 11);
  int draws = 0;
  auto frac = [&](double lo, double hi) {
    // The k-th literal sits at frac(k * golden ratio) of [lo, hi).
    const double place = std::fmod(++draws * 0.6180339887498949, 1.0);
    return lo + (hi - lo) * (0.999 * place + 0.001 * rng.NextDouble());
  };

  SpecColumns d30(D30Spec(seed, kD30Rows), kD30Rows);
  const std::vector<std::string> d30_names = ColumnNames(30);
  std::vector<Check> d30_checks;
  for (int i = 0; i < 10; ++i) {
    AggQuery q;
    q.table = "d30";
    q.filter = 3 * i;
    const int b = 3 * i + 1;
    q.hi = std::floor(frac(0.1, 0.9) * 1e9);
    switch (i % 4) {
      case 0:
        q.items = {{Agg::kCount, -1}, {Agg::kMax, b}};
        break;
      case 1:
        q.items = {{Agg::kSum, b}, {Agg::kMin, b}};
        break;
      case 2:
        q.items = {{Agg::kCount, -1}, {Agg::kAvg, b}};
        break;
      default:
        q.lo = std::floor(frac(0.05, 0.6) * 1e9);
        q.hi = q.lo + 3e8;
        q.items = {{Agg::kCount, -1}, {Agg::kSum, b}};
        break;
    }
    d30_checks.push_back(
        MakeCheck("d30", q, d30_names, kD30Rows,
                  [&](int c) -> const std::vector<double>& {
                    return d30.Column(c);
                  }));
  }

  SpecColumns d120(D120Spec(seed, kD120Rows), kD120Rows);
  const std::vector<std::string> d120_names = ColumnNames(120);
  std::vector<Check> d120_checks;
  for (int i = 0; i < 8; ++i) {
    AggQuery q;
    q.table = "d120";
    q.filter = 2 * ((7 * i) % 60);              // int32 column
    const int b = 2 * ((11 * i + 5) % 60) + 1;  // float64 column
    q.hi = std::floor(frac(0.1, 0.9) * 1e9);
    if (i % 2 == 0) {
      q.items = {{Agg::kSum, b}, {Agg::kMax, b}};
    } else {
      q.items = {{Agg::kCount, -1}, {Agg::kAvg, b}};
    }
    d120_checks.push_back(
        MakeCheck("d120", q, d120_names, kD120Rows,
                  [&](int c) -> const std::vector<double>& {
                    return d120.Column(c);
                  }));
  }

  raw::StatusOr<HiggsOracle> higgs = HiggsOracle::Load(in.refs, in.good_runs);
  if (!higgs.ok()) {
    std::fprintf(stderr, "rawbench: higgs oracle: %s\n",
                 higgs.status().ToString().c_str());
    return {};
  }
  const std::vector<std::string> particle_names = {"pt", "eta"};
  std::vector<Check> higgs_checks;
  for (int f = 0; f < kHiggsFiles; ++f) {
    const std::string prefix = "h" + std::to_string(f);
    const int g = f % 3;
    const HiggsOracle::File& file = higgs->files[static_cast<size_t>(f)];
    AggQuery q;
    q.table = prefix + "_" + kGroups[g];
    q.filter = 0;  // pt
    // Quarter-GeV literals are exact in float32, so the predicate means the
    // same on the engine's float column and the oracle's doubles.
    q.lo = std::floor(frac(5, 40) * 4) / 4;
    q.items = {{Agg::kCount, -1}, {Agg::kSum, 0}, {Agg::kMax, 1}};
    higgs_checks.push_back(
        MakeCheck(prefix, q, particle_names,
                  static_cast<int64_t>(file.particle[g][0].size()),
                  [&](int c) -> const std::vector<double>& {
                    return file.particle[g][c];
                  }));

    const auto run_hi = static_cast<int32_t>(2005 + frac(0, 36));
    const std::string events = prefix + "_events";
    Check join;
    join.source = prefix;
    join.sql = "SELECT COUNT(*) FROM " + events + " JOIN good_runs ON " +
               events + ".runNumber = good_runs.run WHERE " + events +
               ".runNumber < " + std::to_string(run_hi);
    join.aggs = {Agg::kCount};
    join.want = {static_cast<double>(higgs->JoinCount(f, run_hi))};
    higgs_checks.push_back(std::move(join));
  }
  const double lo = std::floor(frac(10, 30) * 4) / 4;
  Check group;
  group.source = "h0";
  group.sql = "SELECT eventID, COUNT(*) FROM h0_muons WHERE pt >= " +
              std::to_string(lo) + " GROUP BY eventID";
  group.aggs = {Agg::kCount, Agg::kCount};
  group.want = higgs->GroupCount(0, 0, lo);
  group.grouped = true;
  higgs_checks.push_back(std::move(group));

  // The cold D30 CSV query first, then the tables in turn.
  std::vector<Check> session = {d30_checks[0]};
  const std::vector<Check>* lists[] = {&d120_checks, &higgs_checks,
                                       &d30_checks};
  size_t next[] = {0, 0, 1};
  const size_t total =
      d30_checks.size() + d120_checks.size() + higgs_checks.size();
  while (session.size() < total) {
    for (int l = 0; l < 3; ++l) {
      if (next[l] < lists[l]->size()) session.push_back((*lists[l])[next[l]++]);
    }
  }
  return session;
}

raw::Status Register(raw::RawEngine* engine, const Inputs& in) {
  RAW_RETURN_NOT_OK(
      engine->RegisterCsv("d30", in.d30, D30Spec(0, 0).ToSchema()));
  RAW_RETURN_NOT_OK(
      engine->RegisterBinary("d120", in.d120, D120Spec(0, 0).ToSchema()));
  for (size_t f = 0; f < in.refs.size(); ++f) {
    RAW_RETURN_NOT_OK(
        engine->RegisterRef("h" + std::to_string(f), in.refs[f]));
  }
  return engine->RegisterCsv("good_runs", in.good_runs,
                             raw::Schema{{"run", raw::DataType::kInt32}});
}

double FileMb(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0
             ? static_cast<double>(st.st_size) / (1 << 20)
             : 0;
}

/// Runs whole sessions until `seconds` would be exceeded (at least two).
bool RunSessions(RunContext& ctx, const Inputs& in,
                 const std::vector<Check>& plan, double seconds,
                 Tracer* tracer, SessionPass* pass) {
  const Clock::time_point start = Clock::now();
  const double cpu0 = ProcessCpuSeconds();
  int64_t query_id = 0;
  for (int s = 0;; ++s) {
    const double typical = Percentile(pass->session_s, 0.5);
    if (s >= 2 && SecondsSince(start) + typical > seconds) break;

    const Clock::time_point t0 = Clock::now();
    raw::RawEngine engine(SessionEngineOptions(ctx));
    raw::Status st = Register(&engine, in);
    if (!st.ok()) {
      std::fprintf(stderr, "rawbench: register: %s\n", st.ToString().c_str());
      return false;
    }
    std::unique_ptr<raw::Session> session = engine.OpenSession();
    pass->setup_s.push_back(SecondsSince(t0));
    EngineDelta delta{engine.Stats(), {}};

    std::vector<QueryRun> runs;
    std::set<std::string> touched;  // files read so far this session
    for (size_t i = 0; i < plan.size(); ++i) {
      ctx.watchdog->Arm(0, "explore query");
      QueryRun run = RunQuery(session.get(), plan[i].sql, tracer, ++query_id);
      ctx.watchdog->Disarm(0);
      if (i == 0) {
        pass->first_query_s.push_back(SecondsSince(t0));
        pass->cold_scan_mbps.push_back(
            run.next_s > 0 ? FileMb(in.d30) / run.next_s : 0);
      }
      const bool first_touch = touched.insert(plan[i].source).second;
      if (run.ok) {
        if (first_touch) pass->post_change_ms.push_back(run.total_s * 1e3);
        pass->latency_ms.push_back(run.total_s * 1e3);
        pass->query_seconds += run.total_s;
      }
      runs.push_back(std::move(run));
    }
    pass->session_s.push_back(SecondsSince(t0));
    delta.after = engine.Stats();
    pass->deltas.push_back(std::move(delta));
    for (size_t i = 0; i < plan.size(); ++i) {
      Verify(plan[i], runs[i], ctx.report);
    }
    pass->queries += static_cast<int64_t>(runs.size());
    pass->runs.insert(pass->runs.end(), runs.begin(), runs.end());
  }
  pass->cpu_s = ProcessCpuSeconds() - cpu0;
  return true;
}

}  // namespace

int RunExplore(RunContext& ctx) {
  // The inputs are independent files, generated side by side.
  auto d120_made = std::async(std::launch::async, [&] {
    return ctx.inputs->D120Binary(kD120Rows);
  });
  auto refs_made = std::async(std::launch::async, [&] {
    return ctx.inputs->HiggsRefs(kHiggsEvents, kHiggsFiles);
  });
  auto d30 = ctx.inputs->D30Csv(kD30Rows);
  auto runs = ctx.inputs->GoodRuns(kHiggsEvents, kHiggsFiles);
  auto d120 = d120_made.get();
  auto refs = refs_made.get();
  if (!d30.ok() || !d120.ok() || !refs.ok() || !runs.ok()) {
    std::fprintf(stderr, "rawbench: input generation failed\n");
    return 1;
  }
  const Inputs in{*d30, *d120, *refs, *runs};
  const std::vector<Check> plan = BuildSession(ctx.seed, in);
  if (plan.empty()) return 1;
  ResetPeakRss();
  ctx.report->Note("explore.queries_per_session", std::to_string(plan.size()));

  SessionPass pass;
  for (int i = 0; i < kSetups; ++i) {
    const Clock::time_point t0 = Clock::now();
    raw::RawEngine engine(SessionEngineOptions(ctx));
    if (!Register(&engine, in).ok()) return 1;
    std::unique_ptr<raw::Session> session = engine.OpenSession();
    pass.setup_s.push_back(SecondsSince(t0));
  }
  Tracer untraced(false);
  const double seconds = ctx.trace ? ctx.seconds / 2 : ctx.seconds;
  if (!RunSessions(ctx, in, plan, seconds, &untraced, &pass)) return 1;
  ReportSessionPass(pass, /*tail_pct=*/0.8, ctx.report);

  if (ctx.trace) {
    Tracer tracer(true);
    SessionPass traced;
    if (!RunSessions(ctx, in, plan, seconds, &tracer, &traced)) return 1;
    ReportTracedPass(pass, traced, tracer, ctx.report);
    RunProbes(in.d30, in.refs, in.good_runs, ctx.report);
    // No rawd and no file changes in this workload.
    for (const char* name : {"serve.overhead_p50_ms", "serve.overhead_tail_ms",
                             "serve.generator_lag_ms"}) {
      ctx.report->SetNotApplicable(name, "ms");
    }
    ctx.report->SetNotApplicable("serve.client_retries", "count");
    ctx.report->SetNotApplicable("proc.vm_growth_mb_per_change", "MB");
  }
  return 0;
}

}  // namespace rawbench
