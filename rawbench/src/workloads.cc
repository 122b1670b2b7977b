#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/macros.h"

namespace rawbench {

QueryRun RunQuery(raw::Session* session, const std::string& sql,
                  Tracer* tracer, int64_t query_id) {
  QueryRun run;
  const Clock::time_point start = Clock::now();
  ScopedSpan root(tracer, "query", query_id);

  raw::StatusOr<raw::QuerySpec> spec = [&] {
    ScopedSpan span(tracer, "engine.parse", query_id, root.handle());
    return session->Parse(sql);
  }();
  run.parse_s = SecondsSince(start);
  if (!spec.ok()) {
    run.error = spec.status().ToString();
    return run;
  }

  const Clock::time_point stream_start = Clock::now();
  const int64_t stream_start_ns = NowNs();
  int32_t stream_span = -1;
  raw::StatusOr<raw::Cursor> cursor = [&] {
    ScopedSpan span(tracer, "engine.stream", query_id, root.handle());
    stream_span = span.handle();
    return session->ExecuteStream(*spec);
  }();
  run.stream_s = SecondsSince(stream_start);
  if (!cursor.ok()) {
    run.error = cursor.status().ToString();
    return run;
  }
  run.compile_s = cursor->compile_seconds();
  run.plan_s = cursor->plan_seconds() - run.compile_s;
  if (run.compile_s > 0) {
    // The compile share of the stream span, as its own layer.
    tracer->Add("jit.compile", query_id, stream_start_ns,
                stream_start_ns + static_cast<int64_t>(run.compile_s * 1e9),
                stream_span);
  }

  const Clock::time_point next_start = Clock::now();
  while (true) {
    raw::StatusOr<raw::ColumnBatch> batch = [&] {
      ScopedSpan span(tracer, "engine.next", query_id, root.handle());
      return cursor->Next();
    }();
    if (!batch.ok()) {
      run.error = batch.status().ToString();
      return run;
    }
    if (batch->empty()) break;
    run.batches.push_back(std::move(*batch));
  }
  run.next_s = SecondsSince(next_start);
  run.total_s = SecondsSince(start);
  run.ok = true;
  return run;
}

namespace {

raw::StatusOr<std::vector<double>> Answer(const Check& check,
                                          const QueryRun& run) {
  if (!run.ok) return raw::Status::Internal(run.error);
  if (!check.grouped) {
    if (run.batches.empty()) return raw::Status::Internal("no result rows");
    return FirstRow(run.batches.front());
  }
  double rows = 0;
  double sum = 0;
  for (const raw::ColumnBatch& batch : run.batches) {
    rows += static_cast<double>(batch.num_rows());
    for (int64_t i = 0; i < batch.num_rows(); ++i) {
      RAW_ASSIGN_OR_RETURN(double v, batch.column(1)->GetDatum(i).AsDouble());
      sum += v;
    }
  }
  return std::vector<double>{rows, sum};
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double HitRatio(int64_t hits, int64_t misses) {
  return Ratio(static_cast<double>(hits), static_cast<double>(hits + misses));
}

double VersionSum(const raw::EngineStats& s) {
  double v = 0;
  for (const raw::TableStats& t : s.tables) v += static_cast<double>(t.version);
  return v;
}

}  // namespace

bool Verify(const Check& check, const QueryRun& run, Report* report) {
  report->attempted.fetch_add(1);
  raw::StatusOr<std::vector<double>> got = Answer(check, run);
  if (!got.ok()) {
    report->failed.fetch_add(1);
    std::fprintf(stderr, "rawbench: query failed: %s\n  %s\n",
                 check.sql.c_str(), got.status().ToString().c_str());
    return false;
  }
  if (!Matches(*got, check.want, check.aggs)) {
    report->failed.fetch_add(1);
    report->wrong.fetch_add(1);
    std::string have;
    std::string want;
    for (double v : *got) have += " " + std::to_string(v);
    for (double v : check.want) want += " " + std::to_string(v);
    std::fprintf(stderr, "rawbench: wrong answer: %s\n  got%s\n  want%s\n",
                 check.sql.c_str(), have.c_str(), want.c_str());
    return false;
  }
  return true;
}

void ReportEngineLayers(const std::vector<EngineDelta>& deltas,
                        Report* report) {
  // name -> (unit, one value per interval)
  std::map<std::string, std::pair<std::string, std::vector<double>>> values;
  auto add = [&](const char* name, const char* unit, double v) {
    values[name].first = unit;
    values[name].second.push_back(v);
  };
  for (const EngineDelta& d : deltas) {
    const raw::EngineStats& b = d.before;
    const raw::EngineStats& a = d.after;
    double pmap_bytes = 0;
    for (const raw::TableStats& t : a.tables) {
      pmap_bytes += static_cast<double>(t.pmap_bytes);
    }
    add("engine.fused_frac", "fraction",
        Ratio(static_cast<double>(a.plans_fused - b.plans_fused),
              static_cast<double>(a.queries_planned - b.queries_planned)));
    add("engine.shred_hit_ratio", "fraction",
        HitRatio(a.shred_cache.hits - b.shred_cache.hits,
                 a.shred_cache.misses - b.shred_cache.misses));
    add("engine.shred_evictions", "count",
        static_cast<double>(a.shred_cache.evictions - b.shred_cache.evictions));
    add("engine.shred_mb", "MB",
        static_cast<double>(a.shred_cache.bytes) / (1 << 20));
    add("engine.pmap_mb", "MB", pmap_bytes / (1 << 20));
    add("engine.table_versions", "count", VersionSum(a) - VersionSum(b));
    add("jit.compile_s", "s",
        a.jit_cache.total_compile_seconds - b.jit_cache.total_compile_seconds);
    add("jit.compiles", "count",
        static_cast<double>(a.jit_cache.compiles - b.jit_cache.compiles));
    add("jit.hit_ratio", "fraction",
        HitRatio(a.jit_cache.hits - b.jit_cache.hits,
                 a.jit_cache.misses - b.jit_cache.misses));
    add("eventsim.pool_hit_ratio", "fraction",
        HitRatio(a.ref_pool.hits - b.ref_pool.hits,
                 a.ref_pool.misses - b.ref_pool.misses));
    add("eventsim.pool_evictions", "count",
        static_cast<double>(a.ref_pool.evictions - b.ref_pool.evictions));
    add("autotune.result_hit_ratio", "fraction",
        HitRatio(a.result_cache.hits - b.result_cache.hits,
                 a.result_cache.misses - b.result_cache.misses));
    add("autotune.result_invalidated", "count",
        static_cast<double>(a.result_cache.invalidated -
                            b.result_cache.invalidated));
    add("autotune.materializer_completed", "count",
        static_cast<double>(a.materializer.actions_completed -
                            b.materializer.actions_completed));
    add("autotune.materializer_preempted", "count",
        static_cast<double>(a.materializer.actions_preempted -
                            b.materializer.actions_preempted));
    add("serve.shed_frac", "fraction",
        HitRatio(a.admission.shed - b.admission.shed,
                 a.admission.admitted - b.admission.admitted));
    add("serve.deadline_expired", "count",
        static_cast<double>(a.admission.deadline_expired -
                            b.admission.deadline_expired));
  }
  for (const auto& [name, v] : values) {
    report->SetLayer(name, Percentile(v.second, 0.5), v.first,
                     static_cast<int64_t>(v.second.size()));
  }
}

void ReportQueryLayers(const std::vector<QueryRun>& runs, Report* report) {
  std::vector<double> parse_us;
  std::vector<double> plan_ms;
  std::vector<double> execute_ms;
  for (const QueryRun& r : runs) {
    if (!r.ok) continue;
    parse_us.push_back(r.parse_s * 1e6);
    plan_ms.push_back(r.plan_s * 1e3);
    execute_ms.push_back(r.next_s * 1e3);
  }
  const auto n = static_cast<int64_t>(parse_us.size());
  report->SetLayer("engine.parse_us", Percentile(parse_us, 0.5), "us", n);
  report->SetLayer("engine.plan_ms", Percentile(plan_ms, 0.5), "ms", n);
  report->SetLayer("engine.execute_ms", Percentile(execute_ms, 0.5), "ms", n);
}

raw::RawEngineOptions SessionEngineOptions(const RunContext& ctx) {
  raw::RawEngineOptions options;
  options.planner.num_threads = ctx.scan_threads;
  return options;
}

void ReportSessionPass(const SessionPass& pass, double tail_pct,
                       Report* report) {
  auto median = [&](const char* name, const std::vector<double>& v,
                    const char* unit) {
    report->SetE2E(name, Percentile(v, 0.5), unit,
                   static_cast<int64_t>(v.size()));
  };
  median("setup_s", pass.setup_s, "s");
  median("first_query_s", pass.first_query_s, "s");
  median("session_s", pass.session_s, "s");
  median("post_change_ms", pass.post_change_ms, "ms");
  report->SetE2E("slo_qps",
                 static_cast<double>(pass.queries) / pass.query_seconds,
                 "1/s", pass.queries);
  report->SetLatency(pass.latency_ms, tail_pct);
}

void ReportTracedPass(const SessionPass& untraced, const SessionPass& traced,
                      const Tracer& tracer, Report* report) {
  ReportEngineLayers(traced.deltas, report);
  ReportQueryLayers(traced.runs, report);
  ReportTrace(tracer, traced.queries, report);
  report->SetLayer("csv.cold_scan_mbps",
                   Percentile(traced.cold_scan_mbps, 0.5), "MB/s",
                   static_cast<int64_t>(traced.cold_scan_mbps.size()));
  report->SetLayer("proc.cpu_s_per_query",
                   traced.cpu_s / static_cast<double>(traced.queries), "s",
                   traced.queries);
  const double base = Percentile(untraced.latency_ms, 0.5);
  report->SetLayer("trace.overhead_frac",
                   (Percentile(traced.latency_ms, 0.5) - base) / base,
                   "fraction",
                   static_cast<int64_t>(traced.latency_ms.size()));
}

// Layer self times must account for each query's latency to within this
// share; the rest is the benchmark's own loop between layer calls.
constexpr double kAttributionTolerance = 0.05;

void ReportTrace(const Tracer& tracer, int64_t queries, Report* report) {
  const double per_query = queries > 0 ? 1e3 / static_cast<double>(queries) : 0;
  for (const auto& [layer, secs] : tracer.SelfSeconds()) {
    report->Note("self_ms_per_query." + layer,
                 std::to_string(secs * per_query));
  }
  const std::vector<double> shares = tracer.UnattributedShares();
  const auto n = static_cast<int64_t>(shares.size());
  const auto beyond = std::count_if(shares.begin(), shares.end(), [](double s) {
    return s > kAttributionTolerance;
  });
  report->SetLayer("trace.unattributed_frac", Percentile(shares, 0.5),
                   "fraction", n);
  report->SetLayer("trace.queries_beyond_tolerance",
                   static_cast<double>(beyond), "count", n);
  report->Note("trace.attribution_tolerance",
               std::to_string(kAttributionTolerance));
  report->Note("trace.spans", std::to_string(tracer.size()));
}

}  // namespace rawbench
