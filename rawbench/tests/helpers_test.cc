// Self-test of rawbench's own helpers: the percentile sample-count rule, the
// rate ladder and its backlog check, the trace attribution check, and the
// oracle (against a brute-force
// scan and against the engine on a small generated file). Exits non-zero if
// any check fails.
//
//   rawbench_selftest <scratch-dir>

#include <cstdio>
#include <map>
#include <string>

#include "common/rng.h"
#include "common/temp_dir.h"
#include "engine/raw_engine.h"
#include "harness.h"
#include "inputs.h"
#include "workload/data_gen.h"

namespace {

using rawbench::Agg;

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

void TestPercentileRule() {
  using rawbench::Percentile;
  using rawbench::SupportsPercentile;
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  Expect(Percentile(v, 0.5) == 50, "median of 1..100 is 50 (nearest rank)");
  Expect(Percentile(v, 0.9) == 90, "p90 of 1..100 is 90");
  Expect(Percentile(v, 1.0) == 100, "p100 is the maximum");
  Expect(Percentile({}, 0.5) == 0, "empty sample gives 0");
  // At least ten samples must lie beyond a supported percentile.
  Expect(SupportsPercentile(100, 0.9), "100 samples support p90");
  Expect(!SupportsPercentile(99, 0.9), "99 samples do not");
  Expect(!SupportsPercentile(100, 0.95), "100 samples do not support p95");
  Expect(SupportsPercentile(1000, 0.99), "1000 samples support p99");
  Expect(SupportsPercentile(50, 0.8), "50 samples support p80");
  Expect(SupportsPercentile(20, 0.5), "20 samples support the median");
  Expect(!SupportsPercentile(19, 0.5), "19 samples do not");
}

void TestLadder() {
  const std::vector<double> ladder = rawbench::RateLadder(10, 2000, 1.1);
  bool steps_ok = ladder.front() == 10 && ladder.back() <= 2000 * 1.0001;
  for (size_t i = 1; i < ladder.size(); ++i) {
    steps_ok = steps_ok && ladder[i] / ladder[i - 1] <= 1.1 + 1e-9;
  }
  Expect(steps_ok, "ladder rungs are at most 10% apart and within bounds");
  Expect(ladder.back() * 1.1 > 2000, "ladder reaches its top");

  // Binary search finds the last passing rung of a monotone predicate.
  int probes = 0;
  const auto rungs = static_cast<int>(ladder.size());
  const int best = rawbench::LadderSearch(rungs, [&](int i) {
    ++probes;
    return ladder[static_cast<size_t>(i)] <= 300;
  });
  Expect(best >= 0 && ladder[static_cast<size_t>(best)] <= 300 &&
             ladder[static_cast<size_t>(best) + 1] > 300,
         "ladder search finds the highest passing rung");
  Expect(probes <= 7, "ladder search probes O(log n) rungs");
  Expect(rawbench::LadderSearch(10, [](int) { return false; }) == -1,
         "no rung passes");
  Expect(rawbench::LadderSearch(10, [](int) { return true; }) == 9,
         "every rung passes");

  // Backlog: steady waits pass, growing waits or unsent requests fail.
  std::vector<double> steady(400, 0.5);
  std::vector<double> growing;
  for (int i = 0; i < 400; ++i) growing.push_back(i * 0.5);
  // Bursts without a trend: every 10th request waits 300 ms longer, and the
  // last eighth of the probe is one burst.
  std::vector<double> bursty;
  for (int i = 0; i < 400; ++i) {
    bursty.push_back(i % 10 == 0 || i >= 350 ? 300.5 : 0.5);
  }
  Expect(!rawbench::BacklogGrowing(steady, 0, 10), "steady wait: no backlog");
  Expect(!rawbench::BacklogGrowing(bursty, 0, 10), "bursts: no backlog");
  Expect(rawbench::BacklogGrowing(growing, 0, 10), "growing wait: backlog");
  Expect(rawbench::BacklogGrowing(steady, 1, 10), "unsent requests: backlog");
}

void TestAttribution() {
  // A query whose child spans leave 20 of its 100 ns uncovered.
  rawbench::Tracer tracer(true);
  const int32_t root = tracer.Add("query", 1, 0, 100, -1);
  tracer.Add("serve.generator", 1, 0, 10, root);
  tracer.Add("serve.send", 1, 10, 20, root);
  tracer.Add("serve.read", 1, 40, 100, root);
  const std::vector<double> shares = tracer.UnattributedShares();
  Expect(shares.size() == 1 && shares[0] > 0.19 && shares[0] < 0.21,
         "a gap between child spans is unattributed");
  const std::map<std::string, double> self = tracer.SelfSeconds();
  Expect(self.at("query") > 19e-9 && self.at("query") < 21e-9,
         "the root's self time is the gap");
  Expect(self.at("serve.read") > 59e-9 && self.at("serve.read") < 61e-9,
         "a leaf's self time is its duration");
}

void TestOracleAgainstScan() {
  raw::Rng rng(5);
  std::vector<double> f;
  std::vector<double> v;
  for (int i = 0; i < 5000; ++i) {
    f.push_back(static_cast<double>(rng.NextBelow(1000)));
    v.push_back(rng.NextDouble(-50, 50));
  }
  const rawbench::SortedPrefix prefix(f, v);
  const std::vector<Agg> aggs = {Agg::kCount, Agg::kSum, Agg::kMax, Agg::kMin};
  bool ok = true;
  for (double hi : {1.0, 17.0, 500.0, 999.0, 1000.0, 5000.0}) {
    rawbench::AggQuery q;
    q.filter = 0;
    q.hi = hi;
    q.items = {{Agg::kCount, -1}, {Agg::kSum, 1}, {Agg::kMax, 1},
               {Agg::kMin, 1}};
    const std::vector<double> scan = rawbench::EvaluateByScan(
        q, 5000,
        [&](int c) -> const std::vector<double>& { return c == 0 ? f : v; });
    std::vector<double> fast;
    for (Agg agg : aggs) fast.push_back(prefix.Eval(agg, hi));
    ok = ok && rawbench::Matches(fast, scan, aggs);
  }
  Expect(ok, "sorted-prefix oracle equals the scan oracle");
  Expect(prefix.Eval(Agg::kCount, 0) == 0, "empty prefix counts nothing");
  Expect(!rawbench::Matches({1}, {2}, {Agg::kCount}), "a wrong count fails");
  Expect(rawbench::Matches({1e12 + 1e-4}, {1e12}, {Agg::kSum}),
         "sums compare with relative tolerance");
  Expect(!rawbench::Matches({1e12 + 1e4}, {1e12}, {Agg::kSum}),
         "a wrong sum fails");
}

void TestOracleAgainstEngine(const std::string& dir) {
  const int64_t rows = 3000;
  const raw::TableSpec spec = rawbench::D30Spec(9, rows);
  const std::string path = dir + "/oracle_check.csv";
  Expect(raw::WriteCsvFile(spec, path).ok(), "write small CSV");
  raw::RawEngine engine;
  Expect(engine.RegisterCsv("d30", path, spec.ToSchema()).ok(),
         "register small CSV");
  auto session = engine.OpenSession();
  rawbench::SpecColumns cols(spec, rows);
  std::vector<std::string> names;
  for (int c = 0; c < 30; ++c) names.push_back("col" + std::to_string(c));
  const std::vector<Agg> aggs = {Agg::kCount, Agg::kSum, Agg::kMin, Agg::kMax,
                                 Agg::kAvg};
  for (int i = 0; i < 6; ++i) {
    rawbench::AggQuery q;
    q.table = "d30";
    q.filter = 3 * i;
    if (i % 2 == 1) q.lo = 2e8;
    q.hi = 2e8 + i * 1.2e8;
    q.items = {{Agg::kCount, -1}, {Agg::kSum, i + 1}, {Agg::kMin, i + 1},
               {Agg::kMax, 29 - i}, {Agg::kAvg, 7}};
    auto result = session->Query(q.Sql(names));
    Expect(result.ok(), "engine answers the oracle's query");
    if (!result.ok()) continue;
    auto row = rawbench::FirstRow(result->table);
    const std::vector<double> want = rawbench::EvaluateByScan(
        q, rows,
        [&](int c) -> const std::vector<double>& { return cols.Column(c); });
    Expect(row.ok() && rawbench::Matches(*row, want, aggs),
           "engine answer equals the oracle");
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: rawbench_selftest <scratch-dir>\n");
    return 2;
  }
  if (!raw::MakeDirs(argv[1]).ok()) return 2;
  TestPercentileRule();
  TestLadder();
  TestAttribution();
  TestOracleAgainstScan();
  TestOracleAgainstEngine(argv[1]);
  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("rawbench self-test: all checks passed\n");
  return 0;
}
