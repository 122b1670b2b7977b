// JIT pipeline fusion: fused scan→filter→project/aggregate loops must be
// indistinguishable from the interpreted operator pipeline except for speed.
// These tests sweep formats × thread counts × kernel tiers × aggregate kinds
// comparing fused and interpreted results cell by cell, and pin down the
// eligibility rules (fallback formats, the RAW_JIT_FUSION knob, dense
// shred-cache inputs, observability counters).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/kernels.h"
#include "engine/raw_engine.h"
#include "eventsim/event_generator.h"
#include "tests/test_util.h"
#include "workload/data_gen.h"

namespace raw {
namespace {

using ::raw::testing::TempDirTest;

/// Planner options for fusion tests: shred-cache population off by default so
/// every query reads the file and fusion eligibility does not depend on which
/// query ran first (the dense-input tests opt back in explicitly).
PlannerOptions Opts(JitFusion fusion, int threads) {
  PlannerOptions options;
  options.jit_fusion = fusion;
  options.num_threads = threads;
  options.populate_shred_cache = false;
  return options;
}

void ExpectSameResults(const QueryResult& fused, const QueryResult& interp,
                       const std::string& context) {
  ASSERT_EQ(fused.num_rows(), interp.num_rows()) << context;
  ASSERT_EQ(fused.num_columns(), interp.num_columns()) << context;
  for (int64_t r = 0; r < fused.num_rows(); ++r) {
    for (int c = 0; c < fused.num_columns(); ++c) {
      ASSERT_OK_AND_ASSIGN(Datum f, fused.ValueAt(r, c));
      ASSERT_OK_AND_ASSIGN(Datum i, interp.ValueAt(r, c));
      // ToString round-trips doubles at full precision, so string equality
      // is bit-for-bit equality for every supported type.
      ASSERT_EQ(f.ToString(), i.ToString())
          << context << " at (" << r << "," << c << ")";
    }
  }
}

bool Fused(const QueryResult& result) {
  return result.plan_description.find("[jit-fused]") != std::string::npos;
}

/// One parameter list per element of `literals` (single-`?` queries).
std::vector<std::vector<Datum>> Singles(const std::vector<Datum>& literals) {
  std::vector<std::vector<Datum>> out;
  for (const Datum& lit : literals) out.push_back({lit});
  return out;
}

/// Runs one prepared fused shape with every parameter set, interpreted and
/// then fused, at threads {1, 4}. Every fused answer must equal the
/// interpreted one bit for bit, and the whole fused sweep may compile at
/// most one kernel: literals are run-time arguments of the compiled shape,
/// not part of it. Appends the single-threaded fused answers' first cells to
/// `answers` (in parameter-set order) when given.
void ExpectOneKernelForAllLiterals(
    RawEngine& engine, const std::string& sql,
    const std::vector<std::vector<Datum>>& param_sets,
    std::vector<std::string>* answers = nullptr) {
  auto session = engine.OpenSession(Opts(JitFusion::kOff, 1));
  ASSERT_OK_AND_ASSIGN(PreparedQuery prepared, session->Prepare(sql));
  auto context = [&](const std::vector<Datum>& params, int threads) {
    std::string out = sql;
    out += " with";
    for (const Datum& p : params) {
      out += ' ';
      out += p.ToString();
    }
    out += " threads=";
    out += std::to_string(threads);
    return out;
  };
  // Interpreted answers first, so any plain scan kernel they need is already
  // cached when the fused runs start counting compiles.
  std::vector<QueryResult> interpreted;
  for (const std::vector<Datum>& params : param_sets) {
    for (int threads : {1, 4}) {
      session->set_planner_options(Opts(JitFusion::kOff, threads));
      ASSERT_OK_AND_ASSIGN(QueryResult r, prepared.Execute(params));
      ASSERT_FALSE(Fused(r)) << r.plan_description;
      interpreted.push_back(std::move(r));
    }
  }
  const JitCacheStats before = engine.Stats().jit_cache;
  size_t i = 0;
  for (const std::vector<Datum>& params : param_sets) {
    for (int threads : {1, 4}) {
      session->set_planner_options(Opts(JitFusion::kOn, threads));
      ASSERT_OK_AND_ASSIGN(QueryResult fused, prepared.Execute(params));
      EXPECT_TRUE(Fused(fused))
          << fused.plan_description << " for " << context(params, threads);
      ExpectSameResults(fused, interpreted[i++], context(params, threads));
      if (answers != nullptr && threads == 1) {
        ASSERT_OK_AND_ASSIGN(Datum first, fused.ValueAt(0, 0));
        answers->push_back(first.ToString());
      }
    }
  }
  const JitCacheStats after = engine.Stats().jit_cache;
  EXPECT_LE(after.compiles - before.compiles, 1) << sql;
  EXPECT_LE(after.entries - before.entries, 1) << sql;
}

class FusionTest : public TempDirTest {
 protected:
  void SetUp() override {
    TempDirTest::SetUp();
    // 8 columns: int32 except col3 (int64) and col4 (float64).
    spec_ = TableSpec::UniformInt32("f", 8, 3000, 99);
    spec_.columns[3].type = DataType::kInt64;
    spec_.columns[4].type = DataType::kFloat64;
  }

  /// Engine over the CSV copy; `warm` runs one interpreted full scan first so
  /// the complete positional map the fused CSV plug-in requires is published.
  std::unique_ptr<RawEngine> CsvEngine(bool warm = true) {
    csv_path_ = Path("f.csv");
    EXPECT_OK(WriteCsvFile(spec_, csv_path_));
    auto engine = std::make_unique<RawEngine>();
    EXPECT_OK(engine->RegisterCsv("f", csv_path_, spec_.ToSchema()));
    if (warm) {
      EXPECT_TRUE(
          engine->Query("SELECT SUM(col0) FROM f", Opts(JitFusion::kOff, 1))
              .ok());
    }
    return engine;
  }

  std::unique_ptr<RawEngine> BinEngine() {
    bin_path_ = Path("f.bin");
    EXPECT_OK(WriteBinaryFile(spec_, bin_path_));
    auto engine = std::make_unique<RawEngine>();
    EXPECT_OK(engine->RegisterBinary("f", bin_path_, spec_.ToSchema()));
    return engine;
  }

  bool CompilerAvailable(RawEngine& engine) {
    return engine.Stats().jit_compiler_available();
  }

  /// Aggregate shapes whose fused plans parallelize (COUNT / MIN / MAX /
  /// integer SUM merge exactly at any thread count).
  std::vector<std::string> MergeableAggQueries() {
    const std::string l1 = spec_.SelectivityLiteral(1, 0.4).ToString();
    const std::string l3 = spec_.SelectivityLiteral(3, 0.7).ToString();
    return {
        "SELECT COUNT(*) FROM f WHERE col1 < " + l1,
        "SELECT COUNT(col2) FROM f WHERE col1 < " + l1,
        "SELECT MAX(col2), MIN(col2), SUM(col2) FROM f WHERE col1 < " + l1 +
            " AND col3 >= " + l3,
        "SELECT SUM(col3) FROM f WHERE col4 < 500000000",
        "SELECT MAX(col4), MIN(col4) FROM f WHERE col1 < " + l1,
        // Empty result set: MIN/MAX must agree on the no-rows encoding too.
        "SELECT COUNT(*), MAX(col2) FROM f WHERE col1 < 0",
    };
  }

  /// Order-sensitive float aggregates: fused only single-threaded.
  std::vector<std::string> FloatAggQueries() {
    const std::string l1 = spec_.SelectivityLiteral(1, 0.4).ToString();
    return {
        "SELECT SUM(col4) FROM f WHERE col1 < " + l1,
        "SELECT AVG(col4), COUNT(*) FROM f WHERE col1 < " + l1,
    };
  }

  std::vector<std::string> ProjectionQueries() {
    const std::string l1 = spec_.SelectivityLiteral(1, 0.1).ToString();
    return {
        "SELECT col0, col4 FROM f WHERE col1 < " + l1,
        "SELECT col2 FROM f WHERE col1 < " + l1 + " LIMIT 7",
    };
  }

  TableSpec spec_;
  std::string csv_path_;
  std::string bin_path_;
};

// --- fused == interpreted, per format ----------------------------------------

TEST_F(FusionTest, CsvFusedMatchesInterpreted) {
  auto engine = CsvEngine();
  if (!CompilerAvailable(*engine)) GTEST_SKIP() << "no compiler";
  std::vector<std::string> queries = MergeableAggQueries();
  for (const std::string& q : ProjectionQueries()) queries.push_back(q);
  for (const std::string& sql : queries) {
    for (int threads : {1, 4}) {
      ASSERT_OK_AND_ASSIGN(QueryResult fused,
                           engine->Query(sql, Opts(JitFusion::kOn, threads)));
      ASSERT_OK_AND_ASSIGN(QueryResult interp,
                           engine->Query(sql, Opts(JitFusion::kOff, threads)));
      EXPECT_TRUE(Fused(fused)) << fused.plan_description << " for " << sql;
      EXPECT_FALSE(Fused(interp)) << interp.plan_description;
      ExpectSameResults(fused, interp,
                        sql + " threads=" + std::to_string(threads));
    }
  }
}

TEST_F(FusionTest, BinFusedMatchesInterpreted) {
  auto engine = BinEngine();
  if (!CompilerAvailable(*engine)) GTEST_SKIP() << "no compiler";
  std::vector<std::string> queries = MergeableAggQueries();
  for (const std::string& q : ProjectionQueries()) queries.push_back(q);
  for (const std::string& sql : queries) {
    for (int threads : {1, 4}) {
      ASSERT_OK_AND_ASSIGN(QueryResult fused,
                           engine->Query(sql, Opts(JitFusion::kOn, threads)));
      ASSERT_OK_AND_ASSIGN(QueryResult interp,
                           engine->Query(sql, Opts(JitFusion::kOff, threads)));
      EXPECT_TRUE(Fused(fused)) << fused.plan_description << " for " << sql;
      EXPECT_NE(fused.plan_description.find("[fused-bin-scan"),
                std::string::npos)
          << fused.plan_description;
      ExpectSameResults(fused, interp,
                        sql + " threads=" + std::to_string(threads));
    }
  }
}

TEST_F(FusionTest, RefFusedMatchesInterpreted) {
  EventGenOptions gen;
  gen.num_events = 2000;
  ASSERT_OK(WriteRefFile(Path("e.ref"), gen, /*cluster_events=*/128));
  RawEngine engine;
  ASSERT_OK(engine.RegisterRef("a", Path("e.ref")));
  if (!CompilerAvailable(engine)) GTEST_SKIP() << "no compiler";
  const std::vector<std::string> queries = {
      "SELECT MAX(pt), MIN(eta), COUNT(*) FROM a_muons WHERE pt > 10",
      "SELECT COUNT(*) FROM a_events WHERE runNumber > 2010",
  };
  for (const std::string& sql : queries) {
    for (int threads : {1, 4}) {
      ASSERT_OK_AND_ASSIGN(QueryResult fused,
                           engine.Query(sql, Opts(JitFusion::kOn, threads)));
      ASSERT_OK_AND_ASSIGN(QueryResult interp,
                           engine.Query(sql, Opts(JitFusion::kOff, threads)));
      EXPECT_TRUE(Fused(fused)) << fused.plan_description << " for " << sql;
      EXPECT_NE(fused.plan_description.find("[fused-ref-scan"),
                std::string::npos)
          << fused.plan_description;
      ExpectSameResults(fused, interp,
                        sql + " threads=" + std::to_string(threads));
    }
  }
}

// --- one kernel per shape, whatever the literal ------------------------------

/// Nine distinct col1 literals spanning empty to full selections.
std::vector<Datum> Col1Literals(const TableSpec& spec) {
  std::vector<Datum> out = {Datum::Int32(INT32_MIN), Datum::Int32(INT32_MAX)};
  for (double f : {0.0, 0.05, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    out.push_back(spec.SelectivityLiteral(1, f));
  }
  return out;
}

TEST_F(FusionTest, CsvLiteralSweepSharesOneKernel) {
  auto engine = CsvEngine();
  if (!CompilerAvailable(*engine)) GTEST_SKIP() << "no compiler";
  ExpectOneKernelForAllLiterals(
      *engine, "SELECT COUNT(*), MAX(col2), MIN(col0) FROM f WHERE col1 < ?",
      Singles(Col1Literals(spec_)));
  ExpectOneKernelForAllLiterals(*engine,
                                "SELECT col0, col4 FROM f WHERE col1 >= ?",
                                Singles(Col1Literals(spec_)));
}

TEST_F(FusionTest, BinLiteralSweepSharesOneKernel) {
  auto engine = BinEngine();
  if (!CompilerAvailable(*engine)) GTEST_SKIP() << "no compiler";
  ExpectOneKernelForAllLiterals(
      *engine, "SELECT COUNT(*), MAX(col2), MIN(col0) FROM f WHERE col1 < ?",
      Singles(Col1Literals(spec_)));
  ExpectOneKernelForAllLiterals(*engine,
                                "SELECT col0, col4 FROM f WHERE col1 >= ?",
                                Singles(Col1Literals(spec_)));
}

TEST_F(FusionTest, RefLiteralSweepSharesOneKernel) {
  EventGenOptions gen;
  gen.num_events = 2000;
  ASSERT_OK(WriteRefFile(Path("e.ref"), gen, /*cluster_events=*/128));
  RawEngine engine;
  ASSERT_OK(engine.RegisterRef("a", Path("e.ref")));
  if (!CompilerAvailable(engine)) GTEST_SKIP() << "no compiler";
  std::vector<Datum> pts;
  for (double pt : {-1.0, 0.0, 5.0, 10.0, 20.0, 35.5, 50.0, 1e6}) {
    pts.push_back(Datum::Float64(pt));
  }
  ExpectOneKernelForAllLiterals(
      engine, "SELECT MAX(pt), MIN(eta), COUNT(*) FROM a_muons WHERE pt > ?",
      Singles(pts));
}

/// Dense (shred-cache) predicates run in the AVX2 mask prepass; their
/// literals must reach both mask copies, alone and next to file predicates.
TEST_F(FusionTest, DenseInputLiteralSweepSharesOneKernel) {
  for (const bool csv : {true, false}) {
    SCOPED_TRACE(csv ? "csv" : "bin");
    auto engine = csv ? CsvEngine() : BinEngine();
    if (!CompilerAvailable(*engine)) GTEST_SKIP() << "no compiler";
    PlannerOptions warm = Opts(JitFusion::kOff, 1);
    warm.populate_shred_cache = true;
    ASSERT_OK(engine->Query("SELECT SUM(col4), SUM(col5) FROM f", warm)
                  .status());
    ASSERT_TRUE(engine->ShredCacheContainsFull("f", 4));
    ASSERT_TRUE(engine->ShredCacheContainsFull("f", 5));

    std::vector<Datum> col5;
    std::vector<Datum> col4;
    std::vector<std::vector<Datum>> mixed;
    for (double f : {0.0, 0.1, 0.25, 0.4, 0.5, 0.65, 0.8, 0.95, 1.0}) {
      col5.push_back(spec_.SelectivityLiteral(5, f));
      col4.push_back(spec_.SelectivityLiteral(4, f));
      mixed.push_back({spec_.SelectivityLiteral(5, f),
                       spec_.SelectivityLiteral(1, 1.0 - f)});
    }
    ExpectOneKernelForAllLiterals(
        *engine, "SELECT COUNT(*), MAX(col2) FROM f WHERE col5 < ?",
        Singles(col5));
    ExpectOneKernelForAllLiterals(
        *engine, "SELECT COUNT(*), MIN(col2) FROM f WHERE col4 >= ?",
        Singles(col4));
    ExpectOneKernelForAllLiterals(
        *engine,
        "SELECT COUNT(*), MAX(col2) FROM f WHERE col5 < ? AND col1 >= ?",
        mixed);
  }
}

/// Literal bits survive the trip through ctx->pred_literals unchanged: the
/// type extremes, signed zero, denormals, and a float64 literal one ulp
/// either side of a stored value, over file and dense inputs.
TEST_F(FusionTest, LiteralEdgesMatchInterpreted) {
  spec_.columns[1].min_value = -1000000000;
  spec_.columns[1].max_value = 1000000000;
  spec_.columns[3].min_value = -4000000000000000000ll;
  spec_.columns[3].max_value = 4000000000000000000ll;
  spec_.columns[4].min_value = -1000;
  spec_.columns[4].max_value = 1000;
  spec_.columns[6].type = DataType::kFloat32;
  spec_.columns[6].min_value = -1;
  spec_.columns[6].max_value = 1;
  for (const bool dense : {false, true}) {
    for (const bool csv : {true, false}) {
      SCOPED_TRACE(std::string(csv ? "csv" : "bin") +
                   (dense ? " dense" : " file"));
      auto engine = csv ? CsvEngine() : BinEngine();
      if (!CompilerAvailable(*engine)) GTEST_SKIP() << "no compiler";
      if (dense) {
        PlannerOptions warm = Opts(JitFusion::kOff, 1);
        warm.populate_shred_cache = true;
        ASSERT_OK(engine
                      ->Query("SELECT MAX(col1), MAX(col3), MAX(col4), "
                              "MAX(col6) FROM f",
                              warm)
                      .status());
        for (int col : {1, 3, 4, 6}) {
          ASSERT_TRUE(engine->ShredCacheContainsFull("f", col)) << col;
        }
      }

      ExpectOneKernelForAllLiterals(
          *engine, "SELECT COUNT(*), MAX(col2) FROM f WHERE col1 > ?",
          Singles({Datum::Int32(INT32_MIN), Datum::Int32(INT32_MIN + 1),
                   Datum::Int32(-1), Datum::Int32(0), Datum::Int32(1),
                   Datum::Int32(INT32_MAX - 1), Datum::Int32(INT32_MAX),
                   spec_.SelectivityLiteral(1, 0.5)}));
      ExpectOneKernelForAllLiterals(
          *engine, "SELECT COUNT(*), MAX(col2) FROM f WHERE col3 >= ?",
          Singles({Datum::Int64(INT64_MIN), Datum::Int64(INT64_MIN + 1),
                   Datum::Int64(-1), Datum::Int64(0), Datum::Int64(1),
                   Datum::Int64(INT32_MIN), Datum::Int64(INT64_MAX - 1),
                   Datum::Int64(INT64_MAX)}));

      ASSERT_OK_AND_ASSIGN(
          QueryResult max_result,
          engine->Query("SELECT MAX(col4) FROM f", Opts(JitFusion::kOff, 1)));
      ASSERT_OK_AND_ASSIGN(Datum stored, max_result.Scalar());
      const double v = stored.float64_value();
      const double up = std::nextafter(v, INFINITY);
      const double down = std::nextafter(v, -INFINITY);
      const double denorm = std::numeric_limits<double>::denorm_min();
      std::vector<std::string> counts;
      ExpectOneKernelForAllLiterals(
          *engine, "SELECT COUNT(*), MIN(col2) FROM f WHERE col4 >= ?",
          Singles({Datum::Float64(v), Datum::Float64(up),
                   Datum::Float64(down), Datum::Float64(-0.0),
                   Datum::Float64(0.0), Datum::Float64(denorm),
                   Datum::Float64(-denorm),
                   Datum::Float64(std::numeric_limits<double>::lowest())}),
          &counts);
      ASSERT_EQ(counts.size(), 8u);
      // The largest stored value passes `>= v` and `>= down` but not
      // `>= up`: the literal was not rounded on its way into the kernel.
      EXPECT_NE(counts[0], "0");
      EXPECT_EQ(counts[1], "0");
      EXPECT_EQ(counts[2], counts[0]);

      const float fdenorm = std::numeric_limits<float>::denorm_min();
      ExpectOneKernelForAllLiterals(
          *engine, "SELECT COUNT(*), MAX(col2) FROM f WHERE col6 < ?",
          Singles({Datum::Float32(-0.0f), Datum::Float32(0.0f),
                   Datum::Float32(fdenorm), Datum::Float32(-fdenorm),
                   Datum::Float32(1e-40f), Datum::Float32(0.5f),
                   Datum::Float32(std::nextafter(0.5f, 1.0f)),
                   Datum::Float32(std::numeric_limits<float>::max())}));
    }
  }
}

TEST_F(FusionTest, PreparedReexecutionCompilesOnce) {
  auto engine = BinEngine();
  if (!CompilerAvailable(*engine)) GTEST_SKIP() << "no compiler";
  const std::string sql = "SELECT COUNT(*), SUM(col3) FROM f WHERE col1 < ?";
  std::vector<Datum> literals;
  std::vector<QueryResult> interpreted;
  for (double f : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    literals.push_back(spec_.SelectivityLiteral(1, f));
    ASSERT_OK_AND_ASSIGN(
        QueryResult r,
        engine->Query("SELECT COUNT(*), SUM(col3) FROM f WHERE col1 < " +
                          literals.back().ToString(),
                      Opts(JitFusion::kOff, 1)));
    interpreted.push_back(std::move(r));
  }

  auto session = engine->OpenSession(Opts(JitFusion::kOn, 1));
  ASSERT_OK_AND_ASSIGN(PreparedQuery prepared, session->Prepare(sql));
  const JitCacheStats before = engine->Stats().jit_cache;
  int64_t entries_after_first = -1;
  for (size_t i = 0; i < literals.size(); ++i) {
    ASSERT_OK_AND_ASSIGN(QueryResult fused, prepared.Execute({literals[i]}));
    EXPECT_TRUE(Fused(fused)) << fused.plan_description;
    ExpectSameResults(fused, interpreted[i], literals[i].ToString());
    if (i == 0) {
      entries_after_first = engine->Stats().jit_cache.entries;
      continue;
    }
    // Re-executions reuse the first execution's kernel.
    EXPECT_EQ(fused.compile_seconds, 0.0) << literals[i].ToString();
    EXPECT_EQ(engine->Stats().jit_cache.entries, entries_after_first)
        << literals[i].ToString();
  }
  EXPECT_LE(engine->Stats().jit_cache.compiles - before.compiles, 1);
}

// --- float aggregates: fuse only where merging is exact ----------------------

TEST_F(FusionTest, FloatAggsFuseOnlySingleThreaded) {
  auto engine = BinEngine();
  if (!CompilerAvailable(*engine)) GTEST_SKIP() << "no compiler";
  for (const std::string& sql : FloatAggQueries()) {
    ASSERT_OK_AND_ASSIGN(QueryResult serial,
                         engine->Query(sql, Opts(JitFusion::kOn, 1)));
    EXPECT_TRUE(Fused(serial)) << serial.plan_description << " for " << sql;
    // Parallel float SUM/AVG would reassociate additions; the planner must
    // keep those interpreted (morsel order preserves the serial result).
    ASSERT_OK_AND_ASSIGN(QueryResult parallel,
                         engine->Query(sql, Opts(JitFusion::kOn, 4)));
    EXPECT_FALSE(Fused(parallel)) << parallel.plan_description;
    ASSERT_OK_AND_ASSIGN(QueryResult interp,
                         engine->Query(sql, Opts(JitFusion::kOff, 1)));
    ExpectSameResults(serial, interp, sql + " serial");
    ExpectSameResults(parallel, interp, sql + " parallel");
  }
}

// --- kernel-tier sweep -------------------------------------------------------

TEST_F(FusionTest, FusedResultsIdenticalAcrossKernelTiers) {
  struct TierRestore {
    ~TierRestore() { ResetKernelTierFromEnv(); }
  } restore;
  auto engine = BinEngine();
  if (!CompilerAvailable(*engine)) GTEST_SKIP() << "no compiler";
  const std::string sql = "SELECT COUNT(*), MAX(col2), SUM(col3) FROM f "
                          "WHERE col1 < " +
                          spec_.SelectivityLiteral(1, 0.4).ToString();
  ASSERT_OK_AND_ASSIGN(QueryResult baseline,
                       engine->Query(sql, Opts(JitFusion::kOff, 1)));
  for (int t = 0; t <= static_cast<int>(MaxSupportedKernelTier()); ++t) {
    SetKernelTier(static_cast<KernelTier>(t));
    for (int threads : {1, 4}) {
      ASSERT_OK_AND_ASSIGN(QueryResult fused,
                           engine->Query(sql, Opts(JitFusion::kOn, threads)));
      EXPECT_TRUE(Fused(fused)) << fused.plan_description;
      ExpectSameResults(fused, baseline,
                        "tier=" + std::to_string(t) +
                            " threads=" + std::to_string(threads));
    }
  }
}

// --- eligibility & fallback --------------------------------------------------

TEST_F(FusionTest, FallbackFormatsRunInterpretedTransparently) {
  ASSERT_OK(WriteJsonlFile(spec_, Path("f.jsonl")));
  ASSERT_OK(WriteCsvGzTable(spec_, Path("f.csv.gz")));
  RawEngine engine;
  ASSERT_OK(engine.RegisterJsonl("j", Path("f.jsonl"), spec_.ToSchema()));
  ASSERT_OK(engine.RegisterCsvGz("z", Path("f.csv.gz"), spec_.ToSchema()));
  const std::string lit = spec_.SelectivityLiteral(1, 0.4).ToString();
  for (const std::string table : {"j", "z"}) {
    const std::string sql =
        "SELECT COUNT(*), MAX(col2) FROM " + table + " WHERE col1 < " + lit;
    // Same query, fusion on vs. off: the format has no fusion plug-in, so
    // both runs are interpreted and agree — fusion never breaks a format.
    ASSERT_OK_AND_ASSIGN(QueryResult on,
                         engine.Query(sql, Opts(JitFusion::kOn, 1)));
    ASSERT_OK_AND_ASSIGN(QueryResult off,
                         engine.Query(sql, Opts(JitFusion::kOff, 1)));
    EXPECT_FALSE(Fused(on)) << on.plan_description;
    ExpectSameResults(on, off, sql);
  }
}

TEST_F(FusionTest, IneligibleShapesStayInterpreted) {
  auto engine = BinEngine();
  if (!CompilerAvailable(*engine)) GTEST_SKIP() << "no compiler";
  const std::string lit = spec_.SelectivityLiteral(1, 0.4).ToString();
  // GROUP BY is out of scope for the fused tier.
  ASSERT_OK_AND_ASSIGN(
      QueryResult grouped,
      engine->Query("SELECT col2, COUNT(*) FROM f WHERE col1 < " + lit +
                        " GROUP BY col2",
                    Opts(JitFusion::kOn, 1)));
  EXPECT_FALSE(Fused(grouped)) << grouped.plan_description;
  // kOff wins over an otherwise perfectly fusable query.
  ASSERT_OK_AND_ASSIGN(
      QueryResult off,
      engine->Query("SELECT COUNT(*) FROM f WHERE col1 < " + lit,
                    Opts(JitFusion::kOff, 1)));
  EXPECT_FALSE(Fused(off)) << off.plan_description;
}

// --- dense (shred-cache) inputs ----------------------------------------------

TEST_F(FusionTest, CachedColumnsFeedFusedPipelinesAsDenseInputs) {
  auto engine = CsvEngine();
  if (!CompilerAvailable(*engine)) GTEST_SKIP() << "no compiler";
  // Warm col5 into the shred cache with an interpreted full-column scan.
  PlannerOptions warm = Opts(JitFusion::kOff, 1);
  warm.populate_shred_cache = true;
  ASSERT_OK_AND_ASSIGN(QueryResult warmed,
                       engine->Query("SELECT SUM(col5) FROM f", warm));
  ASSERT_TRUE(engine->ShredCacheContainsFull("f", 5));

  // col5 now arrives dense while col1 is still parsed from the file: the
  // fused kernel mixes both input kinds.
  const std::string sql = "SELECT SUM(col5), MAX(col5) FROM f WHERE col1 < " +
                          spec_.SelectivityLiteral(1, 0.4).ToString();
  ASSERT_OK_AND_ASSIGN(QueryResult fused,
                       engine->Query(sql, Opts(JitFusion::kOn, 1)));
  EXPECT_TRUE(Fused(fused)) << fused.plan_description;
  PlannerOptions no_cache = Opts(JitFusion::kOff, 1);
  no_cache.use_shred_cache = false;
  ASSERT_OK_AND_ASSIGN(QueryResult interp, engine->Query(sql, no_cache));
  ExpectSameResults(fused, interp, sql);

  // Once every needed column is cached there is no file loop left to fuse;
  // the plan falls back to (cheap, in-memory) interpreted operators.
  ASSERT_OK_AND_ASSIGN(
      QueryResult all_cached,
      engine->Query("SELECT SUM(col5) FROM f WHERE col5 >= 0",
                    Opts(JitFusion::kOn, 1)));
  EXPECT_FALSE(Fused(all_cached)) << all_cached.plan_description;
  ASSERT_OK_AND_ASSIGN(Datum full_sum, warmed.Scalar());
  ASSERT_OK_AND_ASSIGN(Datum cached_sum, all_cached.Scalar());
  EXPECT_EQ(full_sum.ToString(), cached_sum.ToString());
}

// --- observability -----------------------------------------------------------

TEST_F(FusionTest, StatsCountFusedAndInterpretedPlans) {
  auto engine = BinEngine();
  if (!CompilerAvailable(*engine)) GTEST_SKIP() << "no compiler";
  EngineStats before = engine->Stats();
  EXPECT_EQ(before.plans_fused, 0);

  const std::string lit = spec_.SelectivityLiteral(1, 0.4).ToString();
  ASSERT_OK_AND_ASSIGN(QueryResult fused,
                       engine->Query("SELECT COUNT(*) FROM f WHERE col1 < " +
                                         lit,
                                     Opts(JitFusion::kOn, 1)));
  ASSERT_TRUE(Fused(fused));
  EngineStats after = engine->Stats();
  EXPECT_EQ(after.plans_fused, 1);
  EXPECT_GE(after.jit_cache.compiles, 1);
  EXPECT_GT(after.jit_cache.total_compile_seconds, 0.0);
  // The first execution pays the compile; it is charged to compile time, not
  // execution time, so benchmarks can subtract it.
  EXPECT_GT(fused.compile_seconds, 0.0);

  ASSERT_OK_AND_ASSIGN(
      QueryResult grouped,
      engine->Query("SELECT col2, COUNT(*) FROM f GROUP BY col2",
                    Opts(JitFusion::kOn, 1)));
  EXPECT_FALSE(Fused(grouped));
  EXPECT_GE(engine->Stats().plans_interpreted, 1);

  // Re-running the same shape hits the template cache: no new compile.
  const int64_t compiles = engine->Stats().jit_cache.compiles;
  ASSERT_OK_AND_ASSIGN(QueryResult again,
                       engine->Query("SELECT COUNT(*) FROM f WHERE col1 < " +
                                         lit,
                                     Opts(JitFusion::kOn, 1)));
  ASSERT_TRUE(Fused(again));
  EXPECT_EQ(engine->Stats().jit_cache.compiles, compiles);
  EXPECT_EQ(engine->Stats().plans_fused, 2);
}

}  // namespace
}  // namespace raw
