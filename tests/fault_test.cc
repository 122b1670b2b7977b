// Hostile-input hardening suite: the deterministic I/O fault-injection
// harness, the fault matrix (fault kind × format driver × thread count —
// every injected fault must surface as a typed Status, never a crash or a
// silent wrong answer), malformed-row policies (skip / null-fill) checked
// against ground truth at 1 and 4 threads, staleness regressions
// (truncate-under-warm-pmap, mutate-under-claim, queries racing a changing
// file, per-query snapshots freeing old mappings), and the serving tier's
// typed-error / retry-reconnect behaviour.

#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "common/mmap_file.h"
#include "common/scan_health.h"
#include "csv/positional_map.h"
#include "engine/catalog.h"
#include "engine/raw_engine.h"
#include "eventsim/event_generator.h"
#include "scan/insitu_csv_scan.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/stats_json.h"
#include "serve/wire.h"
#include "tests/test_util.h"
#include "workload/data_gen.h"

namespace raw {
namespace {

// ---------------------------------------------------------------------------
// FaultInjector: spec grammar and firing semantics
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, ParseSpecAcceptsTheDocumentedGrammar) {
  FaultSpec spec;
  std::string error;
  ASSERT_TRUE(FaultInjector::ParseSpec("eio", &spec, &error)) << error;
  EXPECT_EQ(FaultKind::kEio, spec.kind);
  EXPECT_TRUE(spec.path_substr.empty());

  ASSERT_TRUE(FaultInjector::ParseSpec(
      "truncate:path=lineitem.csv,offset=4096,nth=2,max=3", &spec, &error))
      << error;
  EXPECT_EQ(FaultKind::kTruncate, spec.kind);
  EXPECT_EQ("lineitem.csv", spec.path_substr);
  EXPECT_EQ(4096, spec.offset);
  EXPECT_EQ(2, spec.nth);
  EXPECT_EQ(3, spec.max_fires);

  ASSERT_TRUE(
      FaultInjector::ParseSpec("bitflip:sample=0.25,seed=7", &spec, &error))
      << error;
  EXPECT_EQ(FaultKind::kBitFlip, spec.kind);
  EXPECT_DOUBLE_EQ(0.25, spec.sample);
  EXPECT_EQ(7u, spec.seed);

  ASSERT_TRUE(FaultInjector::ParseSpec("short", &spec, &error)) << error;
  EXPECT_EQ(FaultKind::kShortRead, spec.kind);
}

TEST(FaultInjectorTest, ParseSpecRejectsMalformedInput) {
  FaultSpec spec;
  std::string error;
  EXPECT_FALSE(FaultInjector::ParseSpec("gremlins", &spec, &error));
  EXPECT_FALSE(FaultInjector::ParseSpec("eio:bogus=1", &spec, &error));
  EXPECT_FALSE(FaultInjector::ParseSpec("eio:nth", &spec, &error));
  EXPECT_FALSE(FaultInjector::ParseSpec("eio:nth=0", &spec, &error));
  EXPECT_FALSE(FaultInjector::ParseSpec("eio:offset=-4", &spec, &error));
  EXPECT_FALSE(FaultInjector::ParseSpec("truncate:sample=2", &spec, &error));
  EXPECT_FALSE(FaultInjector::ParseSpec("truncate:sample=x", &spec, &error));
}

TEST(FaultInjectorTest, CheckMatchesPathCountsNthAndCapsFires) {
  auto& injector = FaultInjector::Global();
  const int64_t fired_before = injector.fired();
  FaultSpec spec;
  spec.kind = FaultKind::kEio;
  spec.path_substr = "alpha";
  spec.nth = 2;
  spec.max_fires = 1;
  injector.Arm(spec);
  int64_t off = 0;
  EXPECT_EQ(FaultKind::kNone, injector.Check("beta.csv", 100, &off));
  EXPECT_EQ(FaultKind::kNone, injector.Check("alpha.csv", 100, &off));
  EXPECT_EQ(FaultKind::kEio, injector.Check("alpha.csv", 100, &off));
  // max=1: eligible again but the fire budget is spent.
  EXPECT_EQ(FaultKind::kNone, injector.Check("alpha.csv", 100, &off));
  EXPECT_EQ(fired_before + 1, injector.fired());
  injector.Disarm();
  EXPECT_FALSE(injector.enabled());
  EXPECT_EQ(FaultKind::kNone, injector.Check("alpha.csv", 100, &off));
}

TEST(FaultInjectorTest, OffsetDefaultsToMidpointAndClampsToSize) {
  auto& injector = FaultInjector::Global();
  FaultSpec spec;
  spec.kind = FaultKind::kTruncate;
  injector.Arm(spec);
  int64_t off = -1;
  EXPECT_EQ(FaultKind::kTruncate, injector.Check("f", 100, &off));
  EXPECT_EQ(50, off);
  spec.offset = 5000;
  injector.Arm(spec);
  EXPECT_EQ(FaultKind::kTruncate, injector.Check("f", 100, &off));
  EXPECT_EQ(99, off);
  injector.Disarm();
}

TEST(FaultInjectorTest, ZeroSampleNeverFires) {
  auto& injector = FaultInjector::Global();
  FaultSpec spec;
  spec.kind = FaultKind::kBitFlip;
  spec.sample = 0.0;
  spec.seed = 1;
  injector.Arm(spec);
  int64_t off = 0;
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(FaultKind::kNone, injector.Check("f", 100, &off));
  }
  injector.Disarm();
}

// ---------------------------------------------------------------------------
// Fault matrix: every fault kind on every format driver is a typed error
// ---------------------------------------------------------------------------

class FaultMatrixTest : public testing::TempDirTest {
 protected:
  void SetUp() override {
    testing::TempDirTest::SetUp();
    FaultInjector::Global().Disarm();
    spec_ = TableSpec::UniformInt32("mx", 6, 400, /*seed=*/5);
    ASSERT_OK(WriteCsvFile(spec_, Path("mx.csv")));
    ASSERT_OK(WriteBinaryFile(spec_, Path("mx.bin")));
    ASSERT_OK(WriteJsonlFile(spec_, Path("mx.jsonl")));
    ASSERT_OK(WriteCsvGzTable(spec_, Path("mgz.csv.gz"), /*block_bytes=*/2048));
    EventGenOptions ev;
    ev.num_events = 120;
    ASSERT_OK(WriteRefFile(Path("mx.ref"), ev, /*cluster_rows=*/32));
  }

  void TearDown() override { FaultInjector::Global().Disarm(); }

  /// Byte offset of the first digit at/after `anchor` in `path`'s contents
  /// (targets the fault at a byte a scan is guaranteed to interpret).
  int64_t DigitOffsetAfter(const std::string& path, const std::string& anchor,
                           int skip_commas = 0) {
    auto contents = ReadFileToString(path);
    EXPECT_OK(contents.status());
    size_t pos = contents->find(anchor);
    EXPECT_NE(std::string::npos, pos) << anchor << " not in " << path;
    pos += anchor.size();
    for (int c = 0; c < skip_commas; ++c) {
      pos = contents->find(',', pos);
      EXPECT_NE(std::string::npos, pos);
      ++pos;
    }
    while (pos < contents->size() && !std::isdigit((*contents)[pos])) ++pos;
    return static_cast<int64_t>(pos);
  }

  /// Offset `back` bytes before EOF (targets a gzip member's CRC trailer).
  int64_t TailOffset(const std::string& path, int64_t back) {
    auto size = FileSize(path);
    EXPECT_OK(size.status());
    return static_cast<int64_t>(*size) - back;
  }

  /// Offset cutting a file a few bytes into its second row/line.
  int64_t MidSecondRowOffset(const std::string& path, int64_t extra) {
    auto contents = ReadFileToString(path);
    EXPECT_OK(contents.status());
    size_t nl = contents->find('\n');
    EXPECT_NE(std::string::npos, nl);
    return static_cast<int64_t>(nl) + extra;
  }

  TableSpec spec_;
};

TEST_F(FaultMatrixTest, EveryFaultKindOnEveryDriverYieldsATypedError) {
  struct Case {
    const char* label;
    FaultKind kind;
    const char* file;      // path substring the fault matches
    int64_t offset;        // -1 = injector default
    bool fails_at_register;  // REF opens its file at registration
  };
  const std::string csv = Path("mx.csv");
  const std::string bin = Path("mx.bin");
  const std::string jsonl = Path("mx.jsonl");
  const std::string gz = Path("mgz.csv.gz");
  const std::string ref = Path("mx.ref");
  const std::vector<Case> cases = {
      {"csv/eio", FaultKind::kEio, "mx.csv", -1, false},
      {"bin/eio", FaultKind::kEio, "mx.bin", -1, false},
      {"jsonl/eio", FaultKind::kEio, "mx.jsonl", -1, false},
      {"gz/eio", FaultKind::kEio, "mgz.csv.gz", -1, false},
      {"ref/eio", FaultKind::kEio, "mx.ref", -1, true},
      // Truncation offsets are aimed mid-row / mid-record so the cut is
      // structurally visible (a cut exactly on a row boundary is a valid
      // shorter file — CSV cannot distinguish that from intent).
      {"csv/truncate", FaultKind::kTruncate, "mx.csv",
       MidSecondRowOffset(csv, 3), false},
      {"bin/truncate", FaultKind::kTruncate, "mx.bin", 13, false},
      {"jsonl/truncate", FaultKind::kTruncate, "mx.jsonl",
       MidSecondRowOffset(jsonl, 5), false},
      {"gz/truncate", FaultKind::kTruncate, "mgz.csv.gz", TailOffset(gz, 7),
       false},
      {"ref/truncate", FaultKind::kTruncate, "mx.ref", -1, true},
      // Bit flips target a byte the query interprets: a digit of a scanned
      // column (XOR 0x40 turns digits into letters), the compressed stream
      // (CRC/inflate failure), the REF magic. Fixed-width binary data has no
      // redundancy to detect a flipped payload bit — excluded by design.
      {"csv/bitflip", FaultKind::kBitFlip, "mx.csv",
       DigitOffsetAfter(csv, "", /*skip_commas=*/5), false},
      {"jsonl/bitflip", FaultKind::kBitFlip, "mx.jsonl",
       DigitOffsetAfter(jsonl, "\"col5\":"), false},
      {"gz/bitflip", FaultKind::kBitFlip, "mgz.csv.gz", -1, false},
      {"ref/bitflip", FaultKind::kBitFlip, "mx.ref", 0, true},
  };

  auto& injector = FaultInjector::Global();
  for (const Case& c : cases) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(std::string(c.label) + " x" + std::to_string(threads));
      FaultSpec spec;
      spec.kind = c.kind;
      spec.path_substr = c.file;
      spec.offset = c.offset;
      injector.Arm(spec);
      const int64_t fired_before = injector.fired();

      RawEngine engine;
      Status failure;
      std::string sql = "SELECT MAX(col5) FROM t WHERE col1 < 900000000";
      if (std::strstr(c.file, ".ref") != nullptr) {
        failure = engine.RegisterRef("ev", Path("mx.ref"));
        sql = "SELECT COUNT(*) FROM ev_events";
      } else if (std::strstr(c.file, ".bin") != nullptr) {
        ASSERT_OK(engine.RegisterBinary("t", bin, spec_.ToSchema()));
      } else if (std::strstr(c.file, ".jsonl") != nullptr) {
        ASSERT_OK(engine.RegisterJsonl("t", jsonl, spec_.ToSchema()));
      } else if (std::strstr(c.file, ".csv.gz") != nullptr) {
        ASSERT_OK(engine.RegisterCsvGz("t", gz, spec_.ToSchema()));
      } else {
        ASSERT_OK(engine.RegisterCsv("t", csv, spec_.ToSchema()));
      }

      if (failure.ok()) {
        PlannerOptions options;
        options.access_path = AccessPathKind::kInSitu;
        options.num_threads = threads;
        auto result = engine.Query(sql, options);
        failure = result.status();
      } else {
        EXPECT_TRUE(c.fails_at_register);
      }
      injector.Disarm();

      ASSERT_FALSE(failure.ok()) << "fault was swallowed";
      EXPECT_TRUE(failure.code() == StatusCode::kIOError ||
                  failure.code() == StatusCode::kParseError ||
                  failure.code() == StatusCode::kDataCorruption)
          << failure.ToString();
      EXPECT_GT(injector.fired(), fired_before) << "fault never fired";
      EXPECT_GT(engine.Stats().faults_injected, 0);
    }
  }
}

// ---------------------------------------------------------------------------
// Malformed-row policies: deterministic, thread-count-invariant
// ---------------------------------------------------------------------------

class MalformedRowTest : public testing::TempDirTest {
 protected:
  void SetUp() override {
    testing::TempDirTest::SetUp();
    FaultInjector::Global().Disarm();
  }

  static int64_t Scalar(RawEngine& engine, const std::string& sql,
                        const PlannerOptions& options) {
    auto result = engine.Query(sql, options);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    if (!result.ok()) return INT64_MIN;
    auto datum = result->Scalar();
    EXPECT_TRUE(datum.ok()) << sql;
    return datum.ok() ? *datum->AsInt64() : INT64_MIN;
  }
};

TEST_F(MalformedRowTest, CsvSkipAndNullFillMatchGroundTruthAtAnyThreadCount) {
  // 240 rows of 3 int columns; every 40th row carries a non-numeric col2.
  std::string text;
  int64_t good_sum = 0;
  int64_t bad_rows = 0;
  for (int i = 0; i < 240; ++i) {
    const bool bad = i % 40 == 20;
    text += std::to_string(i) + "," + std::to_string(i % 7) + ",";
    if (bad) {
      text += "oops\n";
      ++bad_rows;
    } else {
      text += std::to_string(3 * i) + "\n";
      good_sum += 3 * i;
    }
  }
  ASSERT_OK(WriteStringToFile(Path("m.csv"), text));
  const Schema schema{{"col0", DataType::kInt32},
                      {"col1", DataType::kInt32},
                      {"col2", DataType::kInt32}};

  // Strict default: the malformed value is a typed parse error.
  {
    RawEngine engine;
    ASSERT_OK(engine.RegisterCsv("t", Path("m.csv"), schema));
    PlannerOptions strict;
    strict.access_path = AccessPathKind::kInSitu;
    auto result =
        engine.Query("SELECT SUM(col2) FROM t WHERE col1 < 7", strict);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(StatusCode::kParseError, result.status().code());
  }

  for (auto policy :
       {MalformedRowPolicy::kSkip, MalformedRowPolicy::kNullFill}) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(std::string(MalformedRowPolicyToString(policy)) + " x" +
                   std::to_string(threads));
      RawEngine engine;
      ASSERT_OK(engine.RegisterCsv("t", Path("m.csv"), schema));
      PlannerOptions options;
      options.access_path = AccessPathKind::kInSitu;
      options.num_threads = threads;
      options.malformed_row_policy = policy;

      // Both policies exclude the damaged values from the sum (skip drops
      // the rows; null-fill zeroes them).
      EXPECT_EQ(good_sum,
                Scalar(engine, "SELECT SUM(col2) FROM t WHERE col1 < 7",
                       options));
      // Skip drops the rows from COUNT; null-fill keeps them (col2 = 0
      // still satisfies the predicate).
      const int64_t expected_count =
          policy == MalformedRowPolicy::kSkip ? 240 - bad_rows : 240;
      EXPECT_EQ(expected_count,
                Scalar(engine,
                       "SELECT COUNT(*) FROM t WHERE col2 < 1000000000",
                       options));

      ASSERT_OK_AND_ASSIGN(
          QueryResult result,
          engine.Query("SELECT SUM(col2) FROM t WHERE col1 < 7", options));
      if (policy == MalformedRowPolicy::kSkip) {
        EXPECT_EQ(bad_rows, result.rows_skipped);
        EXPECT_EQ(0, result.rows_nulled);
        EXPECT_GT(engine.Stats().rows_skipped, 0);
      } else {
        EXPECT_EQ(bad_rows, result.rows_nulled);
        EXPECT_EQ(0, result.rows_skipped);
        EXPECT_GT(engine.Stats().rows_nulled, 0);
      }
      // Tolerant plans announce themselves and never run fused/JIT paths.
      EXPECT_NE(std::string::npos,
                result.plan_description.find("[malformed-rows="))
          << result.plan_description;
      EXPECT_EQ(0, engine.Stats().plans_fused);
    }
  }
}

TEST_F(MalformedRowTest, JsonlSkipAndNullFillSurviveStructuralDamage) {
  // 100 lines; every 20th is not JSON at all, plus one type-mismatched
  // value (valid JSON, non-numeric string in an int column).
  std::string text;
  int64_t good_sum = 0;
  int64_t bad_lines = 0;
  for (int i = 0; i < 100; ++i) {
    if (i % 20 == 10) {
      text += "{oops not json\n";
      ++bad_lines;
    } else if (i == 55) {
      text += "{\"a\": 55, \"b\": \"zap\"}\n";
      ++bad_lines;
    } else {
      text += "{\"a\": " + std::to_string(i) + ", \"b\": " +
              std::to_string(2 * i) + "}\n";
      good_sum += 2 * i;
    }
  }
  ASSERT_OK(WriteStringToFile(Path("m.jsonl"), text));
  const Schema schema{{"a", DataType::kInt32}, {"b", DataType::kInt32}};

  {
    RawEngine engine;
    ASSERT_OK(engine.RegisterJsonl("t", Path("m.jsonl"), schema));
    PlannerOptions strict;
    strict.access_path = AccessPathKind::kInSitu;
    auto result = engine.Query("SELECT SUM(b) FROM t WHERE a < 1000", strict);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(StatusCode::kParseError, result.status().code());
  }

  for (auto policy :
       {MalformedRowPolicy::kSkip, MalformedRowPolicy::kNullFill}) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(std::string(MalformedRowPolicyToString(policy)) + " x" +
                   std::to_string(threads));
      RawEngine engine;
      ASSERT_OK(engine.RegisterJsonl("t", Path("m.jsonl"), schema));
      PlannerOptions options;
      options.access_path = AccessPathKind::kInSitu;
      options.num_threads = threads;
      options.malformed_row_policy = policy;

      EXPECT_EQ(good_sum,
                Scalar(engine, "SELECT SUM(b) FROM t WHERE a < 1000",
                       options));
      const int64_t expected_count =
          policy == MalformedRowPolicy::kSkip ? 100 - bad_lines : 100;
      EXPECT_EQ(expected_count,
                Scalar(engine, "SELECT COUNT(*) FROM t WHERE b < 1000",
                       options));

      ASSERT_OK_AND_ASSIGN(
          QueryResult result,
          engine.Query("SELECT SUM(b) FROM t WHERE a < 1000", options));
      if (policy == MalformedRowPolicy::kSkip) {
        EXPECT_EQ(bad_lines, result.rows_skipped);
      } else {
        EXPECT_EQ(bad_lines, result.rows_nulled);
      }
    }
  }
}

TEST_F(MalformedRowTest, EngineStatsJsonCarriesTheRobustnessCounters) {
  std::string text = "1,2\n3,x\n5,6\n";
  ASSERT_OK(WriteStringToFile(Path("j.csv"), text));
  const Schema schema{{"a", DataType::kInt32}, {"b", DataType::kInt32}};
  RawEngine engine;
  ASSERT_OK(engine.RegisterCsv("t", Path("j.csv"), schema));
  PlannerOptions options;
  options.access_path = AccessPathKind::kInSitu;
  options.malformed_row_policy = MalformedRowPolicy::kSkip;
  ASSERT_OK_AND_ASSIGN(QueryResult result,
                       engine.Query("SELECT SUM(b) FROM t WHERE b < 100",
                                    options));
  EXPECT_EQ(1, result.rows_skipped);
  const std::string json = serve::EngineStatsJson(engine.Stats());
  EXPECT_NE(std::string::npos, json.find("\"robustness\"")) << json;
  EXPECT_NE(std::string::npos, json.find("\"rows_skipped\":1")) << json;
}

TEST_F(MalformedRowTest, LimitOverflowIsATypedParseError) {
  ASSERT_OK(WriteStringToFile(Path("l.csv"), "1\n2\n3\n"));
  RawEngine engine;
  ASSERT_OK(
      engine.RegisterCsv("t", Path("l.csv"), Schema{{"a", DataType::kInt32}}));
  auto spec =
      engine.ParseSql("SELECT COUNT(*) FROM t LIMIT 99999999999999999999");
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(StatusCode::kParseError, spec.status().code());
  EXPECT_NE(std::string::npos, spec.status().message().find("LIMIT"))
      << spec.status().ToString();
  ASSERT_OK_AND_ASSIGN(QueryResult ok,
                       engine.Query("SELECT COUNT(*) FROM t LIMIT 2"));
  (void)ok;
}

// ---------------------------------------------------------------------------
// Staleness regressions: maps must never outlive the bytes they index
// ---------------------------------------------------------------------------

class StalenessTest : public testing::TempDirTest {
 protected:
  void SetUp() override {
    testing::TempDirTest::SetUp();
    FaultInjector::Global().Disarm();
  }
};

TEST_F(StalenessTest, PositionalMapBeyondEofIsATypedCorruptionError) {
  // A scan driven by a map whose offsets outlive the file must fail typed,
  // not read out of bounds (the exact state a mid-query truncation leaves).
  const std::string data = "11,22\n33,44\n";
  PositionalMap pmap = PositionalMap::TrackingColumns(2, {0});
  uint64_t pos0 = 0;
  pmap.AppendRow(0, &pos0);
  uint64_t pos1 = 6;
  pmap.AppendRow(6, &pos1);
  uint64_t beyond = 999;  // beyond the 12-byte file
  pmap.AppendRow(999, &beyond);

  ScanHealth health;
  CsvScanSpec spec;
  spec.file_schema = Schema{{"a", DataType::kInt32}, {"b", DataType::kInt32}};
  spec.outputs = {0, 1};
  spec.use_pmap = &pmap;
  spec.anchor_column = 0;
  spec.health = &health;
  InsituCsvScanOperator op(data.data(), data.size(), spec);
  ASSERT_OK(op.Open());
  auto batch = op.Next();
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(StatusCode::kDataCorruption, batch.status().code());
  EXPECT_EQ(1, health.io_faults.load());
}

TEST_F(StalenessTest, TruncationUnderAWarmPmapIsDetectedNotCrashed) {
  TableSpec spec = TableSpec::UniformInt32("w", 6, 200, /*seed=*/9);
  const std::string path = Path("w.csv");
  ASSERT_OK(WriteCsvFile(spec, path));
  RawEngine engine;
  ASSERT_OK(engine.RegisterCsv("t", path, spec.ToSchema()));
  PlannerOptions options;
  options.access_path = AccessPathKind::kInSitu;

  const std::string sql = "SELECT MAX(col5) FROM t WHERE col1 < 900000000";
  ASSERT_OK(engine.Query(sql, options).status());
  ASSERT_OK_AND_ASSIGN(auto pmap, engine.PositionalMapSnapshot("t"));
  ASSERT_NE(nullptr, pmap) << "warm-up query did not publish a map";

  // Cut the file mid-row: the stale map is dropped (version bump) and the
  // rebuilding scan hits the ragged tail — a typed error either way.
  ASSERT_OK_AND_ASSIGN(std::string contents, ReadFileToString(path));
  const size_t cut = contents.find('\n', contents.size() / 2) + 3;
  ASSERT_EQ(0, ::truncate(path.c_str(), static_cast<off_t>(cut)));

  auto result = engine.Query(sql, options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().code() == StatusCode::kParseError ||
              result.status().code() == StatusCode::kDataCorruption)
      << result.status().ToString();
  ASSERT_OK_AND_ASSIGN(auto stale, engine.PositionalMapSnapshot("t"));
  EXPECT_EQ(nullptr, stale) << "stale map survived the truncation";
}

TEST_F(StalenessTest, PmapBuiltUnderAMutatedClaimIsDropped) {
  const std::string path = Path("c.csv");
  ASSERT_OK(WriteStringToFile(path, "1,2\n3,4\n"));
  const Schema schema{{"a", DataType::kInt32}, {"b", DataType::kInt32}};
  Catalog catalog;
  ASSERT_OK(catalog.RegisterCsv("t", path, schema));
  ASSERT_OK_AND_ASSIGN(TableEntry * entry, catalog.Get("t"));
  ASSERT_OK(entry->EnsureOpen());

  // A scan claims the build, the file changes mid-claim, the scan finishes:
  // the publication must be refused — the map indexes the old bytes.
  ASSERT_TRUE(entry->TryClaimPmapBuild());
  ASSERT_OK(WriteStringToFile(path, "1,2\n3,4\n5,6\n7,8\n"));
  ASSERT_TRUE(entry->CheckStale());
  const uint64_t positions[2] = {0, 2};
  auto stale_map =
      std::make_shared<PositionalMap>(PositionalMap::WithStride(2, 10));
  stale_map->AppendRow(0, positions);
  entry->PublishPmap(stale_map);
  EXPECT_EQ(nullptr, entry->pmap()) << "stale-built map was published";

  // A claim over the current bytes publishes normally.
  ASSERT_OK(entry->EnsureOpen());
  ASSERT_TRUE(entry->TryClaimPmapBuild());
  auto fresh_map =
      std::make_shared<PositionalMap>(PositionalMap::WithStride(2, 10));
  fresh_map->AppendRow(0, positions);
  entry->PublishPmap(fresh_map);
  EXPECT_NE(nullptr, entry->pmap());
}

TEST_F(StalenessTest, QueriesRacingAChangingFileSeeOneVersionOrATypedError) {
  // Two versions of each table that differ in length. While four sessions
  // query a CSV and a binary table, another thread flips the live files
  // between the versions (write + atomic rename, as a writer replacing a
  // file does) or just bumps their mtime. Every stale check then drops the
  // entry's handles under sessions that are planning or scanning the same
  // table: each answer must be one version's answer or a typed error.
  constexpr int kSessions = 4;
  constexpr int kQueriesPerSession = 120;
  TableSpec spec = TableSpec::UniformInt32("t", 6, 2000, /*seed=*/5);
  const Schema schema = spec.ToSchema();
  std::vector<std::string> csv_bytes, bin_bytes;
  for (int64_t rows : {2000, 3000}) {
    spec.rows = rows;
    const std::string tag = std::to_string(rows);
    ASSERT_OK(WriteCsvFile(spec, Path(tag + ".csv")));
    ASSERT_OK(WriteBinaryFile(spec, Path(tag + ".bin")));
    ASSERT_OK_AND_ASSIGN(std::string csv, ReadFileToString(Path(tag + ".csv")));
    ASSERT_OK_AND_ASSIGN(std::string bin, ReadFileToString(Path(tag + ".bin")));
    csv_bytes.push_back(std::move(csv));
    bin_bytes.push_back(std::move(bin));
  }

  const std::vector<std::string> queries = {
      "SELECT COUNT(*) FROM t_csv WHERE col1 < 500000000",
      "SELECT MAX(col4) FROM t_csv WHERE col2 < 300000000",
      "SELECT COUNT(*) FROM t_bin WHERE col3 < 700000000",
  };
  std::map<std::string, std::set<std::string>> valid;  // sql -> answers
  for (const char* tag : {"2000", "3000"}) {
    RawEngine reference;
    const std::string base = Path(tag);
    ASSERT_OK(reference.RegisterCsv("t_csv", base + ".csv", schema));
    ASSERT_OK(reference.RegisterBinary("t_bin", base + ".bin", schema));
    for (const std::string& sql : queries) {
      ASSERT_OK_AND_ASSIGN(QueryResult result, reference.Query(sql));
      valid[sql].insert(result.table.ToString(100));
    }
  }
  for (const auto& [sql, answers] : valid) {
    ASSERT_EQ(2u, answers.size()) << "versions indistinguishable: " << sql;
  }

  const std::string live_csv = Path("t.csv");
  const std::string live_bin = Path("t.bin");
  ASSERT_OK(WriteStringToFile(live_csv, csv_bytes[0]));
  ASSERT_OK(WriteStringToFile(live_bin, bin_bytes[0]));
  RawEngine engine;
  ASSERT_OK(engine.RegisterCsv("t_csv", live_csv, schema));
  ASSERT_OK(engine.RegisterBinary("t_bin", live_bin, schema));

  std::atomic<bool> stop{false};
  std::thread churn([&] {
    auto replace = [&](const std::string& path, const std::string& bytes) {
      const std::string tmp = path + ".tmp";
      EXPECT_OK(WriteStringToFile(tmp, bytes));
      EXPECT_EQ(0, std::rename(tmp.c_str(), path.c_str()));
    };
    for (int i = 0; !stop.load(std::memory_order_acquire); ++i) {
      if (i % 3 == 2) {
        EXPECT_EQ(0, ::utimensat(AT_FDCWD, live_csv.c_str(), nullptr, 0));
        EXPECT_EQ(0, ::utimensat(AT_FDCWD, live_bin.c_str(), nullptr, 0));
      } else {
        replace(live_csv, csv_bytes[static_cast<size_t>(i % 2)]);
        replace(live_bin, bin_bytes[static_cast<size_t>(i % 2)]);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });

  struct Outcome {
    std::string sql;
    StatusCode code = StatusCode::kOk;
    std::string text;  // answer, or the error message
  };
  std::vector<std::vector<Outcome>> outcomes(kSessions);
  std::vector<std::thread> sessions;
  for (int s = 0; s < kSessions; ++s) {
    sessions.emplace_back([&, s] {
      PlannerOptions options;
      // Morsel-parallel in-situ scans and the loaded-copy baseline both read
      // the table's file handles.
      options.access_path =
          s == 0 ? AccessPathKind::kLoaded : AccessPathKind::kInSitu;
      options.num_threads = 2;
      auto session = engine.OpenSession(options);
      for (int q = 0; q < kQueriesPerSession; ++q) {
        Outcome outcome;
        outcome.sql = queries[static_cast<size_t>(q + s) % queries.size()];
        auto result = session->Query(outcome.sql);
        if (result.ok()) {
          outcome.text = result->table.ToString(100);
        } else {
          outcome.code = result.status().code();
          outcome.text = result.status().ToString();
        }
        outcomes[static_cast<size_t>(s)].push_back(std::move(outcome));
      }
    });
  }
  for (std::thread& t : sessions) t.join();
  stop.store(true, std::memory_order_release);
  churn.join();

  int answered = 0;
  for (const auto& session_outcomes : outcomes) {
    for (const Outcome& outcome : session_outcomes) {
      if (outcome.code == StatusCode::kOk) {
        ++answered;
        EXPECT_EQ(1u, valid[outcome.sql].count(outcome.text))
            << outcome.sql << " answered neither version:\n" << outcome.text;
      } else {
        EXPECT_TRUE(outcome.code == StatusCode::kIOError ||
                    outcome.code == StatusCode::kDataCorruption ||
                    outcome.code == StatusCode::kParseError)
            << outcome.sql << ": " << outcome.text;
      }
    }
  }
  EXPECT_GT(answered, 0);
  for (const TableStats& table : engine.Stats().tables) {
    EXPECT_GT(table.version, 0) << table.name << " never saw a file change";
  }
}

TEST_F(StalenessTest, StaleMappingIsFreedWithTheLastQueryPinningIt) {
  const std::string path = Path("m.csv");
  ASSERT_OK(WriteStringToFile(path, "1,2\n3,4\n"));
  const Schema schema{{"a", DataType::kInt32}, {"b", DataType::kInt32}};
  Catalog catalog;
  ASSERT_OK(catalog.RegisterCsv("t", path, schema));
  ASSERT_OK_AND_ASSIGN(TableEntry * entry, catalog.Get("t"));

  // A query pins the table; the file changes under it.
  auto query = std::make_unique<FormatScanContext>();
  ASSERT_OK(entry->Pin(query.get()));
  std::weak_ptr<const MmapFile> old_mapping = query->mmap;
  ASSERT_OK(WriteStringToFile(path, "1,2\n3,4\n5,6\n"));
  ASSERT_TRUE(entry->CheckStale());

  // The query still reads the bytes it pinned; the next one sees the new
  // file under a new version.
  ASSERT_FALSE(old_mapping.expired());
  EXPECT_EQ(8u, query->mmap->size());
  FormatScanContext next;
  ASSERT_OK(entry->Pin(&next));
  ASSERT_NE(nullptr, next.mmap);
  EXPECT_EQ(12u, next.mmap->size());
  EXPECT_EQ(query->version + 1, next.version);

  // Once no query holds the old mapping, it is gone.
  query.reset();
  EXPECT_TRUE(old_mapping.expired()) << "stale mapping outlived its queries";
}

TEST_F(StalenessTest, CopiesAndClaimsOfStaleBytesAreNeverPublished) {
  const std::string path = Path("l.csv");
  ASSERT_OK(WriteStringToFile(path, "1,2\n3,4\n"));
  const Schema schema{{"a", DataType::kInt32}, {"b", DataType::kInt32}};
  Catalog catalog;
  ASSERT_OK(catalog.RegisterCsv("t", path, schema));
  ASSERT_OK_AND_ASSIGN(TableEntry * entry, catalog.Get("t"));
  FormatScanContext old_query;
  ASSERT_OK(entry->Pin(&old_query));
  ASSERT_OK(WriteStringToFile(path, "1,2\n3,4\n5,6\n"));
  ASSERT_TRUE(entry->CheckStale());

  // The loaded-copy baseline of the pinned bytes serves its query only.
  ASSERT_OK_AND_ASSIGN(auto old_copy, entry->EnsureLoaded(old_query, nullptr));
  EXPECT_EQ(2, old_copy->num_rows());
  EXPECT_EQ(nullptr, entry->loaded()) << "stale loaded copy was published";
  // A build claim over the pinned bytes is refused: the map could never be
  // published for the newer bytes.
  EXPECT_FALSE(entry->TryClaimPmapBuild(old_query.version));
  EXPECT_FALSE(entry->TryClaimFormatStateBuild(old_query.version));

  FormatScanContext new_query;
  ASSERT_OK(entry->Pin(&new_query));
  ASSERT_OK_AND_ASSIGN(auto new_copy, entry->EnsureLoaded(new_query, nullptr));
  EXPECT_EQ(3, new_copy->num_rows());
  EXPECT_EQ(new_copy, entry->loaded());
  EXPECT_EQ(3, entry->row_count());
  EXPECT_TRUE(entry->TryClaimPmapBuild(new_query.version));
  entry->AbandonPmapBuild();
}

// ---------------------------------------------------------------------------
// Serving tier: typed errors over the wire, client retry/reconnect
// ---------------------------------------------------------------------------

TEST(WireRobustnessTest, AssemblerReportsAPartialFrame) {
  serve::PayloadWriter w;
  w.PutString("partial");
  std::vector<uint8_t> encoded = serve::EncodeFrame(
      serve::MessageType::kQuery, w.bytes());
  serve::FrameAssembler assembler;
  EXPECT_FALSE(assembler.has_partial_frame());
  ASSERT_OK(assembler.Feed(encoded.data(), encoded.size() - 3));
  EXPECT_TRUE(assembler.has_partial_frame());
  ASSERT_OK(assembler.Feed(encoded.data() + encoded.size() - 3, 3));
  serve::Frame frame;
  ASSERT_TRUE(assembler.Pop(&frame));
  EXPECT_FALSE(assembler.has_partial_frame());
}

class ServeFaultTest : public testing::TempDirTest {
 protected:
  void SetUp() override {
    testing::TempDirTest::SetUp();
    FaultInjector::Global().Disarm();
    const std::string path = Path("srv.csv");
    std::string text;
    for (int i = 0; i < 500; ++i) {
      text += std::to_string(i) + "," + std::to_string(i % 13) + "\n";
    }
    ASSERT_OK(WriteStringToFile(path, text));
    const Schema schema{{"a", DataType::kInt32}, {"b", DataType::kInt32}};
    ASSERT_OK(engine_.RegisterCsv("srv", path, schema));
    server_ = std::make_unique<serve::RawServer>(&engine_,
                                                 serve::ServerOptions());
    ASSERT_OK(server_->Start());
  }

  void TearDown() override {
    FaultInjector::Global().Disarm();
    if (server_ != nullptr) server_->Shutdown();
  }

  RawEngine engine_;
  std::unique_ptr<serve::RawServer> server_;
};

TEST_F(ServeFaultTest, ScanFaultsBecomeTypedErrorFramesNotDrops) {
  // An injected open fault fails the query with a typed error frame; the
  // connection survives and the next query (fault disarmed) succeeds.
  FaultSpec spec;
  spec.kind = FaultKind::kEio;
  spec.path_substr = "srv.csv";
  FaultInjector::Global().Arm(spec);

  ASSERT_OK_AND_ASSIGN(auto client,
                       serve::RawClient::Connect("127.0.0.1",
                                                 server_->port()));
  ASSERT_OK(client->Hello());
  ASSERT_OK_AND_ASSIGN(serve::QueryResponse resp,
                       client->Query("SELECT SUM(b) FROM srv WHERE a < 400"));
  EXPECT_FALSE(resp.status.ok());
  EXPECT_EQ(StatusCode::kIOError, resp.status.code()) << resp.status.ToString();

  FaultInjector::Global().Disarm();
  ASSERT_OK_AND_ASSIGN(serve::QueryResponse again,
                       client->Query("SELECT COUNT(*) FROM srv WHERE a < 400"));
  ASSERT_OK(again.status);
  ASSERT_OK(client->Goodbye());
}

TEST_F(ServeFaultTest, QueryRetriesTransparentlyAcrossAKilledConnection) {
  serve::RawClientOptions options;
  options.max_retries = 2;
  options.backoff_initial_ms = 1;
  options.backoff_max_ms = 4;
  ASSERT_OK_AND_ASSIGN(
      auto client,
      serve::RawClient::Connect("127.0.0.1", server_->port(), options));
  ASSERT_OK(client->Hello());
  ASSERT_OK_AND_ASSIGN(serve::QueryResponse first,
                       client->Query("SELECT COUNT(*) FROM srv WHERE a < 100"));
  ASSERT_OK(first.status);

  // Kill the transport under the client; the next Query must reconnect
  // (replaying Hello) and answer as if nothing happened.
  client->Close();
  ASSERT_OK_AND_ASSIGN(serve::QueryResponse second,
                       client->Query("SELECT COUNT(*) FROM srv WHERE a < 100"));
  ASSERT_OK(second.status);
  EXPECT_EQ(1, client->reconnects());
  EXPECT_EQ(1, client->retries());
  ASSERT_OK(client->Goodbye());
}

TEST_F(ServeFaultTest, CorruptFrameGetsATypedProtocolErrorBeforeTheClose) {
  // Hand-rolled socket: Hello, then a frame header promising an absurd
  // payload. The server must answer with a typed PROTOCOL_ERROR frame
  // before dropping the connection (not just vanish).
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server_->port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(0, ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                         sizeof(addr)));

  serve::PayloadWriter hello;
  hello.PutU8(0);  // interactive
  std::vector<uint8_t> bytes =
      serve::EncodeFrame(serve::MessageType::kHello, hello.bytes());
  ASSERT_EQ(static_cast<ssize_t>(bytes.size()),
            ::send(fd, bytes.data(), bytes.size(), 0));

  // type byte + little-endian u32 length far beyond kMaxPayloadBytes.
  const uint8_t corrupt[5] = {2, 0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(static_cast<ssize_t>(sizeof(corrupt)),
            ::send(fd, corrupt, sizeof(corrupt), 0));

  serve::FrameAssembler assembler;
  bool got_error = false;
  bool closed = false;
  uint8_t buf[512];
  for (int i = 0; i < 200 && !closed; ++i) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      closed = true;
      break;
    }
    ASSERT_OK(assembler.Feed(buf, static_cast<size_t>(n)));
    serve::Frame frame;
    while (assembler.Pop(&frame)) {
      if (frame.type == serve::MessageType::kHelloOk) continue;
      ASSERT_EQ(serve::MessageType::kError, frame.type);
      serve::PayloadReader reader(frame.payload);
      ASSERT_OK(reader.U64().status());  // request id (0: no request)
      ASSERT_OK_AND_ASSIGN(uint32_t code, reader.U32());
      EXPECT_EQ(static_cast<uint32_t>(StatusCode::kProtocolError), code);
      got_error = true;
    }
  }
  EXPECT_TRUE(got_error) << "connection dropped without a typed error";
  EXPECT_TRUE(closed) << "server kept a corrupt-frame peer alive";
  ::close(fd);
}

}  // namespace
}  // namespace raw
