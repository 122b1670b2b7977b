// serve: rawd in process with rawd's own defaults (autotune on, 64 MB result
// cache, default admission; the shred budget and the scan threads per query
// are deployment settings, below), behind an open-loop load at fixed absolute
// rates. Every template carries Zipf-skewed seeded literals, over the D30 CSV
// and wide D120 binary columns alike. Fused JIT kernels embed their literals,
// so a new literal on the CSV compiles a kernel on the serving path; the
// result cache answers a literal seen before. The shred budget, a deployment
// setting, sits below the D120 templates' column working set, so shreds are
// evicted and re-read.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <future>
#include <mutex>
#include <thread>
#include <tuple>

#include "common/hash.h"
#include "common/macros.h"
#include "common/rng.h"
#include "serve/client.h"
#include "serve/server.h"
#include "workloads.h"

namespace rawbench {
namespace {

using Millis = std::chrono::duration<double, std::milli>;

// Load generator: two connections, each with one sender and one reader
// thread (4 threads, 2 connections; both within nproc = 4).
constexpr int kConnections = 2;
// Never more requests in flight than admission queues (interactive class of
// rawd's defaults), so nothing is shed even while a finished request still
// holds its worker slot; later requests wait in the generator and their
// latency, timed from the due time, shows it.
const raw::serve::AdmissionOptions kAdmission;
const int kMaxInFlight = kAdmission.interactive.max_queued;
constexpr uint32_t kDeadlineMs = 10000;

// rawd's own engine defaults.
constexpr bool kAutotune = true;
constexpr int64_t kResultCacheBytes = 64ll << 20;
// Shred budget (a deployment setting): 8 MB, under a quarter of the D120
// templates' ten column pairs (36 MB), so most D120 queries miss and re-read
// their shreds rather than landing on either side of a hit/miss boundary.
constexpr int64_t kShredBudgetBytes = 8ll << 20;

// Fixed absolute rates (requests per second) so every commit is offered the
// same load: the reference rate for the latency metrics, and the ladder
// (steps 5% apart) searched for the highest rate meeting the tail limit.
// The reference rate is about a third of the highest passing rung at HEAD
// on a 4-core host (35-45/s), so the latency metrics measure service more
// than queueing even while the host runs slow; the reference phase is long
// enough at it for the p95 to have 10 samples beyond it. The ladder spans 12/s to 240/s: 62 rungs, so its binary search
// takes at most 6 probes, each long enough to tell a growing backlog from a
// passing burst; 240/s is past what two workers reach on the D120 templates
// alone (about 12 ms each), the most serve could gain if no literal had to
// compile. The limit is the 1 s response time under which an interactive
// user's flow of thought stays uninterrupted (Nielsen, Usability
// Engineering, 1993).
// Shares of the run: the reference phase, and the ladder, split over the
// most probes its binary search can take.
constexpr double kReferenceRate = 14;
constexpr double kReferenceShare = 0.5;
constexpr int kReferenceChunks = 6;
constexpr double kLadderLow = 12;
constexpr double kLadderHigh = 240;
constexpr double kLadderStep = 1.05;
constexpr double kLadderShare = 0.5;
constexpr double kTailPercentile = 0.95;
constexpr double kTailLimitMs = 1000;
// A probe whose sender falls this far behind has failed; stop feeding it.
constexpr double kAbortLagMs = 2 * kTailLimitMs;
// A probe's backlog grows when the trend of its requests' waits adds up to
// this much over the probe (BacklogGrowing). A wait is a request's latency
// minus the server's own plan + execute time, so it is queueing alone,
// whatever the query costs.
constexpr double kBacklogSlackMs = 100;

// Zipf-skewed literal ranks: rank r of a template has weight 1 / r^s, with
// YCSB's default Zipfian constant. Each template's literals are thresholds
// at kLiterals points of the filter column's range (see Literal); the count
// is a choice, not taken from a trace: most literals of a phase are new,
// while the top rank alone takes 13% of a template's requests.
constexpr double kZipfExponent = 0.99;
constexpr int kLiterals = 1000;

struct Template {
  const char* table;
  int filter;  // int32 column
  int value;   // aggregated column
};

// Two templates on the CSV, ten on D120's int32/float64 column pairs (1.2 +
// 2.4 MB per pair, 36 MB for the ten), which run through interpreted plans
// on shreds the budget above cannot all hold. The split is a choice, not
// taken from a trace: ten pairs give D120 a working set over four times the
// shred budget, and two CSV templates send a sixth of the requests, most
// with a new literal, down the compile path.
const Template kTemplates[] = {
    {"d30", 0, 1},    {"d30", 2, 3},    {"d120", 0, 1},   {"d120", 10, 11},
    {"d120", 20, 21}, {"d120", 30, 31}, {"d120", 40, 41}, {"d120", 50, 51},
    {"d120", 60, 61}, {"d120", 70, 71}, {"d120", 80, 81}, {"d120", 90, 91},
};
constexpr int kNumTemplates = sizeof(kTemplates) / sizeof(kTemplates[0]);
const std::vector<Agg> kAggs = {Agg::kCount, Agg::kSum, Agg::kMax};

std::string Sql(int t, double literal) {
  const Template& tp = kTemplates[t];
  const std::string value = "col" + std::to_string(tp.value);
  return "SELECT COUNT(*), SUM(" + value + "), MAX(" + value + ") FROM " +
         tp.table + " WHERE col" + std::to_string(tp.filter) + " < " +
         std::to_string(static_cast<int64_t>(literal));
}

/// Request stream: templates uniform, dealt from a shuffle of all of them so
/// every kNumTemplates requests hold each once; literal ranks
/// Zipf-distributed, drawn through the inverse CDF from a golden-ratio
/// sequence with its own start per template. Both are stratified draws: any
/// window of requests holds close to the exact mix.
/// The shuffles and the starts are the same for every seed. Which ranks a
/// window draws decides how many of its literals are new, and each new one
/// compiles a kernel on the CSV; with seeded starts, five seeds in a row on
/// one host put the ladder's answer anywhere from 27.5/s to 51.9/s, while
/// one seed run six times in between found 51.9/s every time.
/// Rank r filters at the fixed share 5% + 90% * frac((r + 1) * golden ratio)
/// of the value range, moved by a seeded jitter of at most 0.1%: the seed
/// draws the data and the exact literals, while each rank's selectivity, and
/// so the cost of the popular queries, stays put.
/// The jitter also depends on the phase (epoch): each open-loop phase starts
/// with none of its literals in the result cache, so what a ladder probe
/// measures does not depend on which probes the search ran before it.
class RequestSource {
 public:
  explicit RequestSource(uint64_t seed) : seed_(seed), rng_(kLayoutSeed) {
    for (int t = 0; t < kNumTemplates; ++t) u_.push_back(rng_.NextDouble());
    double total = 0;
    for (int r = 1; r <= kLiterals; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r), kZipfExponent);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  /// The next request's template and literal rank.
  std::pair<int, int> Next() {
    if (deck_.empty()) {
      for (int t = kNumTemplates - 1; t >= 0; --t) {
        deck_.push_back(t);
        std::swap(deck_.back(), deck_[rng_.NextBelow(deck_.size())]);
      }
    }
    const int t = deck_.back();
    deck_.pop_back();
    double& u = u_[static_cast<size_t>(t)];
    u = std::fmod(u + kGolden, 1.0);
    const auto rank = static_cast<int>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return {t, rank};
  }

  double Literal(int epoch, int t, int rank) const {
    const uint64_t key = (static_cast<uint64_t>(epoch) << 40) ^
                         (static_cast<uint64_t>(t) << 20) ^
                         static_cast<uint64_t>(rank);
    const uint64_t h = raw::MixHash64(seed_ ^ raw::MixHash64(key));
    const double share = 0.05 + 0.9 * std::fmod((rank + 1) * kGolden, 1.0);
    return std::floor(share * 1e9) + static_cast<double>(h % 1000000ull);
  }

 private:
  static constexpr double kGolden = 0.6180339887498949;
  static constexpr uint64_t kLayoutSeed = 7;
  uint64_t seed_;
  raw::Rng rng_;  // the shuffles and starts, the same for every seed
  std::vector<double> cdf_;
  std::vector<double> u_;  // per template: the last point of its sequence
  std::vector<int> deck_;  // templates left in the current shuffle
};

int64_t Ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

struct Request {
  int epoch = 0;
  int tmpl = 0;
  int rank = 0;
  double literal = 0;
  Clock::time_point due;
  Clock::time_point sent;       // SendQuery called
  Clock::time_point sent_done;  // SendQuery returned
  bool was_sent = false;
  bool answered = false;
  std::vector<double> row;
  double latency_ms = 0;   // from the due time
  double overhead_ms = 0;  // client RTT minus server plan + execute
  double plan_ms = 0;      // server-side, includes JIT compilation
  double execute_ms = 0;   // server-side
};

struct Phase {
  std::vector<Request> requests;
  int64_t retries = 0;
  double duration_s = 0;

  /// Latencies of the answered requests, in due order.
  std::vector<double> Latencies() const {
    std::vector<double> v;
    for (const Request& r : requests) {
      if (r.answered) v.push_back(r.latency_ms);
    }
    return v;
  }
  /// Due time to response minus the server's plan + execute, in due order.
  std::vector<double> Waits() const {
    std::vector<double> v;
    for (const Request& r : requests) {
      if (r.answered) v.push_back(r.latency_ms - r.plan_ms - r.execute_ms);
    }
    return v;
  }
  std::vector<double> Lags() const {
    std::vector<double> v;
    for (const Request& r : requests) {
      if (r.was_sent) v.push_back(Millis(r.sent - r.due).count());
    }
    return v;
  }
  int64_t answered() const {
    return std::count_if(requests.begin(), requests.end(),
                         [](const Request& r) { return r.answered; });
  }
  int64_t unsent() const {
    return std::count_if(requests.begin(), requests.end(),
                         [](const Request& r) { return !r.was_sent; });
  }
  /// Unsent, shed, failed and wrong requests.
  int64_t failures() const {
    return static_cast<int64_t>(requests.size()) - answered();
  }
};

/// The answer to every literal rank of every template in each of
/// `epochs` epochs, computed up front from the generated columns; the
/// columns are dropped afterwards.
class Oracle {
 public:
  Oracle(uint64_t seed, const RequestSource& source, int epochs) {
    SpecColumns d30(D30Spec(seed, kD30Rows), kD30Rows);
    SpecColumns d120(D120Spec(seed, kD120Rows), kD120Rows);
    answers_.resize(static_cast<size_t>(epochs));
    for (int t = 0; t < kNumTemplates; ++t) {
      const Template& tp = kTemplates[t];
      SpecColumns& cols = std::string(tp.table) == "d30" ? d30 : d120;
      const SortedPrefix prefix(cols.Column(tp.filter), cols.Column(tp.value));
      for (int e = 0; e < epochs; ++e) {
        std::vector<std::vector<double>> answers;
        for (int rank = 0; rank < kLiterals; ++rank) {
          const double literal = source.Literal(e, t, rank);
          std::vector<double> want;
          for (Agg agg : kAggs) want.push_back(prefix.Eval(agg, literal));
          answers.push_back(std::move(want));
        }
        answers_[static_cast<size_t>(e)].push_back(std::move(answers));
      }
    }
  }
  const std::vector<double>& Want(const Request& r) const {
    return answers_[static_cast<size_t>(r.epoch)][static_cast<size_t>(r.tmpl)]
                   [static_cast<size_t>(r.rank)];
  }

 private:
  // [epoch][template][rank] -> one answer per kAggs entry
  std::vector<std::vector<std::vector<std::vector<double>>>> answers_;
};

/// Open loop at `rate` for `seconds` with the literals of `epoch`: request i
/// is due at start + i / rate and goes to connection i % kConnections. Each
/// connection has a sender (sleeps until the due time, holds at most its
/// share of kMaxInFlight) and a reader that marks each request with its
/// response.
Phase RunOpenLoop(RunContext& ctx, int port, RequestSource* source,
                  int epoch, double rate, double seconds, Tracer* tracer,
                  int64_t* query_id) {
  Phase phase;
  const auto n = static_cast<int64_t>(std::max(1.0, rate * seconds));
  phase.requests.resize(static_cast<size_t>(n));
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  for (int64_t i = 0; i < n; ++i) {
    Request& r = phase.requests[static_cast<size_t>(i)];
    r.epoch = epoch;
    std::tie(r.tmpl, r.rank) = source->Next();
    r.literal = source->Literal(epoch, r.tmpl, r.rank);
    r.due = start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(i / rate));
  }
  const int64_t base_id = *query_id;
  *query_id += n;

  std::mutex retries_mu;
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      raw::serve::RawClientOptions options;
      options.io_timeout_ms = static_cast<int>(kOperationLimitSeconds * 1000);
      auto client_or =
          raw::serve::RawClient::Connect("127.0.0.1", port, options);
      if (!client_or.ok() || !(*client_or)->Hello().ok()) return;  // unsent
      raw::serve::RawClient* client = client_or->get();
      std::mutex flight_mu;
      std::condition_variable flight_cv;
      int64_t in_flight = 0;
      int64_t sent = 0;
      bool sender_done = false;
      bool reader_failed = false;

      std::thread reader([&] {
        int64_t received = 0;
        while (true) {
          {
            std::unique_lock<std::mutex> lock(flight_mu);
            flight_cv.wait(lock,
                           [&] { return received < sent || sender_done; });
            if (received >= sent) break;
          }
          ctx.watchdog->Arm(1 + c, "serve request");
          const Clock::time_point read_start = Clock::now();
          auto resp = client->ReadResponse();
          ctx.watchdog->Disarm(1 + c);
          const Clock::time_point now = Clock::now();
          const int64_t idx =
              resp.ok() ? static_cast<int64_t>(resp->request_id) - 1 - base_id
                        : -1;
          if (idx < 0 || idx >= n) {
            std::fprintf(stderr, "rawbench: serve read: %s\n",
                         resp.ok() ? "unknown request id"
                                   : resp.status().ToString().c_str());
            {
              std::lock_guard<std::mutex> lock(flight_mu);
              reader_failed = true;
            }
            flight_cv.notify_all();
            break;
          }
          ++received;
          Request& r = phase.requests[static_cast<size_t>(idx)];
          r.latency_ms = Millis(now - r.due).count();
          r.plan_ms = resp->plan_seconds * 1e3;
          r.execute_ms = resp->execute_seconds * 1e3;
          const double server_ms = r.plan_ms + r.execute_ms;
          r.overhead_ms = Millis(now - r.sent).count() - server_ms;
          if (tracer->enabled()) {
            // due -> response, covered by the generator's wait, the
            // SendQuery call and the ReadResponse call that returned this
            // response (from when it was sent, if the reader was already
            // waiting on an earlier request). Time the reader spent on other
            // responses while this one was in flight stays unattributed.
            const auto id = static_cast<int64_t>(resp->request_id);
            const int32_t root =
                tracer->Add("query", id, Ns(r.due), Ns(now), -1);
            tracer->Add("serve.generator", id, Ns(r.due), Ns(r.sent), root);
            tracer->Add("serve.send", id, Ns(r.sent), Ns(r.sent_done), root);
            tracer->Add("serve.read", id,
                        std::max(Ns(read_start), Ns(r.sent_done)), Ns(now),
                        root);
          }
          if (resp->overloaded) {
            std::fprintf(stderr, "rawbench: serve request shed: %s\n",
                         resp->overload_reason.c_str());
          } else if (!resp->status.ok()) {
            std::fprintf(stderr, "rawbench: serve query failed: %s\n",
                         resp->status.ToString().c_str());
          } else if (auto row = FirstRow(resp->table); row.ok()) {
            r.row = std::move(*row);
            r.answered = true;
          }
          {
            std::lock_guard<std::mutex> lock(flight_mu);
            --in_flight;
          }
          flight_cv.notify_all();
        }
      });

      for (int64_t i = c; i < n; i += kConnections) {
        Request& r = phase.requests[static_cast<size_t>(i)];
        std::this_thread::sleep_until(r.due);
        {
          std::unique_lock<std::mutex> lock(flight_mu);
          flight_cv.wait(lock, [&] {
            return in_flight < kMaxInFlight / kConnections || reader_failed;
          });
          if (reader_failed) break;
        }
        const Clock::time_point now = Clock::now();
        // Beyond capacity: the rest of this connection's requests stay
        // unsent.
        if (Millis(now - r.due).count() > kAbortLagMs) break;
        r.sent = now;
        r.was_sent = true;
        const auto id = static_cast<uint64_t>(base_id + i + 1);
        const std::string sql = Sql(r.tmpl, r.literal);
        if (!client->SendQuery(id, sql, kDeadlineMs).ok()) break;
        {
          std::lock_guard<std::mutex> lock(flight_mu);
          r.sent_done = Clock::now();
          ++in_flight;
          ++sent;
        }
        flight_cv.notify_all();
      }
      {
        std::lock_guard<std::mutex> lock(flight_mu);
        sender_done = true;
      }
      flight_cv.notify_all();
      reader.join();
      {
        std::lock_guard<std::mutex> lock(retries_mu);
        phase.retries += client->retries();
      }
      client->Goodbye();
    });
  }
  for (std::thread& t : threads) t.join();
  phase.duration_s = SecondsSince(start);
  return phase;
}

/// Moves `part`'s requests to the end of `phase`.
void Append(Phase part, Phase* phase) {
  for (Request& r : part.requests) phase->requests.push_back(std::move(r));
  phase->retries += part.retries;
  phase->duration_s += part.duration_s;
}

/// Checks every answer. Requests a ladder probe gave up on (`probe`) never
/// reached the server and are not counted as attempted; at the reference
/// rate they count as failed.
void VerifyPhase(const Oracle& oracle, bool probe, Phase* phase,
                 Report* report) {
  for (Request& r : phase->requests) {
    if (probe && !r.was_sent) continue;
    report->attempted.fetch_add(1);
    if (!r.answered) {
      report->failed.fetch_add(1);
      continue;
    }
    if (!Matches(r.row, oracle.Want(r), kAggs)) {
      std::fprintf(stderr, "rawbench: wrong answer: %s\n",
                   Sql(r.tmpl, r.literal).c_str());
      r.answered = false;
      report->failed.fetch_add(1);
      report->wrong.fetch_add(1);
    }
  }
}

raw::Status Register(raw::RawEngine* engine, const std::string& d30,
                     const std::string& d120) {
  RAW_RETURN_NOT_OK(engine->RegisterCsv("d30", d30, D30Spec(0, 0).ToSchema()));
  return engine->RegisterBinary("d120", d120, D120Spec(0, 0).ToSchema());
}

/// rawd's engine defaults with the deployment settings above. rawd runs
/// kAdmission.num_workers queries at once; each gets an equal share of the
/// scan threads, so concurrent queries never run more threads than cores.
raw::RawEngineOptions EngineOptions(int scan_threads) {
  raw::RawEngineOptions options;
  options.planner.num_threads =
      std::max(1, scan_threads / kAdmission.num_workers);
  options.autotune.enabled = kAutotune;
  options.result_cache_bytes = kResultCacheBytes;
  options.shred_cache_bytes = kShredBudgetBytes;
  return options;
}

/// Closed-loop request through a fresh client (the warm-up sessions, in
/// epoch 0); `execute_s` gets the server's execute time.
void ClosedLoopQuery(RunContext& ctx, int port, const RequestSource& source,
                     const Oracle& oracle, int t, int rank, double* latency_ms,
                     double* execute_s = nullptr) {
  Request r;
  r.tmpl = t;
  r.rank = rank;
  const std::string sql = Sql(t, source.Literal(r.epoch, t, rank));
  const Clock::time_point start = Clock::now();
  ctx.report->attempted.fetch_add(1);
  ctx.watchdog->Arm(0, "serve warm-up query");
  auto client = raw::serve::RawClient::Connect("127.0.0.1", port);
  raw::StatusOr<raw::serve::QueryResponse> resp =
      raw::Status::IOError("connect failed");
  if (client.ok() && (*client)->Hello().ok()) resp = (*client)->Query(sql);
  ctx.watchdog->Disarm(0);
  *latency_ms = SecondsSince(start) * 1e3;
  bool ok = resp.ok() && resp->status.ok() && !resp->overloaded;
  if (ok && execute_s != nullptr) *execute_s = resp->execute_seconds;
  if (ok) {
    auto row = FirstRow(resp->table);
    ok = row.ok() && Matches(*row, oracle.Want(r), kAggs);
    if (!ok) ctx.report->wrong.fetch_add(1);
  }
  if (!ok) {
    std::fprintf(stderr, "rawbench: warm-up query failed: %s\n", sql.c_str());
    ctx.report->failed.fetch_add(1);
  }
  if (client.ok()) (*client)->Goodbye();
}

}  // namespace

int RunServe(RunContext& ctx) {
  // Literal epochs: 0 the warm-up sessions, 1 the reference phase, 2 its
  // traced twin, then one per ladder probe (a binary search over the rungs
  // probes at most bit_width(rungs) of them).
  const std::vector<double> ladder =
      RateLadder(kLadderLow, kLadderHigh, kLadderStep);
  constexpr int kReferenceEpoch = 1;
  constexpr int kTracedEpoch = 2;
  constexpr int kFirstProbeEpoch = 3;
  int max_probes = 0;
  while ((size_t{1} << max_probes) <= ladder.size()) ++max_probes;
  RequestSource source(ctx.seed);

  // The two inputs and the oracle are independent of each other; they are
  // made side by side.
  auto d120_made = std::async(std::launch::async, [&] {
    return ctx.inputs->D120Binary(kD120Rows);
  });
  auto oracle_made = std::async(std::launch::async, [&] {
    return std::make_unique<const Oracle>(ctx.seed, source,
                                          kFirstProbeEpoch + max_probes);
  });
  auto d30 = ctx.inputs->D30Csv(kD30Rows);
  auto d120 = d120_made.get();
  const std::unique_ptr<const Oracle> oracle_ptr = oracle_made.get();
  const Oracle& oracle = *oracle_ptr;
  if (!d30.ok() || !d120.ok()) {
    std::fprintf(stderr, "rawbench: input generation failed\n");
    return 1;
  }
  ResetPeakRss();
  Report& r = *ctx.report;
  r.Note("serve.shred_budget_mb", std::to_string(kShredBudgetBytes >> 20));
  r.Note("serve.column_working_set_mb", "36");
  r.Note("serve.reference_rate_qps", std::to_string(kReferenceRate));
  r.Note("serve.tail_limit_ms", std::to_string(kTailLimitMs));
  r.Note("serve.connections", std::to_string(kConnections));
  r.Note("serve.scan_threads_per_query",
         std::to_string(EngineOptions(ctx.scan_threads).planner.num_threads));
  r.Note("serve.max_in_flight", std::to_string(kMaxInFlight));

  // Set-up (engine, tables, rawd) kSetups times. kWarmSessions of them go
  // on to a warm-up session: a fresh rawd answering each template once, in
  // closed loop, with its most frequent literal, the cold CSV query first.
  // One session runs before the serving phases and one after them, so the
  // session metrics span the run; the third warms the server the phases run
  // on. The other servers are torn down at once.
  constexpr int kWarmSessions = 3;
  std::vector<double> setup_s;
  std::vector<double> first_query_s;
  std::vector<double> session_s;
  std::vector<double> warmup_ms;
  std::vector<double> cold_scan_mbps;  // the first query reads the CSV
  const double d30_mb =
      static_cast<double>(std::filesystem::file_size(*d30)) / (1 << 20);
  std::unique_ptr<raw::RawEngine> engine;
  std::unique_ptr<raw::serve::RawServer> server;
  auto start_server = [&]() -> bool {
    const Clock::time_point t0 = Clock::now();
    engine = std::make_unique<raw::RawEngine>(EngineOptions(ctx.scan_threads));
    raw::Status st = Register(engine.get(), *d30, *d120);
    raw::serve::ServerOptions options;
    options.admission = kAdmission;
    server = std::make_unique<raw::serve::RawServer>(engine.get(), options);
    if (st.ok()) st = server->Start();
    if (!st.ok()) {
      std::fprintf(stderr, "rawbench: serve setup: %s\n",
                   st.ToString().c_str());
      return false;
    }
    setup_s.push_back(SecondsSince(t0));
    return true;
  };
  auto stop_server = [&] {
    server->Shutdown();
    server.reset();  // before the engine it serves
    engine.reset();
  };
  auto warm_session = [&]() -> bool {
    const Clock::time_point t0 = Clock::now();
    if (!start_server()) return false;
    for (int t = 0; t < kNumTemplates; ++t) {
      double ms = 0;
      double execute_s = 0;
      ClosedLoopQuery(ctx, server->port(), source, oracle, t, 0, &ms,
                      &execute_s);
      warmup_ms.push_back(ms);
      if (t == 0) {
        first_query_s.push_back(SecondsSince(t0));
        if (execute_s > 0) cold_scan_mbps.push_back(d30_mb / execute_s);
      }
    }
    session_s.push_back(SecondsSince(t0));
    return true;
  };
  for (int i = 0; i < kSetups - kWarmSessions; ++i) {
    if (!start_server()) return 1;
    stop_server();
  }
  if (!warm_session()) return 1;
  stop_server();
  if (!warm_session()) return 1;
  const int port = server->port();

  // The reference phase runs in kReferenceChunks chunks spread over the
  // run, so a change in the host's speed during the run reaches the latency
  // metrics and the ladder alike. Without tracing, the ladder probes are
  // dealt out between the chunks; with tracing, each chunk is followed by a
  // traced chunk of the same length, the two fill the run, and the ladder is
  // skipped.
  Tracer untraced(false);
  Tracer tracer(ctx.trace);
  int64_t query_id = 0;
  const double chunk_seconds =
      ctx.seconds * (ctx.trace ? 0.5 : kReferenceShare) / kReferenceChunks;
  const raw::EngineStats stats0 = engine->Stats();
  double cpu_s = 0;
  Phase ref;
  Phase traced;
  int chunks = 0;
  auto run_chunk = [&] {
    const double cpu0 = ProcessCpuSeconds();
    Append(RunOpenLoop(ctx, port, &source, kReferenceEpoch, kReferenceRate,
                       chunk_seconds, &untraced, &query_id),
           &ref);
    cpu_s += ProcessCpuSeconds() - cpu0;
    ++chunks;
    if (ctx.trace) {
      Append(RunOpenLoop(ctx, port, &source, kTracedEpoch, kReferenceRate,
                         chunk_seconds, &tracer, &query_id),
             &traced);
    }
  };
  run_chunk();

  if (!ctx.trace) {
    // Probe k (from 1) runs for k units: the deeper probes of the search,
    // nearer the answer and so the closer calls, get the longer runs. The
    // reference chunks are dealt out at even steps of the ladder's time.
    const double ladder_seconds = ctx.seconds * kLadderShare;
    const double unit = ladder_seconds * 2 / (max_probes * (max_probes + 1));
    int64_t slo_samples = 0;
    double slo_achieved_qps = 0;
    int probes = 0;
    const int best = LadderSearch(static_cast<int>(ladder.size()), [&](int i) {
      const double done = unit * probes * (probes + 1) / 2;
      while (chunks < kReferenceChunks &&
             done * kReferenceChunks >= chunks * ladder_seconds) {
        run_chunk();
      }
      ++probes;
      Phase probe =
          RunOpenLoop(ctx, port, &source, kFirstProbeEpoch + probes - 1,
                      ladder[static_cast<size_t>(i)], unit * probes,
                      &untraced, &query_id);
      VerifyPhase(oracle, /*probe=*/true, &probe, &r);
      const bool pass =
          probe.failures() == 0 &&
          Percentile(probe.Latencies(), kTailPercentile) <= kTailLimitMs &&
          !BacklogGrowing(probe.Waits(), probe.unsent(), kBacklogSlackMs);
      if (pass) {
        slo_samples = probe.answered();
        slo_achieved_qps = static_cast<double>(slo_samples) / probe.duration_s;
      }
      return pass;
    });
    while (chunks < kReferenceChunks) run_chunk();
    VerifyPhase(oracle, /*probe=*/false, &ref, &r);
    r.Note("serve.slo_achieved_qps", std::to_string(slo_achieved_qps));
    r.Note("serve.ladder_probes", std::to_string(probes));
    r.SetE2E("slo_qps", best >= 0 ? ladder[static_cast<size_t>(best)] : 0,
             "1/s", slo_samples);
  } else {
    while (chunks < kReferenceChunks) run_chunk();
    VerifyPhase(oracle, /*probe=*/false, &ref, &r);
    VerifyPhase(oracle, /*probe=*/false, &traced, &r);
    ReportEngineLayers({EngineDelta{stats0, engine->Stats()}}, &r);
    std::vector<double> overhead;
    std::vector<double> plan_ms;
    std::vector<double> execute_ms;
    for (const Request& q : traced.requests) {
      if (!q.answered) continue;
      overhead.push_back(q.overhead_ms);
      plan_ms.push_back(q.plan_ms);
      execute_ms.push_back(q.execute_ms);
    }
    const auto n = static_cast<int64_t>(overhead.size());
    const std::vector<double> lags = traced.Lags();
    r.SetLayer("engine.plan_ms", Percentile(plan_ms, 0.5), "ms", n);
    r.SetLayer("engine.execute_ms", Percentile(execute_ms, 0.5), "ms", n);
    r.SetLayer("serve.overhead_p50_ms", Percentile(overhead, 0.5), "ms", n);
    r.SetLayer("serve.overhead_tail_ms",
               Percentile(overhead, kTailPercentile), "ms", n);
    r.SetLayer("serve.generator_lag_ms", Percentile(lags, kTailPercentile),
               "ms", static_cast<int64_t>(lags.size()));
    r.SetLayer("serve.client_retries",
               static_cast<double>(ref.retries + traced.retries), "count",
               ref.answered() + traced.answered());
    r.SetLayer("proc.cpu_s_per_query",
               cpu_s / static_cast<double>(std::max<int64_t>(
                           1, ref.answered())),
               "s", ref.answered());
    const double base = Percentile(ref.Latencies(), 0.5);
    r.SetLayer("trace.overhead_frac",
               (Percentile(traced.Latencies(), 0.5) - base) / base, "fraction",
               n);
    ReportTrace(tracer, n, &r);
    // rawd parses inside its worker; Session::Parse on the traced requests'
    // SQL, on the serving engine, times the same call.
    std::unique_ptr<raw::Session> session = engine->OpenSession();
    std::vector<double> parse_us;
    for (const Request& q : traced.requests) {
      const std::string sql = Sql(q.tmpl, q.literal);
      const Clock::time_point t = Clock::now();
      const bool ok = session->Parse(sql).ok();
      parse_us.push_back(SecondsSince(t) * 1e6);
      if (!ok) {
        std::fprintf(stderr, "rawbench: parse failed: %s\n", sql.c_str());
        r.attempted.fetch_add(1);
        r.failed.fetch_add(1);
      }
    }
    r.SetLayer("engine.parse_us", Percentile(parse_us, 0.5), "us",
               static_cast<int64_t>(parse_us.size()));
    r.SetNotApplicable("proc.vm_growth_mb_per_change", "MB");  // no changes
    RunProbes(*d30, {}, "", &r);
  }
  r.SetLatency(ref.Latencies(), kTailPercentile);
  r.Note("serve.reference_failures", std::to_string(ref.failures()));
  stop_server();

  if (!warm_session()) return 1;
  stop_server();
  auto median = [&](const char* name, const std::vector<double>& v,
                    const char* unit) {
    r.SetE2E(name, Percentile(v, 0.5), unit, static_cast<int64_t>(v.size()));
  };
  median("setup_s", setup_s, "s");
  median("first_query_s", first_query_s, "s");
  median("session_s", session_s, "s");
  median("post_change_ms", warmup_ms, "ms");
  if (ctx.trace) {
    r.SetLayer("csv.cold_scan_mbps", Percentile(cold_scan_mbps, 0.5), "MB/s",
               static_cast<int64_t>(cold_scan_mbps.size()));
  }
  return 0;
}

}  // namespace rawbench
