// Measurement helpers shared by every rawbench workload: the percentile rule,
// the metric report, the rate ladder, benchmark-side trace spans, the
// per-operation watchdog and /proc readings.
#ifndef RAWBENCH_HARNESS_H_
#define RAWBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace rawbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Percentiles. A timing is reported as its median plus a tail percentile that
// has at least kMinBeyond samples above it, so a tail is never one outlier.

inline constexpr int64_t kMinBeyond = 10;

/// Nearest-rank percentile (p in [0, 1]) of `samples`; 0 when empty.
double Percentile(std::vector<double> samples, double p);

/// True when `n` samples leave at least kMinBeyond samples above the
/// nearest-rank p-th percentile.
bool SupportsPercentile(int64_t n, double p);

// ---------------------------------------------------------------------------
// Report: every metric by name with unit and sample count.

struct Metric {
  double value = 0;
  std::string unit;
  int64_t samples = 0;
};

class Report {
 public:
  void SetE2E(const std::string& name, double value, const std::string& unit,
              int64_t samples) {
    std::lock_guard<std::mutex> lock(mu_);
    e2e_[name] = Metric{value, unit, samples};
  }
  void SetLayer(const std::string& name, double value, const std::string& unit,
                int64_t samples) {
    std::lock_guard<std::mutex> lock(mu_);
    layers_[name] = Metric{value, unit, samples};
  }
  /// A per-layer metric of a layer the workload never calls: an explicit 0
  /// with no samples.
  void SetNotApplicable(const std::string& name, const std::string& unit) {
    SetLayer(name, 0, unit, 0);
  }
  /// Median and the workload's fixed tail percentile of `ms` latencies as
  /// latency_p50_ms / latency_tail_ms.
  void SetLatency(const std::vector<double>& ms, double tail_pct);
  void Note(const std::string& key, const std::string& value) {
    std::lock_guard<std::mutex> lock(mu_);
    info_[key] = value;
  }

  std::atomic<int64_t> attempted{0};
  std::atomic<int64_t> failed{0};
  std::atomic<int64_t> wrong{0};
  std::atomic<int64_t> timeouts{0};

  /// Single-line JSON: host/info notes, counts and both metric sets.
  std::string ToJson() const;

 private:
  // The watchdog thread may write the report while a workload fills it.
  mutable std::mutex mu_;
  std::map<std::string, Metric> e2e_;
  std::map<std::string, Metric> layers_;
  std::map<std::string, std::string> info_;
};

// ---------------------------------------------------------------------------
// Open-loop rate ladder.

/// Absolute rates lo, lo*step, lo*step^2, ... up to hi (inclusive-ish).
std::vector<double> RateLadder(double lo, double hi, double step);

/// A backlog grows when requests wait longer and longer over a probe: the
/// trend of the per-request waits (in due order, evenly spaced), taken as
/// the Theil-Sen slope so that a burst of slow requests is not a trend,
/// adds up to more than `slack_ms` over the probe; or requests were left
/// unsent.
bool BacklogGrowing(const std::vector<double>& wait_ms, int64_t unsent,
                    double slack_ms);

/// Highest index of `ladder_size` rungs for which `passes(i)` holds,
/// assuming monotone pass/fail; -1 when rung 0 fails. Binary search, so it
/// probes O(log n) rungs.
int LadderSearch(int ladder_size, const std::function<bool(int)>& passes);

// ---------------------------------------------------------------------------
// Trace spans recorded around the benchmark's calls into each layer. Spans
// of one query share an id and name their parent span. Kept in memory and
// summarized at the end of the run.

class Tracer {
 public:
  struct Span {
    int64_t query_id = 0;
    const char* layer = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Opens a span; returns its handle (-1 when tracing is off).
  int32_t Begin(const char* layer, int64_t query_id, int32_t parent);
  void End(int32_t handle);
  /// Records a finished span (e.g. server-side time reported on the wire).
  int32_t Add(const char* layer, int64_t query_id, int64_t start_ns,
              int64_t end_ns, int32_t parent);

  /// Self time per layer in seconds: each span's duration minus the part
  /// its children cover (children never overlap their siblings here).
  std::map<std::string, double> SelfSeconds() const;

  /// Per root "query" span: the share of its duration no child
  /// layer accounts for. Used to check that layer self times sum to the
  /// end-to-end latency.
  std::vector<double> UnattributedShares() const;

  size_t size() const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when the tracer is off.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* layer, int64_t query_id,
             int32_t parent = -1)
      : tracer_(tracer), handle_(tracer->Begin(layer, query_id, parent)) {}
  ~ScopedSpan() { tracer_->End(handle_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t handle() const { return handle_; }

 private:
  Tracer* tracer_;
  int32_t handle_;
};

// ---------------------------------------------------------------------------
// Per-operation watchdog: an operation that misses its limit is counted as
// failed and the run ends at once with its partial counts written, instead
// of stalling the harness on a hung engine.

class Watchdog {
 public:
  /// `on_timeout` runs on the watchdog thread with the operation's name; it
  /// must not return (it writes the report and exits the process).
  Watchdog(double limit_seconds,
           std::function<void(const std::string&)> on_timeout);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Marks the start of an operation (one per thread slot).
  void Arm(int slot, const char* op);
  void Disarm(int slot);

  static constexpr int kSlots = 8;

 private:
  void Loop();

  const int64_t limit_ns_;
  std::function<void(const std::string&)> on_timeout_;
  std::atomic<int64_t> armed_at_[kSlots];
  std::atomic<const char*> op_[kSlots];
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;  // declared last: starts after the state it reads
};

// ---------------------------------------------------------------------------
// Process readings.

/// Restarts the VmHWM peak, so peak_rss_mb leaves out the oracle's set-up.
void ResetPeakRss();
/// A `Vm*` field of /proc/self/status in MB (e.g. "VmHWM", "VmSize").
double ProcStatusMb(const char* field);
/// User + system CPU seconds of this process (getrusage).
double ProcessCpuSeconds();
/// Host description for the report: CPU model and nproc.
std::string CpuModel();

}  // namespace rawbench

#endif  // RAWBENCH_HARNESS_H_
