#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace rawbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  auto rank = static_cast<int64_t>(std::ceil(p * n));
  rank = std::clamp<int64_t>(rank, 1, static_cast<int64_t>(samples.size()));
  return samples[static_cast<size_t>(rank - 1)];
}

bool SupportsPercentile(int64_t n, double p) {
  if (n <= 0) return false;
  const auto rank = static_cast<int64_t>(std::ceil(p * static_cast<double>(n)));
  return n - std::max<int64_t>(rank, 1) >= kMinBeyond;
}

void Report::SetLatency(const std::vector<double>& ms, double tail_pct) {
  const auto n = static_cast<int64_t>(ms.size());
  SetE2E("latency_p50_ms", Percentile(ms, 0.5), "ms", n);
  SetE2E("latency_tail_ms", Percentile(ms, tail_pct), "ms", n);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "p%g", tail_pct * 100);
  Note("latency_tail_percentile", buf);
  if (!SupportsPercentile(n, tail_pct)) {
    Note("latency_tail_warning",
         "too few samples for the stated tail percentile (" +
             std::to_string(n) + ")");
  }
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void AppendMetrics(std::ostringstream& out,
                   const std::map<std::string, Metric>& metrics) {
  out << "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << JsonEscape(name) << "\": {\"value\": " << JsonNumber(m.value)
        << ", \"unit\": \"" << JsonEscape(m.unit)
        << "\", \"samples\": " << m.samples << "}";
  }
  out << "}";
}

}  // namespace

std::string Report::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "{\"info\": {";
  bool first = true;
  for (const auto& [k, v] : info_) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << JsonEscape(k) << "\": \"" << JsonEscape(v) << "\"";
  }
  out << "}, \"attempted\": " << attempted.load()
      << ", \"failed\": " << failed.load() << ", \"wrong\": " << wrong.load()
      << ", \"timeouts\": " << timeouts.load() << ", \"end_to_end\": ";
  AppendMetrics(out, e2e_);
  out << ", \"per_layer\": ";
  AppendMetrics(out, layers_);
  out << "}";
  return out.str();
}

std::vector<double> RateLadder(double lo, double hi, double step) {
  std::vector<double> rates;
  for (double r = lo; r <= hi * 1.0001; r *= step) rates.push_back(r);
  return rates;
}

bool BacklogGrowing(const std::vector<double>& wait_ms, int64_t unsent,
                    double slack_ms) {
  if (unsent > 0) return true;
  const size_t n = wait_ms.size();
  if (n < 2) return false;
  // Theil-Sen: the median of the slopes between every pair of requests.
  std::vector<double> slopes;
  slopes.reserve(n * (n - 1) / 2);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      slopes.push_back((wait_ms[j] - wait_ms[i]) / static_cast<double>(j - i));
    }
  }
  auto mid = slopes.begin() + static_cast<std::ptrdiff_t>(slopes.size() / 2);
  std::nth_element(slopes.begin(), mid, slopes.end());
  return *mid * static_cast<double>(n - 1) > slack_ms;
}

int LadderSearch(int ladder_size, const std::function<bool(int)>& passes) {
  int lo = -1;             // highest rung known to pass
  int hi = ladder_size;    // lowest rung known to fail
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    if (passes(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

int32_t Tracer::Begin(const char* layer, int64_t query_id, int32_t parent) {
  if (!enabled_) return -1;
  return Add(layer, query_id, NowNs(), 0, parent);
}

void Tracer::End(int32_t handle) {
  if (handle < 0) return;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(handle)].end_ns = now;
}

int32_t Tracer::Add(const char* layer, int64_t query_id, int64_t start_ns,
                    int64_t end_ns, int32_t parent) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{query_id, layer, start_ns, end_ns, parent});
  return static_cast<int32_t>(spans_.size() - 1);
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

namespace {

/// Duration of each span minus its children's durations.
std::vector<int64_t> SelfNs(const std::vector<Tracer::Span>& spans) {
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const Tracer::Span& s : spans) {
    if (s.parent >= 0) {
      self[static_cast<size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  return self;
}

}  // namespace

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int64_t> self = SelfNs(spans_);
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].layer] += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

std::vector<double> Tracer::UnattributedShares() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int64_t> self = SelfNs(spans_);
  std::vector<double> shares;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int64_t dur = spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent < 0 && dur > 0 &&
        std::string(spans_[i].layer) == "query") {
      shares.push_back(static_cast<double>(self[i]) /
                       static_cast<double>(dur));
    }
  }
  return shares;
}

Watchdog::Watchdog(double limit_seconds,
                   std::function<void(const std::string&)> on_timeout)
    : limit_ns_(static_cast<int64_t>(limit_seconds * 1e9)),
      on_timeout_(std::move(on_timeout)) {
  for (int i = 0; i < kSlots; ++i) {
    armed_at_[i].store(0);
    op_[i].store("");
  }
  thread_ = std::thread([this] { Loop(); });
}

Watchdog::~Watchdog() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void Watchdog::Arm(int slot, const char* op) {
  op_[slot].store(op, std::memory_order_relaxed);
  armed_at_[slot].store(NowNs(), std::memory_order_release);
}

void Watchdog::Disarm(int slot) {
  armed_at_[slot].store(0, std::memory_order_release);
}

void Watchdog::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    cv_.wait_for(lock, std::chrono::milliseconds(100), [&] { return stop_; });
    if (stop_) break;
    const int64_t now = NowNs();
    for (int i = 0; i < kSlots; ++i) {
      const int64_t at = armed_at_[i].load(std::memory_order_acquire);
      if (at != 0 && now - at > limit_ns_) {
        on_timeout_(op_[i].load(std::memory_order_relaxed));
      }
    }
  }
}

void ResetPeakRss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

double ProcStatusMb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string key = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::strtod(line.c_str() + key.size(), nullptr) / 1024.0;
    }
  }
  return 0;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace rawbench
