// rawbench: the RAW benchmark driver.
//
//   rawbench --workload explore|serve|refresh --seed N --seconds S
//            --trace 0|1 --data-dir DIR
//
// Generates the workload's inputs from the seed (cached in DIR, keyed by seed
// and size), runs the workload for about S seconds, checks every answer
// against an oracle, and prints one JSON report line: host metadata, counts
// of attempted and failed operations, the end-to-end metrics (untraced run)
// and, with --trace 1, the per-layer metrics of a traced run.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/kernels.h"
#include "engine/raw_engine.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: rawbench --workload explore|serve|refresh --seed N "
               "--seconds S --trace 0|1 --data-dir DIR\n");
  return 2;
}

rawbench::Report* g_report = nullptr;

void PrintReport() {
  std::printf("%s\n", g_report->ToJson().c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string data_dir;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--data-dir") {
      data_dir = value;
    } else {
      return Usage();
    }
  }
  if (workload.empty() || data_dir.empty() || seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    return Usage();
  }

  rawbench::Report report;
  g_report = &report;
  // Scan threads and load-generator threads stay within a 4-core box.
  const int nproc =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int scan_threads = std::min(nproc, 4);
  {
    raw::RawEngine probe;
    report.Note("host.jit_available",
                probe.Stats().jit_compiler_available() ? "true" : "false");
  }
  report.Note("host.cpu", rawbench::CpuModel());
  report.Note("host.nproc", std::to_string(nproc));
  report.Note("host.compiler", __VERSION__);
  report.Note("host.build_type", RAWBENCH_BUILD_TYPE);
  report.Note("host.kernels",
              std::string(raw::KernelTierName(raw::ActiveKernelTier())));
  report.Note("host.scan_threads", std::to_string(scan_threads));
  report.Note("workload", workload);
  report.Note("seed", std::to_string(seed));
  report.Note("trace", std::to_string(trace));
  report.Note("sizes",
              "d30_rows=" + std::to_string(rawbench::kD30Rows) +
                  " d120_rows=" + std::to_string(rawbench::kD120Rows) +
                  " higgs_events=" + std::to_string(rawbench::kHiggsEvents) +
                  "x" + std::to_string(rawbench::kHiggsFiles) +
                  " refresh_rows=" + std::to_string(rawbench::kRefreshRows));

  rawbench::InputStore inputs(data_dir, seed);
  inputs.EvictOtherSeeds(/*keep=*/1);

  // A hung operation fails the run: the report goes out with the counts so
  // far and the process ends without waiting for the stuck threads.
  const double limit = rawbench::kOperationLimitSeconds;
  rawbench::Watchdog watchdog(limit, [limit](const std::string& op) {
    g_report->attempted.fetch_add(1);
    g_report->failed.fetch_add(1);
    g_report->timeouts.fetch_add(1);
    g_report->Note("watchdog",
                   op + " exceeded " + std::to_string(limit) + " s");
    std::fprintf(stderr, "rawbench: watchdog: %s exceeded the limit\n",
                 op.c_str());
    PrintReport();
    std::_Exit(3);
  });

  rawbench::RunContext ctx;
  ctx.seed = seed;
  ctx.seconds = seconds;
  ctx.trace = trace == 1;
  ctx.scan_threads = scan_threads;
  ctx.inputs = &inputs;
  ctx.report = &report;
  ctx.watchdog = &watchdog;

  int rc = 2;
  if (workload == "explore") {
    rc = rawbench::RunExplore(ctx);
  } else if (workload == "serve") {
    rc = rawbench::RunServe(ctx);
  } else if (workload == "refresh") {
    rc = rawbench::RunRefresh(ctx);
  } else {
    return Usage();
  }
  if (rc != 0) return rc;
  report.SetE2E("peak_rss_mb", rawbench::ProcStatusMb("VmHWM"), "MB", 1);
  PrintReport();
  return 0;
}
