// pfbench: runs one benchmark workload and prints its metrics.
//
//   pfbench --workload interactive|columnar|stream|analyze|restart --seed N
//           --seconds S --trace 0|1 [--scratch DIR]
//
// Human-readable lines come first; the last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. The exit
// code is non-zero when any output check failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/matrix.h"
#include "harness.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: pfbench --workload "
               "interactive|columnar|stream|analyze|restart --seed N "
               "--seconds S --trace 0|1 [--scratch DIR]\n");
  return 2;
}

void PrintJson(const pfbench::Report& report) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const pfbench::Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  pfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else {
      return Usage();
    }
  }
  if (!(args.seconds > 0.0)) return Usage();

  pfbench::Report report;
  if (args.workload == "interactive") {
    pfbench::RunInteractive(args, &report);
  } else if (args.workload == "columnar") {
    pfbench::RunColumnar(args, &report);
  } else if (args.workload == "stream") {
    pfbench::RunStream(args, &report);
  } else if (args.workload == "analyze") {
    pfbench::RunAnalyze(args, &report);
  } else if (args.workload == "restart") {
    pfbench::RunRestart(args, &report);
  } else {
    return Usage();
  }
  if (report.attempted == 0) report.Fail("no operation was attempted");
  for (const pfbench::Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) {
      report.Fail("metric " + m.name + " is not finite");
    }
  }

  std::printf("# workload=%s seed=%llu trace=%d seconds=%g simd=%s "
              "threads=%zu\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0, args.seconds,
              pf::SimdLevelName(pf::ActiveSimdLevel()), pfbench::kThreads);
  for (const std::string& line : report.lines) {
    std::printf("%s\n", line.c_str());
  }
  for (const pfbench::Metric& m : report.metrics) {
    std::printf("%-42s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("failed_ratio = %.6g (%llu of %llu ops)\n",
              report.attempted == 0
                  ? 0.0
                  : static_cast<double>(report.failed) /
                        static_cast<double>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  std::printf("correct=%s attempted=%llu failed=%llu\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  if (!report.correct) {
    for (pfbench::Metric& m : report.metrics) {
      if (!std::isfinite(m.value)) m.value = 0.0;
    }
  }
  PrintJson(report);
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
