// Unit tests of the benchmark's percentile and span self-time arithmetic.
// Plain asserts-with-messages so the test builds without any framework:
// exit code 0 means every case passed.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-9; }

void TestQuantiles() {
  using pfbench::Quantile;
  Expect(Quantile({}, 0.5) == 0.0, "empty sample has quantile 0");
  Expect(Quantile({7.0}, 0.99) == 7.0, "single sample");
  Expect(Near(Quantile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5),
         "median of an even sample interpolates");
  Expect(Near(Quantile({5.0, 1.0, 3.0}, 0.5), 3.0), "median of an odd sample");
  std::vector<double> ramp;
  for (int i = 0; i <= 100; ++i) ramp.push_back(i);
  Expect(Near(Quantile(ramp, 0.99), 99.0), "p99 of 0..100 is 99");
  Expect(Near(Quantile(ramp, 0.25), 25.0), "p25 of 0..100 is 25");
  Expect(Near(Quantile({0.0, 10.0}, 0.9), 9.0), "type-7 interpolation");
  Expect(Quantile(ramp, 0.0) == 0.0 && Quantile(ramp, 1.0) == 100.0,
         "extreme levels are min and max");
}

void TestSupportedTail() {
  using pfbench::SupportedTailLevel;
  Expect(SupportedTailLevel(5) == 0.5, "5 samples support only the median");
  Expect(SupportedTailLevel(99) == 0.5, "99 samples do not support p90");
  Expect(SupportedTailLevel(100) == 0.9, "100 samples support p90");
  Expect(SupportedTailLevel(999) == 0.9, "999 samples do not support p99");
  Expect(SupportedTailLevel(1000) == 0.99, "1000 samples support p99");
  Expect(SupportedTailLevel(10000) == 0.999, "10000 samples support p99.9");
}

void TestSlicedQuantile() {
  using pfbench::Sample;
  // Three slices of ten samples; the middle one holds a stall.
  std::vector<Sample> samples;
  for (int slice = 0; slice < 3; ++slice) {
    for (int i = 0; i < 10; ++i) {
      const double v = slice == 1 ? 1000.0 : 1.0 + i;
      samples.push_back({slice * 10.0 + i, v});
    }
  }
  const auto slices = pfbench::SliceByTime(samples, 3);
  Expect(slices.size() == 3 && slices[0].size() == 10 &&
             slices[1].size() == 10 && slices[2].size() == 10,
         "samples split evenly by start time");
  Expect(Near(pfbench::SlicedQuantile(samples, 3, 0.5), 5.5),
         "a stalled slice does not move the sliced median");
  Expect(Near(pfbench::SlicedQuantile(samples, 1, 1.0), 1000.0),
         "one slice is the whole-run quantile");
  Expect(pfbench::SlicedQuantile({}, 4, 0.9) == 0.0, "no samples");

  pfbench::Reservoir small(4, 7);
  for (int i = 0; i < 100; ++i) small.Add(i, i);
  Expect(small.samples().size() == 4 && small.seen() == 100,
         "the reservoir keeps its capacity and counts every offer");
}

void TestCoveredLength() {
  using pfbench::CoveredLength;
  using pfbench::SelfTime;
  Expect(Near(SelfTime(0, 10, {}), 10), "a leaf's self time is its duration");
  Expect(Near(SelfTime(0, 10, {{1, 3}, {5, 6}}), 7), "disjoint children");
  Expect(Near(SelfTime(0, 10, {{1, 5}, {3, 7}}), 4),
         "overlapping children count once");
  Expect(Near(SelfTime(0, 10, {{2, 4}, {2, 4}}), 8), "duplicate children");
  Expect(Near(SelfTime(0, 10, {{-5, 2}, {8, 20}}), 6),
         "children are clipped to the parent");
  Expect(Near(SelfTime(0, 10, {{3, 3}, {6, 5}}), 10),
         "empty and inverted children cover nothing");
  Expect(Near(CoveredLength(0, 10, {{4, 6}, {1, 2}, {5, 9}}), 6),
         "unsorted children are merged");
}

void TestTracerSelfTimes() {
  pfbench::Tracer tracer(true);
  tracer.Record("root", 0, 100);
  const int root = tracer.Begin("open");
  tracer.Record("child", tracer.spans()[1].start_us,
                tracer.spans()[1].start_us);
  tracer.End(root);
  const std::vector<double> self = tracer.SelfTimes();
  Expect(self.size() == 3, "three spans recorded");
  Expect(Near(self[0], 100), "a recorded root keeps its duration");
  Expect(tracer.spans()[2].parent == 1, "Record nests under the open span");
  Expect(self[1] >= 0.0, "self time is never negative");

  pfbench::Tracer off(false);
  const int id = off.Begin("ignored");
  off.End(id);
  off.Record("ignored", 0, 1);
  Expect(off.spans().empty(), "a disabled tracer records nothing");
}

}  // namespace

int main() {
  TestQuantiles();
  TestSupportedTail();
  TestSlicedQuantile();
  TestCoveredLength();
  TestTracerSelfTimes();
  if (g_failures == 0) std::printf("pfbench_stats_test: all passed\n");
  return g_failures == 0 ? 0 : 1;
}
