// Order statistics and span self-time arithmetic for the benchmark. Kept
// header-only and free of library dependencies so stats_test.cc pins it
// directly.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pfbench {

/// Quantile q in [0, 1] of an ascending sample, interpolating linearly
/// between the two closest ranks (Hyndman-Fan type 7, numpy's default).
/// 0 for an empty sample.
inline double QuantileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (q <= 0.0) return sorted.front();
  if (q >= 1.0) return sorted.back();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// Quantile of an unsorted sample (sorts a copy).
inline double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return QuantileSorted(values, q);
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// The highest of the levels 0.999, 0.99, 0.9 and 0.5 that leaves at least
/// ten samples above it in a sample of n (n * (1 - q) >= 10); 0.5 when none
/// does. A tail figure is only reported at a level the sample supports.
inline double SupportedTailLevel(std::size_t n) {
  const double levels[] = {0.999, 0.99, 0.9};
  for (double q : levels) {
    // Rounded so that n = 1000 supports 0.99 despite 1 - 0.99 != 0.01.
    if (std::floor(static_cast<double>(n) * (1.0 - q) + 1e-9) >= 10.0) {
      return q;
    }
  }
  return 0.5;
}

/// One timed operation: when it started and how long it took.
struct Sample {
  double t = 0.0;
  double v = 0.0;
};

/// A uniform sample of at most `capacity` operations from a stream
/// (Algorithm R, seeded), so that memory stays fixed however many
/// operations a run completes: the process's peak RSS must not grow with
/// the run's speed.
class Reservoir {
 public:
  Reservoir(std::size_t capacity, std::uint64_t seed)
      : capacity_(capacity), state_(seed) {
    samples_.reserve(capacity);
  }

  void Add(double t, double v) {
    ++seen_;
    if (samples_.size() < capacity_) {
      samples_.push_back({t, v});
      return;
    }
    const std::uint64_t slot = Next() % seen_;
    if (slot < capacity_) samples_[static_cast<std::size_t>(slot)] = {t, v};
  }

  const std::vector<Sample>& samples() const { return samples_; }
  std::vector<double> values() const {
    std::vector<double> v;
    v.reserve(samples_.size());
    for (const Sample& s : samples_) v.push_back(s.v);
    return v;
  }
  /// Operations offered, kept or not.
  std::uint64_t seen() const { return seen_; }

 private:
  std::uint64_t Next() {  // SplitMix64.
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15u);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9u;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBu;
    return z ^ (z >> 31);
  }

  std::size_t capacity_;
  std::uint64_t state_;
  std::uint64_t seen_ = 0;
  std::vector<Sample> samples_;
};

/// The samples split into `slices` equal spans of their start times.
inline std::vector<std::vector<double>> SliceByTime(
    const std::vector<Sample>& samples, std::size_t slices) {
  std::vector<std::vector<double>> out(slices);
  if (samples.empty() || slices == 0) return out;
  double lo = samples.front().t;
  double hi = lo;
  for (const Sample& s : samples) {
    lo = std::min(lo, s.t);
    hi = std::max(hi, s.t);
  }
  const double width = (hi - lo) / static_cast<double>(slices);
  for (const Sample& s : samples) {
    std::size_t i = width > 0.0 ? static_cast<std::size_t>((s.t - lo) / width)
                                : 0;
    out[std::min(i, slices - 1)].push_back(s.v);
  }
  return out;
}

/// The median, over time slices, of each slice's q-quantile: a tail
/// figure that a stall confined to a few slices does not move.
inline double SlicedQuantile(const std::vector<Sample>& samples,
                             std::size_t slices, double q) {
  std::vector<double> per_slice;
  for (std::vector<double>& slice : SliceByTime(samples, slices)) {
    if (!slice.empty()) per_slice.push_back(Quantile(std::move(slice), q));
  }
  return Median(std::move(per_slice));
}

/// Completion rate over [begin, end) cut into equal slices, counted online.
/// Each slice's rate runs between its first and last completion, so the
/// figure is not quantized to whole completions per slice.
class SliceRate {
 public:
  SliceRate(double begin, double end, std::size_t slices)
      : begin_(begin), width_((end - begin) / static_cast<double>(slices)),
        first_(slices, 0.0), last_(slices, 0.0), items_(slices, 0.0),
        count_(slices, 0) {}

  void Add(double t, double items) {
    if (t < begin_) return;
    const std::size_t s = static_cast<std::size_t>((t - begin_) / width_);
    if (s >= count_.size()) return;
    if (count_[s] == 0) {
      first_[s] = t;
    } else {
      items_[s] += items;  // Items completed after the slice's first one.
    }
    last_[s] = t;
    ++count_[s];
  }

  /// Per-slice rates (items per unit of t) of slices with two completions.
  std::vector<double> Rates() const {
    std::vector<double> rates;
    for (std::size_t s = 0; s < count_.size(); ++s) {
      if (count_[s] >= 2 && last_[s] > first_[s]) {
        rates.push_back(items_[s] / (last_[s] - first_[s]));
      }
    }
    return rates;
  }

 private:
  double begin_;
  double width_;
  std::vector<double> first_;
  std::vector<double> last_;
  std::vector<double> items_;
  std::vector<std::size_t> count_;
};

struct Interval {
  double start = 0.0;
  double end = 0.0;
};

/// Length of the part of [start, end] covered by the union of `children`
/// (each clipped to [start, end]; overlapping children count once).
inline double CoveredLength(double start, double end,
                            std::vector<Interval> children) {
  for (Interval& c : children) {
    c.start = std::max(c.start, start);
    c.end = std::min(c.end, end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  double covered = 0.0;
  double run_start = 0.0;
  double run_end = 0.0;
  bool open = false;
  for (const Interval& c : children) {
    if (c.end <= c.start) continue;
    if (open && c.start <= run_end) {
      run_end = std::max(run_end, c.end);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = c.start;
    run_end = c.end;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return covered;
}

/// Self time of a span: its duration minus the time its children cover.
inline double SelfTime(double start, double end,
                       std::vector<Interval> children) {
  return (end - start) - CoveredLength(start, end, std::move(children));
}

}  // namespace pfbench

#endif  // PERFBENCH_STATS_H_
