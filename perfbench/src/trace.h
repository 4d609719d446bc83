// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its calls into the library's public functions (never
// inside the library), kept in memory, and written out when the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "stats.h"

namespace pfbench {

using Clock = std::chrono::steady_clock;

/// Microseconds since the first call in this process.
inline double NowUs() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - origin)
      .count();
}

struct Span {
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
  std::uint64_t request = 0;
};

/// Single-threaded span stack. A disabled tracer records nothing, so the
/// untraced run pays only a branch per scope.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_request(std::uint64_t request) { request_ = request; }

  int Begin(const char* name) {
    if (!enabled_) return -1;
    spans_.push_back({name, NowUs(), 0.0, current_, request_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }

  void End(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_us = NowUs();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }

  /// Records a span measured elsewhere (e.g. on an executor worker) as a
  /// child of the currently open span.
  void Record(const char* name, double start_us, double end_us) {
    if (!enabled_) return;
    spans_.push_back({name, start_us, end_us, current_, request_});
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span, index-aligned with spans().
  std::vector<double> SelfTimes() const {
    std::vector<std::vector<Interval>> children(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        children[static_cast<std::size_t>(s.parent)].push_back(
            {s.start_us, s.end_us});
      }
    }
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = SelfTime(spans_[i].start_us, spans_[i].end_us,
                         std::move(children[i]));
    }
    return self;
  }

  /// Self times grouped by span name.
  std::map<std::string, std::vector<double>> SelfTimesByName() const {
    const std::vector<double> self = SelfTimes();
    std::map<std::string, std::vector<double>> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      by_name[spans_[i].name].push_back(self[i]);
    }
    return by_name;
  }

  /// Writes one CSV line per span (name, start, end, parent, request).
  bool WriteCsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "name,start_us,end_us,parent,request\n");
    for (const Span& s : spans_) {
      std::fprintf(f, "%s,%.3f,%.3f,%d,%llu\n", s.name, s.start_us, s.end_us,
                   s.parent, static_cast<unsigned long long>(s.request));
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  int current_ = -1;
  std::uint64_t request_ = 0;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer->Begin(name)) {}
  ~Scope() { tracer_->End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace pfbench

#endif  // PERFBENCH_TRACE_H_
