// Shared pieces of the benchmark: arguments, the run report, seeded input
// generation, the output-correctness gate, and the per-layer stage calls
// that the traced run times (each one a call into a public library
// function, made from the benchmark's own code).
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "graphical/markov_chain.h"
#include "pufferfish/composition.h"
#include "trace.h"

namespace pfbench {

/// The workload settings every workload shares: at most 4 threads on a
/// 4-core host (3 executor/analysis workers plus the client thread).
constexpr std::size_t kThreads = 3;
constexpr std::size_t kMaxNearby = 16;
constexpr double kEpsilon = 0.5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Directory for snapshots and the span dump (inside the checkout).
  std::string scratch = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a run reports: the correctness verdict, op counts, the metrics of
/// the final JSON line, and human-readable lines printed before it.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> lines;
  /// Misses reported so far (only the first few are printed).
  int misses = 0;

  /// Records an output-check miss: the run will exit non-zero.
  void Fail(const std::string& why);
  void Add(const std::string& name, double value, const std::string& unit);
  void Line(const std::string& line) { lines.push_back(line); }
};

std::string Fmt(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// Deterministic 64-bit mix of (seed, stream): independent generator seeds
/// for each part of the input.
std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream);

/// Options every workload engine uses. The record-length cutoff is raised
/// so that growing chains stay on MQMExact.
pf::EngineOptions WorkloadEngineOptions();

/// The engine's MQMExact options at `epsilon`, for reference analyses.
pf::ChainMqmOptions ReferenceChainOptions(double epsilon);

/// The engine's Algorithm 2 options, for reference analyses.
pf::MqmAnalyzeOptions ReferenceNetworkOptions();

/// Moves the calling thread round-robin over the CPUs it may run on, so a
/// single-threaded leg samples every CPU equally instead of the one the
/// scheduler happened to pick: on a shared host the CPUs' speeds differ by
/// up to 25% (neighbours on sibling hyperthreads, interrupts). Restores
/// the original CPU mask when destroyed, before any thread that would
/// inherit the pinned mask is started.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the thread to the next CPU of the original mask.
  void Next();
  /// Restores the original mask (e.g. before starting threads).
  void Unpin();

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

// ---------------------------------------------------------------- queries --

/// One request of a workload mix: a query over a window of the record,
/// with the benchmark's own Lipschitz constant and an index into the
/// table of truths the benchmark evaluates itself.
struct Request {
  pf::QuerySpec spec;
  pf::DataWindow window;
  /// Resolved window length; equals the record length for the whole record.
  std::size_t window_len = 0;
  bool whole_record = false;
  double lipschitz = 0.0;
  std::size_t truth = 0;
};

/// A seeded mix of Sum / Mean / StateFrequency / FrequencyHistogram at
/// kEpsilon over the given windows (0 = whole record), every kind and
/// window equally often, with truths evaluated by the benchmark over
/// `data`.
struct Mix {
  std::vector<Request> requests;
  std::vector<pf::Vector> truths;
};
Mix MakeMix(std::uint64_t seed, std::size_t count, std::size_t k,
            const pf::StateSequence& data,
            const std::vector<std::size_t>& windows);

/// The benchmark's own evaluation of a built-in query over data[begin, end).
pf::Vector EvaluateTruth(pf::QueryKind kind, int state, std::size_t k,
                         const int* begin, std::size_t n);

// ------------------------------------------------------------ correctness --

/// Accumulates |released - truth| / (L * sigma) over released coordinates.
/// For correctly scaled Laplace noise each term is |Lap(1)|, whose mean is 1
/// and standard deviation 1; dropped or under-scaled noise pulls the mean
/// far below the band.
class NoiseBand {
 public:
  void Add(const double* released, const pf::Vector& truth, double scale);
  /// Fails the report unless the mean lies within 6 standard errors of 1.
  void Check(const char* what, Report* report) const;

 private:
  double sum_ = 0.0;
  std::uint64_t n_ = 0;
};

/// The checks every released row gets: sigma bit-equal to the reference,
/// the epsilon charged, and the noise-band term.
void CheckRow(const char* what, double sigma, double epsilon,
              double sigma_ref, const double* value, const Request& request,
              const Mix& mix, NoiseBand* band, Report* report);

/// A session plus the releases it made, so that the ledger can be checked
/// (EpsilonSpent() == K * epsilon) once all of them have resolved.
struct TrackedSession {
  std::unique_ptr<pf::Session> session;
  std::uint64_t seed = 0;
  /// Releases handed to the session (tickets 0 .. assigned - 1).
  std::uint64_t assigned = 0;
  /// Releases that came back OK.
  std::uint64_t released = 0;
  std::uint64_t outstanding = 0;
  bool closed = false;
};

/// Opens sessions with budget `releases * kEpsilon` and checks each ledger
/// when it is closed and drained.
class SessionPool {
 public:
  SessionPool(pf::PrivacyEngine* engine, std::uint64_t seed,
              std::uint64_t releases_per_session)
      : engine_(engine), seed_(seed), per_session_(releases_per_session) {}

  /// The session the next `releases` releases go to, opening a new one
  /// when the current one cannot take them all.
  TrackedSession* Next(Report* report, std::uint64_t releases = 1);
  /// Checks and drops every closed, drained session.
  void Reap(Report* report);
  /// Closes everything and checks every ledger (all futures resolved).
  void Finish(Report* report);

 private:
  pf::PrivacyEngine* engine_;
  std::uint64_t seed_;
  std::uint64_t per_session_;
  std::uint64_t opened_ = 0;
  std::vector<std::unique_ptr<TrackedSession>> sessions_;
};

// ----------------------------------------------------------- layer stages --

/// A chain engine with its model, record and mix: what the per-layer stage
/// calls run against.
struct ChainContext {
  ChainContext(pf::ModelSpec m, pf::MarkovChain c, pf::StateSequence d)
      : model(std::move(m)), chain(std::move(c)), data(std::move(d)) {}

  pf::ModelSpec model;
  pf::MarkovChain chain;
  pf::StateSequence data;
  std::unique_ptr<pf::PrivacyEngine> engine;
  Mix mix;
  double sigma_ref = 0.0;
};

/// Replays Session::Release's stages through their public functions, each
/// in its own span: warm Compile, ledger charge on `ledger`, evaluate,
/// per-ticket noise setup and ReleaseVector. Returns the released value.
pf::Result<pf::Vector> ReplayRelease(Tracer* tracer, pf::PrivacyEngine* engine,
                                     const pf::StateSequence& data,
                                     const Request& request,
                                     std::uint64_t session_seed,
                                     std::uint64_t ticket, double budget,
                                     pf::CompositionAccountant* ledger);

/// Replays SubmitColumnar's stages: CompileBatchPlan, the composed batch
/// charge on `ledger`, ExecuteBatchPlan, then the three kernels on the
/// plan's inputs in their own spans.
pf::Result<pf::BatchReleaseResult> ReplayBatch(
    Tracer* tracer, pf::PrivacyEngine* engine, const pf::StateSequence& data,
    const pf::BatchQuerySpec& batch, std::uint64_t session_seed,
    std::uint64_t first_ticket, double budget,
    pf::CompositionAccountant* ledger, double* rows_per_unique);

/// Sends a timestamping probe task through Executor::TryAcquire/Submit and
/// returns its future, resolving to (submit, start) times.
std::future<std::pair<double, double>> SubmitQueueProbe(pf::Executor* executor);

/// Per-layer figures that are counters or stats rather than span times.
struct LayerFacts {
  std::map<std::string, std::vector<double>> values;
  void Add(const std::string& name, double v) { values[name].push_back(v); }
};

/// Turns the spans and facts of a traced run into the per-layer metrics,
/// plus the stage-sum coverage of `stages` against `e2e_p50_us`, naming
/// what the residual holds. A layer the workload never called reads 0.
void EmitLayerMetrics(const Tracer& tracer, const LayerFacts& facts,
                      const std::vector<std::string>& stages,
                      const char* residual, double e2e_p50_us,
                      double traced_e2e_p50_us,
                      const pf::Executor::Stats& executor_stats,
                      const pf::AnalysisCache::Stats& cache_stats,
                      Report* report);

// --------------------------------------------------------------- workloads --

void RunInteractive(const Args& args, Report* report);
void RunColumnar(const Args& args, Report* report);
void RunStream(const Args& args, Report* report);
void RunAnalyze(const Args& args, Report* report);
void RunRestart(const Args& args, Report* report);

/// Emits the end-to-end metrics shared by every workload: the median
/// setup, peak RSS, the whole-run latency median, the tail as the median
/// over `slices` time slices of each slice's `tail_level` quantile, and
/// the throughput.
void EmitEndToEnd(const std::vector<double>& setup_s,
                  const Reservoir& latencies_us, std::size_t slices,
                  double tail_level, double throughput_per_s, Report* report);

}  // namespace pfbench

#endif  // PERFBENCH_HARNESS_H_
