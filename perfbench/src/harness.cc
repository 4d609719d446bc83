#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <tuple>

#include <sched.h>

#include "common/fingerprint.h"
#include "common/random.h"
#include "engine/batch_kernels.h"
#include "pufferfish/mqm_exact.h"

namespace pfbench {

using pf::Result;
using pf::Status;
using pf::Vector;

void Report::Fail(const std::string& why) {
  if (misses < 8) {
    std::fprintf(stderr, "output check failed: %s\n", why.c_str());
  }
  correct = false;
  ++misses;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics.push_back({name, value, unit});
}

std::string Fmt(const char* format, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, format);
  std::vsnprintf(buf, sizeof(buf), format, ap);
  va_end(ap);
  return buf;
}

std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream) {
  return pf::SplitMix64(pf::SplitMix64(seed) ^ (stream * 0x9E3779B97F4A7C15u));
}

namespace {

/// Peak resident set size of this process in MiB. VmHWM, not getrusage:
/// ru_maxrss survives execve, so it would report the launcher's peak.
double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB.
    }
  }
  return 0.0;
}

}  // namespace

CpuRotation::CpuRotation() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() { Unpin(); }

void CpuRotation::Unpin() {
  if (cpus_.empty()) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (int cpu : cpus_) CPU_SET(cpu, &mask);
  // Failure leaves the thread pinned; there is nothing better to do.
  (void)sched_setaffinity(0, sizeof(mask), &mask);
}

void CpuRotation::Next() {
  if (cpus_.size() < 2) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  CPU_SET(cpus_[next_++ % cpus_.size()], &mask);
  (void)sched_setaffinity(0, sizeof(mask), &mask);
}

pf::EngineOptions WorkloadEngineOptions() {
  pf::EngineOptions options;
  options.num_threads = kThreads;
  options.exact_max_nearby = kMaxNearby;
  options.approx_length_cutoff = std::size_t{1} << 40;
  return options;
}

pf::ChainMqmOptions ReferenceChainOptions(double epsilon) {
  const pf::EngineOptions engine = WorkloadEngineOptions();
  pf::ChainMqmOptions options;
  options.epsilon = epsilon;
  options.max_nearby = engine.exact_max_nearby;
  options.allow_stationary_shortcut = engine.allow_stationary_shortcut;
  options.num_threads = kThreads;
  return options;
}

pf::MqmAnalyzeOptions ReferenceNetworkOptions() {
  const pf::EngineOptions engine = WorkloadEngineOptions();
  pf::MqmAnalyzeOptions options;
  options.max_quilt_size = engine.max_quilt_size;
  options.num_threads = kThreads;
  options.backend = engine.network_backend;
  options.separator = engine.network_separator;
  return options;
}

// ---------------------------------------------------------------- queries --

Vector EvaluateTruth(pf::QueryKind kind, int state, std::size_t k,
                     const int* begin, std::size_t n) {
  const double w = static_cast<double>(n);
  switch (kind) {
    case pf::QueryKind::kSum:
    case pf::QueryKind::kMean: {
      double sum = 0.0;
      for (std::size_t t = 0; t < n; ++t) sum += begin[t];
      return {kind == pf::QueryKind::kSum ? sum : sum / w};
    }
    case pf::QueryKind::kStateFrequency: {
      double hits = 0.0;
      for (std::size_t t = 0; t < n; ++t) hits += begin[t] == state ? 1 : 0;
      return {hits / w};
    }
    default: {
      Vector freq(k, 0.0);
      for (std::size_t t = 0; t < n; ++t) {
        freq[static_cast<std::size_t>(begin[t])] += 1.0;
      }
      for (double& f : freq) f /= w;
      return freq;
    }
  }
}

Mix MakeMix(std::uint64_t seed, std::size_t count, std::size_t k,
            const pf::StateSequence& data,
            const std::vector<std::size_t>& windows) {
  pf::Rng rng(seed);
  Mix mix;
  std::map<std::tuple<int, int, std::size_t>, std::size_t> truth_index;
  const std::size_t length = data.size();
  const double k_minus_1 = static_cast<double>(k - 1);
  // Every (kind, window) pair equally often, in a seeded order: seeds
  // change the inputs, not the mix's cost.
  std::vector<std::pair<std::size_t, std::size_t>> shapes;
  for (std::size_t i = 0; i < count; ++i) {
    shapes.emplace_back(i % 4, (i / 4) % windows.size());
  }
  std::shuffle(shapes.begin(), shapes.end(), rng.engine());
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t pick = shapes[i].first;
    const int state = static_cast<int>(rng.UniformInt(k));
    const std::size_t win = windows[shapes[i].second];
    Request r;
    r.whole_record = win == 0 || win >= length;
    r.window_len = r.whole_record ? length : win;
    r.window = r.whole_record ? pf::DataWindow::All()
                              : pf::DataWindow::Last(r.window_len);
    const double inv = 1.0 / static_cast<double>(r.window_len);
    int truth_state = 0;
    switch (pick) {
      case 0:
        r.spec = pf::QuerySpec::Sum(kEpsilon);
        r.lipschitz = k_minus_1;
        break;
      case 1:
        r.spec = pf::QuerySpec::Mean(kEpsilon);
        r.lipschitz = k_minus_1 * inv;
        break;
      case 2:
        r.spec = pf::QuerySpec::StateFrequency(state, kEpsilon);
        r.lipschitz = inv;
        truth_state = state;
        break;
      default:
        r.spec = pf::QuerySpec::FrequencyHistogram(kEpsilon);
        r.lipschitz = 2.0 * inv;
        break;
    }
    const auto key = std::make_tuple(static_cast<int>(r.spec.kind),
                                     truth_state, r.window_len);
    auto it = truth_index.find(key);
    if (it == truth_index.end()) {
      it = truth_index.emplace(key, mix.truths.size()).first;
      mix.truths.push_back(EvaluateTruth(r.spec.kind, truth_state, k,
                                         data.data() + (length - r.window_len),
                                         r.window_len));
    }
    r.truth = it->second;
    mix.requests.push_back(std::move(r));
  }
  return mix;
}

// ------------------------------------------------------------ correctness --

void NoiseBand::Add(const double* released, const Vector& truth,
                    double scale) {
  for (std::size_t j = 0; j < truth.size(); ++j) {
    sum_ += std::fabs(released[j] - truth[j]) / scale;
    ++n_;
  }
}

void NoiseBand::Check(const char* what, Report* report) const {
  if (n_ == 0) {
    report->Fail(Fmt("%s: no released values to check", what));
    return;
  }
  const double mean = sum_ / static_cast<double>(n_);
  const double band = 6.0 / std::sqrt(static_cast<double>(n_));
  report->Line(Fmt("check %s: mean |noise|/(L*sigma) = %.4f over %llu "
                   "values (band 1 +- %.4f)",
                   what, mean, static_cast<unsigned long long>(n_), band));
  if (!(std::fabs(mean - 1.0) <= band)) {
    report->Fail(Fmt("%s: mean |released - truth|/(L*sigma) = %.6f is "
                     "outside 1 +- %.6f",
                     what, mean, band));
  }
}

void CheckRow(const char* what, double sigma, double epsilon,
              double sigma_ref, const double* value, const Request& request,
              const Mix& mix, NoiseBand* band, Report* report) {
  if (sigma != sigma_ref) {
    report->Fail(Fmt("%s: sigma %.17g differs from the reference %.17g",
                     what, sigma, sigma_ref));
  }
  if (epsilon != kEpsilon) {
    report->Fail(Fmt("%s: charged epsilon %.17g, expected %.17g", what,
                     epsilon, kEpsilon));
  }
  band->Add(value, mix.truths[request.truth], request.lipschitz * sigma_ref);
}

TrackedSession* SessionPool::Next(Report* report, std::uint64_t releases) {
  TrackedSession* current =
      sessions_.empty() ? nullptr : sessions_.back().get();
  if (current == nullptr || current->closed ||
      current->assigned + releases > per_session_) {
    if (current != nullptr) current->closed = true;
    Reap(report);
    auto tracked = std::make_unique<TrackedSession>();
    pf::SessionOptions options;
    options.epsilon_budget = static_cast<double>(per_session_) * kEpsilon;
    tracked->seed = SubSeed(seed_, 1000 + opened_);
    options.seed = tracked->seed;
    tracked->session = engine_->CreateSession(options);
    sessions_.push_back(std::move(tracked));
    ++opened_;
    current = sessions_.back().get();
  }
  current->assigned += releases;
  return current;
}

void SessionPool::Reap(Report* report) {
  auto it = sessions_.begin();
  while (it != sessions_.end()) {
    TrackedSession& s = **it;
    if (!s.closed || s.outstanding != 0) {
      ++it;
      continue;
    }
    const double spent = s.session->EpsilonSpent();
    const double expected = static_cast<double>(s.released) * kEpsilon;
    if (spent != expected) {
      report->Fail(Fmt("session ledger: EpsilonSpent() = %.17g after %llu "
                       "releases at epsilon %g (expected %.17g)",
                       spent, static_cast<unsigned long long>(s.released),
                       kEpsilon, expected));
    }
    it = sessions_.erase(it);
  }
}

void SessionPool::Finish(Report* report) {
  for (auto& s : sessions_) s->closed = true;
  Reap(report);
}

// ----------------------------------------------------------- layer stages --

Result<Vector> ReplayRelease(Tracer* tracer, pf::PrivacyEngine* engine,
                             const pf::StateSequence& data,
                             const Request& request,
                             std::uint64_t session_seed, std::uint64_t ticket,
                             double budget, pf::CompositionAccountant* ledger) {
  Result<pf::PrivacyEngine::CompiledQuery> compiled = [&] {
    Scope span(tracer, "privacy_engine.compile_warm");
    return engine->Compile(request.spec,
                           request.whole_record ? 0 : request.window_len);
  }();
  if (!compiled.ok()) return compiled.status();
  const pf::PrivacyEngine::CompiledQuery& q = compiled.value();
  {
    Scope span(tracer, "session.charge");
    const double max_epsilon = std::max(ledger->MaxEpsilon(), q.plan->epsilon);
    if (!pf::ComposedBudgetAdmits(ledger->num_releases() + 1, max_epsilon,
                                  budget)) {
      return Status::ResourceExhausted("replay ledger refused the release");
    }
    PF_RETURN_NOT_OK(ledger->RecordReleaseStrict(q.plan->epsilon,
                                                 q.plan->chain.active_quilt));
  }
  pf::StateSequence slice;
  const pf::StateSequence* source = &data;
  if (!request.whole_record) {
    Scope span(tracer, "session.slice");
    slice.assign(data.end() - static_cast<std::ptrdiff_t>(request.window_len),
                 data.end());
    source = &slice;
  }
  Vector truth;
  {
    Scope span(tracer, "query.evaluate");
    truth = q.query.fn(*source);
  }
  std::optional<pf::Rng> rng;
  {
    Scope span(tracer, "random.noise_setup");
    rng.emplace(pf::TicketNoiseSeed(session_seed, ticket));
  }
  Scope span(tracer, "mechanism.release_vector");
  return pf::ReleaseVector(*q.plan, truth, q.query.lipschitz, &*rng);
}

Result<pf::BatchReleaseResult> ReplayBatch(
    Tracer* tracer, pf::PrivacyEngine* engine, const pf::StateSequence& data,
    const pf::BatchQuerySpec& batch, std::uint64_t session_seed,
    std::uint64_t first_ticket, double budget,
    pf::CompositionAccountant* ledger, double* rows_per_unique) {
  Result<pf::CompiledBatchPlan> compiled = [&] {
    Scope span(tracer, "batch_plan.compile");
    return pf::CompileBatchPlan(engine, batch, data.size());
  }();
  if (!compiled.ok()) return compiled.status();
  const pf::CompiledBatchPlan& plan = compiled.value();
  const std::size_t rows = plan.num_rows();
  *rows_per_unique = static_cast<double>(rows) /
                     static_cast<double>(plan.logical.unique.size());
  {
    Scope span(tracer, "session.batch_charge");
    std::vector<double> epsilons(rows);
    double batch_max = 0.0;
    for (std::size_t r = 0; r < rows; ++r) {
      epsilons[r] = plan.compiled[plan.logical.row_to_unique[r]].plan->epsilon;
      batch_max = std::max(batch_max, epsilons[r]);
    }
    const double max_epsilon = std::max(ledger->MaxEpsilon(), batch_max);
    if (!pf::ComposedBudgetAdmits(ledger->num_releases() + rows, max_epsilon,
                                  budget)) {
      return Status::ResourceExhausted("replay ledger refused the batch");
    }
    PF_RETURN_NOT_OK(ledger->RecordBatchStrict(
        epsilons, plan.compiled.front().plan->chain.active_quilt));
  }
  Result<pf::BatchReleaseResult> released = [&] {
    Scope span(tracer, "batch_plan.execute");
    return pf::ExecuteBatchPlan(plan, data, session_seed, first_ticket);
  }();
  if (!released.ok() || !tracer->enabled()) return released;

  // The kernels ExecuteBatchPlan runs, timed one by one on the plan's own
  // inputs (buffers are prepared outside the spans).
  const pf::PhysicalBatchPlan& physical = plan.physical;
  std::vector<std::vector<std::int64_t>> counts(physical.aggregates.size());
  std::vector<std::vector<std::int64_t>> matches(physical.aggregates.size());
  std::vector<pf::AggregateStats> stats(physical.aggregates.size());
  for (std::size_t a = 0; a < physical.aggregates.size(); ++a) {
    counts[a].assign(physical.aggregates[a].spec.k, 0);
    matches[a].assign(physical.aggregates[a].spec.match_states.size(), 0);
    stats[a].counts = counts[a].data();
    stats[a].match_counts = matches[a].data();
  }
  {
    Scope span(tracer, "batch_kernels.aggregate");
    for (std::size_t a = 0; a < physical.aggregates.size(); ++a) {
      const pf::LogicalBatchPlan::Window& win =
          plan.logical.windows[physical.aggregates[a].window_index];
      pf::AggregateStates(data.data() + win.offset, win.length,
                          physical.aggregates[a].spec, &stats[a]);
    }
  }
  const pf::RecordBatch& out = released.value().batch;
  std::vector<double> lipschitz(rows);
  std::vector<double> scales(rows);
  std::vector<std::uint64_t> seeds(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    lipschitz[r] = plan.logical.unique[plan.logical.row_to_unique[r]].lipschitz;
    seeds[r] = pf::TicketNoiseSeed(session_seed, first_ticket + r);
  }
  {
    Scope span(tracer, "batch_kernels.clip");
    pf::ClipScales(lipschitz.data(), out.sigmas(), rows, scales.data());
  }
  std::vector<double> values(out.values(), out.values() + out.num_values());
  {
    Scope span(tracer, "batch_kernels.noise");
    pf::BatchLaplaceNoise(values.data(), out.offsets(), scales.data(),
                          seeds.data(), rows);
  }
  return released;
}

std::future<std::pair<double, double>> SubmitQueueProbe(
    pf::Executor* executor) {
  const double submitted = NowUs();
  Result<pf::Executor::Permit> permit = executor->TryAcquire();
  if (!permit.ok()) {
    std::promise<std::pair<double, double>> shed;
    shed.set_value({submitted, -1.0});
    return shed.get_future();
  }
  return executor->Submit(std::move(permit).value(), [submitted] {
    return std::make_pair(submitted, NowUs());
  });
}

namespace {

struct LayerMetric {
  const char* metric;
  const char* unit;
};

/// The q-quantile of m[key]; 0 when the workload never made the call, so
/// that a layer idle in a workload reads 0 and any time spent there shows.
double QuantileOf(const std::map<std::string, std::vector<double>>& m,
                  const std::string& key, double q = 0.5) {
  auto it = m.find(key);
  if (it == m.end() || it->second.empty()) return 0.0;
  return Quantile(it->second, q);
}

}  // namespace

void EmitLayerMetrics(const Tracer& tracer, const LayerFacts& facts,
                      const std::vector<std::string>& stages,
                      const char* residual, double e2e_p50_us,
                      double traced_e2e_p50_us,
                      const pf::Executor::Stats& executor_stats,
                      const pf::AnalysisCache::Stats& cache_stats,
                      Report* report) {
  const std::map<std::string, std::vector<double>> self =
      tracer.SelfTimesByName();
  auto span_us = [&](const char* name, double q = 0.5) {
    return QuantileOf(self, name, q);
  };
  auto fact = [&](const char* name) { return QuantileOf(facts.values, name); };

  const char* release_stages[] = {
      "privacy_engine.compile_warm", "session.charge",
      "session.slice",               "query.evaluate",
      "random.noise_setup",          "mechanism.release_vector"};
  double release_stage_sum = 0.0;
  for (const char* s : release_stages) release_stage_sum += span_us(s);

  const double extensions = static_cast<double>(cache_stats.extensions);
  const double misses = static_cast<double>(cache_stats.misses);
  const double extend_ratio =
      extensions + misses > 0.0 ? extensions / (extensions + misses) : 0.0;

  double stage_sum = 0.0;
  std::string breakdown;
  for (const std::string& s : stages) {
    const double v = span_us(s.c_str());
    stage_sum += v;
    breakdown += Fmt(" %s=%.3f", s.c_str(), v);
  }

  const std::vector<std::pair<LayerMetric, double>> values = {
      {{"privacy_engine.compile_warm_us", "us"},
       span_us("privacy_engine.compile_warm")},
      {{"session.charge_us", "us"}, span_us("session.charge")},
      {{"session.window_slice_us", "us"}, span_us("session.slice")},
      {{"query.evaluate_us", "us"}, span_us("query.evaluate")},
      {{"random.noise_setup_us", "us"}, span_us("random.noise_setup")},
      {{"mechanism.release_vector_us", "us"},
       span_us("mechanism.release_vector")},
      {{"session.unattributed_us", "us"},
       fact("session.release_e2e") - release_stage_sum},
      {{"executor.queue_wait_p50_us", "us"}, span_us("executor.queue_wait")},
      {{"executor.queue_wait_p99_us", "us"},
       span_us("executor.queue_wait", 0.99)},
      {{"executor.submitted", "count"},
       static_cast<double>(executor_stats.submitted)},
      {{"executor.shed", "count"}, static_cast<double>(executor_stats.shed)},
      {{"batch_plan.compile_us", "us"}, span_us("batch_plan.compile")},
      {{"batch_plan.execute_us", "us"}, span_us("batch_plan.execute")},
      {{"batch_plan.rows_per_unique", "ratio"},
       fact("batch_plan.rows_per_unique")},
      {{"session.batch_charge_us", "us"}, span_us("session.batch_charge")},
      {{"batch_kernels.aggregate_us", "us"},
       span_us("batch_kernels.aggregate")},
      {{"batch_kernels.clip_us", "us"}, span_us("batch_kernels.clip")},
      {{"batch_kernels.noise_us", "us"}, span_us("batch_kernels.noise")},
      {{"privacy_engine.append_us", "us"}, span_us("privacy_engine.append")},
      {{"privacy_engine.compile_after_append_us", "us"},
       span_us("privacy_engine.compile_after_append")},
      {{"mqm_exact.extend_us", "us"}, span_us("mqm_exact.extend")},
      {{"mqm_exact.extend_mallocs", "count"}, fact("mqm_exact.extend_mallocs")},
      {{"analysis_cache.hits", "count"},
       static_cast<double>(cache_stats.hits)},
      {{"analysis_cache.misses", "count"}, misses},
      {{"analysis_cache.extensions", "count"}, extensions},
      {{"analysis_cache.extend_ratio", "ratio"}, extend_ratio},
      {{"mqm_exact.analyze_ms", "ms"}, span_us("mqm_exact.analyze") / 1000.0},
      {{"mqm_exact.scored_nodes", "count"}, fact("mqm_exact.scored_nodes")},
      {{"mqm_exact.total_nodes", "count"}, fact("mqm_exact.total_nodes")},
      {{"mqm_exact.peak_bytes", "bytes"}, fact("mqm_exact.peak_bytes")},
      {{"matrix.multiply_us", "us"}, span_us("matrix.multiply")},
      {{"markov_quilt_mechanism.analyze_ms", "ms"},
       span_us("markov_quilt_mechanism.analyze") / 1000.0},
      {{"markov_quilt_mechanism.scored_nodes", "count"},
       fact("markov_quilt_mechanism.scored_nodes")},
      {{"elimination.induced_width", "count"},
       fact("elimination.induced_width")},
      {{"elimination.peak_bytes", "bytes"}, fact("elimination.peak_bytes")},
      {{"plan_store.encode_us", "us"}, span_us("plan_store.encode")},
      {{"plan_store.decode_us", "us"}, span_us("plan_store.decode")},
      {{"plan_store.snapshot_bytes", "bytes"},
       fact("plan_store.snapshot_bytes")},
      {{"privacy_engine.load_analyses_ms", "ms"},
       span_us("privacy_engine.load_analyses") / 1000.0},
      {{"trace.overhead_pct", "%"},
       100.0 * (traced_e2e_p50_us - e2e_p50_us) / e2e_p50_us},
      {{"trace.stage_sum_us", "us"}, stage_sum},
      {{"trace.e2e_p50_us", "us"}, e2e_p50_us},
      {{"trace.coverage_pct", "%"}, 100.0 * stage_sum / e2e_p50_us},
  };
  for (const auto& [m, v] : values) {
    if (!std::isfinite(v)) {
      report->Fail(Fmt("per-layer metric %s is not finite", m.metric));
      report->Add(m.metric, 0.0, m.unit);
      continue;
    }
    report->Add(m.metric, v, m.unit);
  }
  report->Line(Fmt("stage-sum coverage: stages sum to %.3f us of the %.3f us "
                   "end-to-end median (%.1f%%); residual %.3f us: %s",
                   stage_sum, e2e_p50_us, 100.0 * stage_sum / e2e_p50_us,
                   e2e_p50_us - stage_sum, residual));
  report->Line("stage medians (us):" + breakdown);
}

void EmitEndToEnd(const std::vector<double>& setup_s,
                  const Reservoir& latencies_us, std::size_t slices,
                  double tail_level, double throughput_per_s, Report* report) {
  std::size_t smallest = latencies_us.samples().size();
  for (const std::vector<double>& slice :
       SliceByTime(latencies_us.samples(), slices)) {
    smallest = std::min(smallest, slice.size());
  }
  if (SupportedTailLevel(smallest) < tail_level) {
    report->Line(Fmt("warning: a time slice of %zu samples does not "
                     "support p%g",
                     smallest, 100.0 * tail_level));
  }
  report->Add("setup_s", Median(setup_s), "s");
  report->Add("peak_rss_mb", PeakRssMiB(), "MiB");
  report->Add("latency_p50_us", Quantile(latencies_us.values(), 0.5), "us");
  report->Add("latency_tail_us",
              SlicedQuantile(latencies_us.samples(), slices, tail_level),
              "us");
  report->Add("throughput_per_s", throughput_per_s, "1/s");
}

}  // namespace pfbench
