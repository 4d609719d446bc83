// The four workloads. Each is a closed loop from one client thread against
// the public PrivacyEngine / Session API, on inputs generated from the
// seed. The untraced run reports the end-to-end metrics; the traced run
// (--trace 1) times the calls into each layer and reports the per-layer
// split. Output checks run outside the timed intervals.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "data/topologies.h"
#include "harness.h"
#include "pufferfish/mqm_exact.h"
#include "pufferfish/plan_store.h"

namespace pfbench {
namespace {

using pf::Result;
using pf::Vector;

/// Set-up is repeated for kSetupSeconds of wall time, and at least
/// kMinSetups times; setup_s is the median. One set-up takes milliseconds,
/// so a few back to back mostly measure what the host did in those
/// milliseconds.
constexpr double kSetupSeconds = 1.0;
constexpr int kMinSetups = 9;

/// Latency samples kept per run (a uniform reservoir beyond this).
constexpr std::size_t kReservoir = std::size_t{1} << 17;
/// Time slices a throughput leg is cut into.
constexpr std::size_t kSlices = 10;

/// Throughput of a leg: the median of its per-slice rates (per second),
/// robust to a stall in a few slices.
double SliceThroughput(const SliceRate& rate, const char* what,
                       Report* report) {
  std::vector<double> rates = rate.Rates();
  for (double& r : rates) r *= 1e6;
  std::sort(rates.begin(), rates.end());
  if (rates.empty()) {
    report->Fail(Fmt("%s: no throughput slice completed", what));
    return 0.0;
  }
  report->Line(Fmt("%s slice rates (/s): min %.0f p25 %.0f median %.0f "
                   "p75 %.0f max %.0f",
                   what, rates.front(), QuantileSorted(rates, 0.25),
                   QuantileSorted(rates, 0.5), QuantileSorted(rates, 0.75),
                   rates.back()));
  return QuantileSorted(rates, 0.5);
}

/// Runs `make` (returning a unique_ptr) repeatedly as set out above, timing
/// each call into `setup_s`; the previous result is torn down outside the
/// timing. Returns the last result, or null when a set-up failed.
///
/// Each repeat starts on the next CPU: the thread is moved there and its
/// mask restored at once, so it mostly stays put for the few milliseconds
/// of a set-up while the analysis threads a set-up starts (some outlive it)
/// keep every CPU. Without the move a run's set-ups all ran on whichever
/// CPU the scheduler picked, and the CPUs' speeds differ by up to 25%.
template <typename Make>
auto RepeatSetup(Make make, std::vector<double>* setup_s, Report* report)
    -> decltype(make()) {
  decltype(make()) made;
  CpuRotation rotation;
  const double until = NowUs() + kSetupSeconds * 1e6;
  for (int i = 0; i < kMinSetups || NowUs() < until; ++i) {
    made.reset();
    rotation.Next();
    rotation.Unpin();
    const double t0 = NowUs();
    made = make();
    setup_s->push_back((NowUs() - t0) / 1e6);
    if (made == nullptr) return made;
  }
  std::vector<double> sorted = *setup_s;
  std::sort(sorted.begin(), sorted.end());
  report->Line(Fmt("setup: %zu repeats, min %.6f s, median %.6f s, max "
                   "%.6f s",
                   sorted.size(), sorted.front(), QuantileSorted(sorted, 0.5),
                   sorted.back()));
  return made;
}

std::vector<double> Durations(const Tracer& tracer, const char* name) {
  std::vector<double> out;
  for (const Span& s : tracer.spans()) {
    if (std::string(s.name) == name) out.push_back(s.end_us - s.start_us);
  }
  return out;
}

void WriteSpans(const Tracer& tracer, const Args& args, Report* report) {
  const std::string path = args.scratch + "/spans-" + args.workload + "-" +
                           std::to_string(args.seed) + ".csv";
  if (tracer.WriteCsv(path)) {
    report->Line(Fmt("spans: %zu written to %s", tracer.spans().size(),
                     path.c_str()));
  }
}

void CountOp(bool ok, const pf::Status& status, Report* report) {
  ++report->attempted;
  if (!ok) {
    if (report->failed < 4) {
      std::fprintf(stderr, "op failed: %s\n", status.ToString().c_str());
    }
    ++report->failed;
  }
}

/// The lazy cycle: stay or step forward, 1/2 each.
pf::Matrix LazyCycle(std::size_t k) {
  pf::Matrix p(k, k, 0.0);
  for (std::size_t s = 0; s < k; ++s) {
    p(s, s) = 0.5;
    p(s, (s + 1) % k) = 0.5;
  }
  return p;
}

/// A dense, fast-mixing walk whose off-diagonal mass tilts toward
/// neighbouring states.
pf::Matrix NeighbourWalk(std::size_t k) {
  pf::Matrix p(k, k, 0.0);
  for (std::size_t i = 0; i < k; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t d = i > j ? i - j : j - i;
      p(i, j) = (i == j ? 2.0 : 1.0) / (1.0 + static_cast<double>(d));
      row_sum += p(i, j);
    }
    for (std::size_t j = 0; j < k; ++j) p(i, j) /= row_sum;
  }
  return p;
}

/// A dense row-stochastic matrix with entries drawn from `seed`.
pf::Matrix RandomStochastic(std::size_t k, std::uint64_t seed) {
  pf::Rng rng(seed);
  pf::Matrix m(k, k);
  for (std::size_t r = 0; r < k; ++r) {
    double row_sum = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      m(r, c) = 0.05 + rng.Uniform();
      row_sum += m(r, c);
    }
    for (std::size_t c = 0; c < k; ++c) m(r, c) /= row_sum;
  }
  return m;
}

double ReferenceChainSigma(const pf::MarkovChain& chain, std::size_t length,
                           double epsilon, Report* report) {
  Result<pf::ChainMqmResult> ref =
      pf::MqmExactAnalyze({chain}, length, ReferenceChainOptions(epsilon));
  if (!ref.ok()) {
    report->Fail("reference MqmExactAnalyze: " + ref.status().ToString());
    return std::numeric_limits<double>::quiet_NaN();
  }
  return ref.value().sigma_max;
}

// ------------------------------------------------------- serving set-up --

constexpr std::size_t kServingLength = 4096;
constexpr std::size_t kServingStates = 8;

/// The ROADMAP acceptance configuration: a T = 4096, k = 8 lazy-cycle chain
/// (stationary initial), a seeded record, and a seeded request mix over the
/// whole record, Last(256) and Last(1024). Warm-up compiles every shape.
std::unique_ptr<ChainContext> SetupServing(std::uint64_t seed,
                                           std::size_t mix_size,
                                           Report* report) {
  const std::size_t k = kServingStates;
  pf::MarkovChain chain =
      pf::MarkovChain::Make(Vector(k, 1.0 / static_cast<double>(k)),
                            LazyCycle(k))
          .ValueOrDie();
  pf::Rng rng(SubSeed(seed, 1));
  pf::StateSequence data = chain.Sample(kServingLength, &rng);
  auto ctx = std::make_unique<ChainContext>(
      pf::ModelSpec::ChainClass({chain}, kServingLength), chain,
      std::move(data));
  Result<std::unique_ptr<pf::PrivacyEngine>> engine =
      pf::PrivacyEngine::Create(ctx->model, WorkloadEngineOptions());
  if (!engine.ok()) {
    report->Fail("engine create: " + engine.status().ToString());
    return nullptr;
  }
  ctx->engine = std::move(engine).value();
  ctx->mix = MakeMix(SubSeed(seed, 2), mix_size, k, ctx->data, {0, 256, 1024});
  for (const Request& r : ctx->mix.requests) {
    Result<pf::PrivacyEngine::CompiledQuery> c =
        ctx->engine->Compile(r.spec, r.whole_record ? 0 : r.window_len);
    if (!c.ok()) {
      report->Fail("warm-up compile: " + c.status().ToString());
      return nullptr;
    }
    if (c.value().query.lipschitz != r.lipschitz) {
      report->Fail(Fmt("Lipschitz constant %.17g differs from the "
                       "benchmark's %.17g",
                       c.value().query.lipschitz, r.lipschitz));
    }
  }
  return ctx;
}

std::unique_ptr<ChainContext> TimedServingSetup(const Args& args,
                                                std::size_t mix_size,
                                                std::vector<double>* setup_s,
                                                Report* report) {
  std::unique_ptr<ChainContext> ctx = RepeatSetup(
      [&] { return SetupServing(args.seed, mix_size, report); }, setup_s,
      report);
  if (ctx == nullptr) return nullptr;
  ctx->sigma_ref =
      ReferenceChainSigma(ctx->chain, kServingLength, kEpsilon, report);
  return ctx;
}

// ---------------------------------------------------------- interactive --

/// Leg A: synchronous Session::Release, one request at a time; a new
/// session every 1000 releases. Returns releases/s (median over time
/// slices). With an enabled tracer every release is a root span followed by
/// a replay of its stages (checked bit-identical).
double LegA(ChainContext* ctx, SessionPool* pool, double seconds,
          Tracer* tracer, std::size_t* next, NoiseBand* band,
          Reservoir* latencies, Report* report) {
  const std::vector<Request>& requests = ctx->mix.requests;
  pf::CompositionAccountant replay_ledger;
  std::uint64_t replay_seed = 0;  // Session whose ledger is mirrored.
  const double begin = NowUs();
  const double end = begin + seconds * 1e6;
  SliceRate rate(begin, end, kSlices);
  CpuRotation rotation;
  double now = begin;
  while (now < end) {
    if (*next % 1024 == 0) rotation.Next();
    const Request& r = requests[(*next)++ % requests.size()];
    TrackedSession* s = pool->Next(report);
    const std::uint64_t ticket = s->assigned - 1;
    tracer->set_request(*next);
    const int root = tracer->Begin("e2e.release");
    const double t0 = NowUs();
    Result<pf::ReleaseResult> res =
        r.whole_record ? s->session->Release(r.spec, ctx->data)
                       : s->session->Release(r.spec, ctx->data, r.window);
    now = NowUs();
    tracer->End(root);
    CountOp(res.ok(), res.status(), report);
    if (!res.ok()) continue;
    latencies->Add(t0, now - t0);
    rate.Add(now, 1.0);
    ++s->released;
    const pf::ReleaseResult& out = res.value();
    CheckRow("interactive release", out.sigma, out.epsilon, ctx->sigma_ref,
             out.value.data(), r, ctx->mix, band, report);
    if (out.ticket != ticket) report->Fail("interactive: ticket out of order");
    if (tracer->enabled()) {
      if (replay_seed != s->seed) {
        replay_ledger.Reset();
        replay_seed = s->seed;
      }
      Result<Vector> replay = [&] {
        Scope span(tracer, "replay.release");
        return ReplayRelease(tracer, ctx->engine.get(), ctx->data, r, s->seed,
                             ticket, s->session->epsilon_budget(),
                             &replay_ledger);
      }();
      if (!replay.ok() || replay.value() != out.value) {
        report->Fail("interactive: stage replay is not bit-identical to "
                     "Session::Release");
      }
      now = NowUs();
    }
  }
  return SliceThroughput(rate, "release", report);
}

/// Leg B: Session::Submit with 64 futures outstanding. Returns rows/s
/// (median over time slices). With probe_every > 0, every probe_every-th
/// submission also sends a timestamping probe task through the executor.
double LegB(pf::PrivacyEngine* engine, ChainContext* ctx, SessionPool* pool,
            double seconds, std::size_t probe_every, std::size_t* next,
            NoiseBand* band, std::vector<std::pair<double, double>>* waits,
            Report* report) {
  constexpr std::size_t kOutstanding = 64;
  struct Pending {
    std::future<Result<pf::ReleaseResult>> future;
    const Request* request;
    TrackedSession* session;
    std::uint64_t ticket;
  };
  const std::vector<Request>& requests = ctx->mix.requests;
  auto shared = std::make_shared<const pf::StateSequence>(ctx->data);
  std::deque<Pending> queue;
  std::vector<std::future<std::pair<double, double>>> probes;
  std::size_t submitted = 0;
  auto resolve = [&](Pending& p) {
    Result<pf::ReleaseResult> res = p.future.get();
    --p.session->outstanding;
    CountOp(res.ok(), res.status(), report);
    if (!res.ok()) return false;
    ++p.session->released;
    const pf::ReleaseResult& out = res.value();
    CheckRow("interactive submit", out.sigma, out.epsilon, ctx->sigma_ref,
             out.value.data(), *p.request, ctx->mix, band, report);
    if (out.ticket != p.ticket) report->Fail("interactive: submit ticket");
    return true;
  };
  const double begin = NowUs();
  const double end = begin + seconds * 1e6;
  SliceRate rate(begin, end, kSlices);
  while (NowUs() < end) {
    while (queue.size() < kOutstanding) {
      const Request& r = requests[(*next)++ % requests.size()];
      TrackedSession* s = pool->Next(report);
      ++s->outstanding;
      queue.push_back(
          {r.whole_record ? s->session->Submit(r.spec, shared)
                          : s->session->Submit(r.spec, ctx->data, r.window),
           &r, s, s->assigned - 1});
      if (probe_every > 0 && ++submitted % probe_every == 0) {
        probes.push_back(SubmitQueueProbe(&engine->executor()));
      }
    }
    Pending p = std::move(queue.front());
    queue.pop_front();
    if (resolve(p)) rate.Add(NowUs(), 1.0);
  }
  for (Pending& p : queue) resolve(p);
  for (auto& f : probes) {
    const std::pair<double, double> t = f.get();
    if (t.second >= 0.0) waits->push_back(t);
  }
  return SliceThroughput(rate, "submit", report);
}

}  // namespace

void RunInteractive(const Args& args, Report* report) {
  std::vector<double> setup_s;
  std::unique_ptr<ChainContext> ctx =
      TimedServingSetup(args, 4096, &setup_s, report);
  if (ctx == nullptr) return;
  SessionPool pool(ctx->engine.get(), SubSeed(args.seed, 3), 1000);
  NoiseBand band;
  std::size_t next = 0;
  Tracer off(false);
  Reservoir release(kReservoir, SubSeed(args.seed, 20));
  std::vector<std::pair<double, double>> waits;

  if (!args.trace) {
    const double releases_per_s =
        LegA(ctx.get(), &pool, args.seconds / 2, &off, &next, &band, &release,
             report);
    const double rows_per_s = LegB(ctx->engine.get(), ctx.get(), &pool,
                                   args.seconds / 2, 0, &next, &band, &waits,
                                   report);
    pool.Finish(report);
    band.Check("interactive", report);
    // Leg B's rate is printed but not gated: on a shared host its
    // run-to-run spread (23-27%) reaches the largest bound allowed.
    EmitEndToEnd(setup_s, release, kSlices, 0.99, releases_per_s, report);
    report->Line(Fmt("release_p50_us = %.3f us, release_p99_us = %.3f us, "
                     "%.0f releases/s (leg A, n = %llu)",
                     Quantile(release.values(), 0.5),
                     Quantile(release.values(), 0.99), releases_per_s,
                     static_cast<unsigned long long>(release.seen())));
    report->Line(Fmt("submit_rows_per_s = %.0f rows/s (leg B, 64 "
                     "outstanding, %zu workers)",
                     rows_per_s, kThreads));
    return;
  }

  // Traced run: an untraced leg A for the reference median, a traced leg A
  // with stage replay, then leg B with queue probes at 3 workers and at 1.
  const double quarter = args.seconds / 4;
  LegA(ctx.get(), &pool, quarter, &off, &next, &band, &release, report);
  Tracer tracer(true);
  Reservoir traced(kReservoir, SubSeed(args.seed, 21));
  LegA(ctx.get(), &pool, quarter, &tracer, &next, &band, &traced, report);
  const double rows3 = LegB(ctx->engine.get(), ctx.get(), &pool, quarter, 16,
                            &next, &band, &waits, report);
  for (const auto& w : waits) {
    tracer.Record("executor.queue_wait", w.first, w.second);
  }
  pool.Finish(report);

  // The same leg on a one-worker engine (thread-scaling note).
  pf::EngineOptions one = WorkloadEngineOptions();
  one.num_threads = 1;
  auto engine1 = pf::PrivacyEngine::Create(ctx->model, one).ValueOrDie();
  std::vector<std::pair<double, double>> waits1;
  double rows1 = 0.0;
  {
    for (const Request& r : ctx->mix.requests) {
      if (!engine1->Compile(r.spec, r.whole_record ? 0 : r.window_len).ok()) {
        report->Fail("one-worker warm-up compile failed");
      }
    }
    SessionPool pool1(engine1.get(), SubSeed(args.seed, 4), 1000);
    rows1 = LegB(engine1.get(), ctx.get(), &pool1, quarter, 16, &next, &band,
                 &waits1, report);
    pool1.Finish(report);
  }
  band.Check("interactive", report);
  auto wait_q = [](const std::vector<std::pair<double, double>>& w, double q) {
    std::vector<double> v;
    for (const auto& p : w) v.push_back(p.second - p.first);
    return Quantile(v, q);
  };
  report->Line(Fmt("thread scaling (leg B, 64 outstanding): 1 worker %.0f "
                   "rows/s, queue wait p50 %.2f us p99 %.2f us; %zu workers "
                   "%.0f rows/s, queue wait p50 %.2f us p99 %.2f us",
                   rows1, wait_q(waits1, 0.5), wait_q(waits1, 0.99), kThreads,
                   rows3, wait_q(waits, 0.5), wait_q(waits, 0.99)));

  LayerFacts facts;
  for (double v : release.values()) facts.Add("session.release_e2e", v);
  EmitLayerMetrics(tracer, facts,
                   {"privacy_engine.compile_warm", "session.charge",
                    "session.slice", "query.evaluate", "random.noise_setup",
                    "mechanism.release_vector"},
                   "Release's own glue (window resolve, ledger mutex, "
                   "Result assembly) that no public call isolates",
                   Median(release.values()),
                   Median(Durations(tracer, "e2e.release")),
                   ctx->engine->executor().stats(), ctx->engine->cache_stats(),
                   report);
  WriteSpans(tracer, args, report);
}

// ------------------------------------------------------------- columnar --

namespace {

constexpr std::size_t kBatchRows = 1024;
constexpr std::size_t kDistinctBatches = 16;

struct ColumnarState {
  std::vector<pf::BatchQuerySpec> batches;
  /// Values of the first batch released, for the scalar replay check.
  std::vector<double> first_values;
  std::vector<std::size_t> first_offsets;
  std::uint64_t first_seed = 0;
  bool have_first = false;
};

/// SubmitColumnar with 2 batches outstanding. Latency is submit -> future
/// resolved; returns rows/s. With an enabled tracer every batch also sends
/// a queue probe and is replayed stage by stage (checked bit-identical).
double ColumnarLoop(ChainContext* ctx, ColumnarState* state,
                    SessionPool* pool, double seconds, Tracer* tracer,
                    std::size_t* next, NoiseBand* band, Reservoir* latencies,
                    LayerFacts* facts, Report* report) {
  constexpr std::size_t kOutstanding = 2;
  struct Pending {
    std::future<Result<pf::BatchReleaseResult>> future;
    std::size_t batch;
    TrackedSession* session;
    std::uint64_t first_ticket;
    double submitted_us;
  };
  std::deque<Pending> queue;
  std::vector<std::future<std::pair<double, double>>> probes;
  const double begin = NowUs();
  const double end = begin + seconds * 1e6;
  SliceRate rate(begin, end, kSlices);
  pf::CompositionAccountant replay_ledger;
  std::uint64_t replay_seed = 0;  // Session whose ledger is mirrored.
  auto resolve = [&](Pending& p, bool timed) {
    Result<pf::BatchReleaseResult> res = p.future.get();
    const double t_done = NowUs();
    --p.session->outstanding;
    CountOp(res.ok(), res.status(), report);
    if (!res.ok()) return;
    if (timed) {
      latencies->Add(p.submitted_us, t_done - p.submitted_us);
      rate.Add(t_done, static_cast<double>(kBatchRows));
      tracer->Record("e2e.batch", p.submitted_us, t_done);
    }
    p.session->released += kBatchRows;
    const pf::RecordBatch& rb = res.value().batch;
    const std::size_t base = p.batch * kBatchRows;
    for (std::size_t row = 0; row < rb.num_rows(); ++row) {
      const Request& r = ctx->mix.requests[base + row];
      CheckRow("columnar row", rb.sigmas()[row], rb.epsilons()[row],
               ctx->sigma_ref, rb.row(row), r, ctx->mix, band, report);
      if (rb.tickets()[row] != p.first_ticket + row ||
          rb.row_size(row) != ctx->mix.truths[r.truth].size()) {
        report->Fail("columnar: row ticket or width mismatch");
      }
    }
    if (!state->have_first) {
      state->have_first = true;
      state->first_seed = p.session->seed;
      state->first_values.assign(rb.values(), rb.values() + rb.num_values());
      state->first_offsets.assign(rb.offsets(),
                                  rb.offsets() + rb.num_rows() + 1);
      if (p.first_ticket != 0) report->Fail("columnar: first ticket is not 0");
    }
    if (tracer->enabled()) {
      if (replay_seed != p.session->seed) {
        replay_ledger.Reset();
        replay_seed = p.session->seed;
      }
      double rows_per_unique = 0.0;
      Result<pf::BatchReleaseResult> replay = [&] {
        Scope span(tracer, "replay.batch");
        return ReplayBatch(tracer, ctx->engine.get(), ctx->data,
                           state->batches[p.batch], p.session->seed,
                           p.first_ticket, p.session->session->epsilon_budget(),
                           &replay_ledger, &rows_per_unique);
      }();
      facts->Add("batch_plan.rows_per_unique", rows_per_unique);
      if (!replay.ok() ||
          !std::equal(rb.values(), rb.values() + rb.num_values(),
                      replay.value().batch.values())) {
        report->Fail("columnar: stage replay is not bit-identical to "
                     "SubmitColumnar");
      }
    }
  };
  while (NowUs() < end) {
    while (queue.size() < kOutstanding) {
      const std::size_t b = (*next)++ % state->batches.size();
      TrackedSession* s = pool->Next(report, kBatchRows);
      ++s->outstanding;
      const double t = NowUs();
      queue.push_back({s->session->SubmitColumnar(state->batches[b], ctx->data),
                       b, s, s->assigned - kBatchRows, t});
      if (tracer->enabled()) {
        probes.push_back(SubmitQueueProbe(&ctx->engine->executor()));
      }
    }
    Pending p = std::move(queue.front());
    queue.pop_front();
    resolve(p, true);
  }
  for (Pending& p : queue) resolve(p, false);
  for (auto& f : probes) {
    const std::pair<double, double> t = f.get();
    if (t.second >= 0.0) {
      tracer->Record("executor.queue_wait", t.first, t.second);
    }
  }
  return SliceThroughput(rate, "columnar", report);
}

/// The first columnar batch, replayed through scalar Submit in a fresh
/// session with the same seed, must be bit-identical.
void CheckScalarReplay(ChainContext* ctx, const ColumnarState& state,
                       Report* report) {
  if (!state.have_first) {
    report->Fail("columnar: no batch completed");
    return;
  }
  pf::SessionOptions options;
  options.seed = state.first_seed;
  auto session = ctx->engine->CreateSession(options);
  auto shared = std::make_shared<const pf::StateSequence>(ctx->data);
  std::vector<std::future<Result<pf::ReleaseResult>>> futures;
  for (std::size_t row = 0; row < kBatchRows; ++row) {
    const Request& r = ctx->mix.requests[row];
    futures.push_back(r.whole_record
                          ? session->Submit(r.spec, shared)
                          : session->Submit(r.spec, ctx->data, r.window));
  }
  for (std::size_t row = 0; row < kBatchRows; ++row) {
    Result<pf::ReleaseResult> res = futures[row].get();
    const std::size_t offset = state.first_offsets[row];
    const std::size_t width = state.first_offsets[row + 1] - offset;
    const double* expected = state.first_values.data() + offset;
    if (!res.ok() || res.value().value.size() != width ||
        !std::equal(expected, expected + width, res.value().value.begin())) {
      report->Fail(Fmt("columnar: row %zu differs from its scalar Submit "
                       "replay",
                       row));
      return;
    }
  }
  report->Line("check columnar: first batch bit-identical to scalar Submit");
}

}  // namespace

void RunColumnar(const Args& args, Report* report) {
  std::vector<double> setup_s;
  std::unique_ptr<ChainContext> ctx = TimedServingSetup(
      args, kBatchRows * kDistinctBatches, &setup_s, report);
  if (ctx == nullptr) return;
  ColumnarState state;
  for (std::size_t b = 0; b < kDistinctBatches; ++b) {
    pf::BatchQuerySpec batch;
    for (std::size_t row = 0; row < kBatchRows; ++row) {
      const Request& r = ctx->mix.requests[b * kBatchRows + row];
      batch.Add(r.spec, r.window);
    }
    state.batches.push_back(std::move(batch));
  }
  // Eight batches per session: budget 8192 * epsilon.
  SessionPool pool(ctx->engine.get(), SubSeed(args.seed, 3), 8 * kBatchRows);
  NoiseBand band;
  std::size_t next = 0;
  Tracer off(false);
  LayerFacts facts;
  Reservoir batch(kReservoir, SubSeed(args.seed, 20));

  if (!args.trace) {
    const double rows_per_s =
        ColumnarLoop(ctx.get(), &state, &pool, args.seconds, &off, &next,
                     &band, &batch, &facts, report);
    pool.Finish(report);
    band.Check("columnar", report);
    CheckScalarReplay(ctx.get(), state, report);
    EmitEndToEnd(setup_s, batch, kSlices, 0.9, rows_per_s, report);
    report->Line(Fmt("batch_p50_ms = %.4f ms, batch_p99_ms = %.4f ms, "
                     "batch_rows_per_s = %.0f rows/s (n = %llu batches)",
                     Quantile(batch.values(), 0.5) / 1e3,
                     Quantile(batch.values(), 0.99) / 1e3, rows_per_s,
                     static_cast<unsigned long long>(batch.seen())));
    return;
  }

  ColumnarLoop(ctx.get(), &state, &pool, args.seconds * 0.4, &off, &next,
               &band, &batch, &facts, report);
  Tracer tracer(true);
  Reservoir traced(kReservoir, SubSeed(args.seed, 21));
  ColumnarLoop(ctx.get(), &state, &pool, args.seconds * 0.4, &tracer, &next,
               &band, &traced, &facts, report);
  pool.Finish(report);
  band.Check("columnar", report);
  const std::map<std::string, std::vector<double>> self =
      tracer.SelfTimesByName();
  auto med = [&](const char* n) {
    auto it = self.find(n);
    return it == self.end() ? 0.0 : Median(it->second);
  };
  report->Line(Fmt("batch_plan.execute = %.2f us, of which kernels: "
                   "aggregate %.2f + clip %.2f + noise %.2f us",
                   med("batch_plan.execute"), med("batch_kernels.aggregate"),
                   med("batch_kernels.clip"), med("batch_kernels.noise")));
  EmitLayerMetrics(tracer, facts,
                   {"batch_plan.compile", "session.batch_charge",
                    "executor.queue_wait", "batch_plan.execute"},
                   "task hand-off and future resolution, the RecordBatch "
                   "allocation, and CPU shared with the other batch in flight",
                   Median(batch.values()), Median(traced.values()),
                   ctx->engine->executor().stats(), ctx->engine->cache_stats(),
                   report);
  WriteSpans(tracer, args, report);
}

// --------------------------------------------------------------- stream --

namespace {

constexpr std::size_t kStreamStart = 20000;
constexpr std::size_t kStreamStates = 8;
constexpr std::size_t kStreamWindow = 1024;
constexpr std::size_t kTicksPerEpisode = 512;
constexpr std::size_t kQueriesPerTick = 4;

/// One append epoch sequence: an engine that starts at kStreamStart
/// observations and grows by the seeded deltas, with the trajectory that
/// supplies the appended observations.
struct Episode {
  std::uint64_t index = 0;
  std::unique_ptr<ChainContext> ctx;
  std::vector<std::size_t> deltas;
  pf::StateSequence trajectory;
  std::size_t tick = 0;
};

pf::MarkovChain StreamChain() {
  // A point-mass initial: the stationary shortcut does not apply, so every
  // append runs the resumable analysis. Fixed, so that every seed's appends
  // cost the same.
  const std::size_t k = kStreamStates;
  Vector initial(k, 0.0);
  initial[0] = 1.0;
  return pf::MarkovChain::Make(std::move(initial), NeighbourWalk(k))
      .ValueOrDie();
}

std::unique_ptr<Episode> MakeEpisode(const Args& args, std::uint64_t index,
                                     Report* report) {
  const pf::MarkovChain chain = StreamChain();
  auto ep = std::make_unique<Episode>();
  ep->index = index;
  pf::Rng rng(SubSeed(args.seed, 100 + index));
  // Each delta equally often in a seeded order, so every episode appends
  // the same number of observations.
  const std::size_t choices[] = {1, 16, 256};
  std::size_t total = kStreamStart;
  for (std::size_t t = 0; t < kTicksPerEpisode; ++t) {
    ep->deltas.push_back(choices[t % 3]);
    total += ep->deltas.back();
  }
  std::shuffle(ep->deltas.begin(), ep->deltas.end(), rng.engine());
  ep->trajectory = chain.Sample(total, &rng);
  pf::StateSequence start(ep->trajectory.begin(),
                          ep->trajectory.begin() + kStreamStart);
  ep->ctx = std::make_unique<ChainContext>(
      pf::ModelSpec::ChainClass({chain}, kStreamStart), chain,
      std::move(start));
  Result<std::unique_ptr<pf::PrivacyEngine>> engine =
      pf::PrivacyEngine::Create(ep->ctx->model, WorkloadEngineOptions());
  if (!engine.ok()) {
    report->Fail("stream engine: " + engine.status().ToString());
    return nullptr;
  }
  ep->ctx->engine = std::move(engine).value();
  ep->ctx->mix = MakeMix(SubSeed(args.seed, 6), 4 * kQueriesPerTick,
                         kStreamStates, ep->ctx->data, {kStreamWindow});
  for (const Request& r : ep->ctx->mix.requests) {
    if (!ep->ctx->engine->Compile(r.spec, kStreamWindow).ok()) {
      report->Fail("stream warm-up compile failed");
      return nullptr;
    }
  }
  return ep;
}

struct StreamTotals {
  explicit StreamTotals(std::uint64_t seed) : append_us(kReservoir, seed) {}

  Reservoir append_us;
  double tick_us = 0.0;
  std::uint64_t ticks = 0;
  std::uint64_t episodes = 0;
  pf::AnalysisCache::Stats cache;
};

/// Runs ticks until `seconds` of wall time pass, starting new episodes as
/// old ones end. A tick appends delta observations, grows the record to
/// match, and releases kQueriesPerTick Last(1024) queries from a fresh
/// session; its latency runs from AppendObservations to the first released
/// value. With an enabled tracer the tick's calls are spans and a shadow
/// ChainMqmAnalysis replays the extension.
void StreamLoop(const Args& args, std::unique_ptr<Episode>* episode,
                std::uint64_t* episode_index, double seconds, Tracer* tracer,
                NoiseBand* band, StreamTotals* totals, LayerFacts* facts,
                Report* report) {
  const double end = NowUs() + seconds * 1e6;
  std::optional<pf::ChainMqmAnalysis> shadow;
  // sigma of the last tick bit-equal to the reference at the record's
  // current length.
  auto check_sigma = [&](Episode* ep) {
    ChainContext* ctx = ep->ctx.get();
    if (ep->tick == 0) return;
    const double ref = ReferenceChainSigma(ctx->chain, ctx->data.size(),
                                           kEpsilon, report);
    Result<pf::PrivacyEngine::CompiledQuery> c =
        ctx->engine->Compile(ctx->mix.requests[0].spec, kStreamWindow);
    if (!c.ok() || c.value().plan->sigma != ref || ctx->sigma_ref != ref) {
      report->Fail(Fmt("stream: sigma at length %zu differs from the "
                       "reference",
                       ctx->data.size()));
    }
  };
  auto finish_episode = [&](Episode* ep) {
    check_sigma(ep);
    const pf::AnalysisCache::Stats s = ep->ctx->engine->cache_stats();
    totals->cache.hits += s.hits;
    totals->cache.misses += s.misses;
    totals->cache.extensions += s.extensions;
    ++totals->episodes;
  };
  CpuRotation rotation;
  while (NowUs() < end) {
    if (*episode == nullptr || (*episode)->tick == kTicksPerEpisode) {
      if (*episode != nullptr) finish_episode(episode->get());
      rotation.Unpin();  // The new engine's analysis threads start here.
      *episode = MakeEpisode(args, (*episode_index)++, report);
      if (*episode == nullptr) return;
      shadow.reset();
      rotation.Next();
    }
    Episode* ep = episode->get();
    ChainContext* ctx = ep->ctx.get();
    if (tracer->enabled() && !shadow.has_value()) {
      Result<pf::ChainMqmAnalysis> a = pf::ChainMqmAnalysis::Analyze(
          {ctx->chain}, ctx->data.size(), ReferenceChainOptions(kEpsilon));
      if (!a.ok()) {
        report->Fail("stream shadow analysis: " + a.status().ToString());
        return;
      }
      shadow.emplace(std::move(a).value());
    }
    const std::size_t delta = ep->deltas[ep->tick++];
    const std::size_t old_len = ctx->data.size();
    const auto from =
        ep->trajectory.begin() + static_cast<std::ptrdiff_t>(old_len);
    ctx->data.insert(ctx->data.end(), from,
                     from + static_cast<std::ptrdiff_t>(delta));
    SessionPool pool(ctx->engine.get(),
                     SubSeed(args.seed, (ep->index << 20) + ep->tick),
                     kQueriesPerTick);
    const std::size_t q0 =
        (ep->tick * kQueriesPerTick) % ctx->mix.requests.size();
    std::vector<Result<pf::ReleaseResult>> results;
    results.reserve(kQueriesPerTick);
    tracer->set_request(totals->ticks);
    const int root = tracer->Begin("e2e.tick");
    const double t0 = NowUs();
    pf::Status appended = [&] {
      Scope span(tracer, "privacy_engine.append");
      return ctx->engine->AppendObservations(delta);
    }();
    TrackedSession* s = nullptr;
    {
      Scope span(tracer, "session.create");
      s = pool.Next(report);
    }
    if (tracer->enabled()) {
      Scope span(tracer, "privacy_engine.compile_after_append");
      if (!ctx->engine->Compile(ctx->mix.requests[q0].spec, kStreamWindow)
               .ok()) {
        report->Fail("stream: compile after append failed");
      }
    }
    {
      Scope span(tracer, "session.release_first");
      results.push_back(
          s->session->Release(ctx->mix.requests[q0].spec, ctx->data,
                              pf::DataWindow::Last(kStreamWindow)));
    }
    const double t_first = NowUs();
    tracer->End(root);
    for (std::size_t q = 1; q < kQueriesPerTick; ++q) {
      s = pool.Next(report);
      results.push_back(s->session->Release(
          ctx->mix.requests[(q0 + q) % ctx->mix.requests.size()].spec,
          ctx->data, pf::DataWindow::Last(kStreamWindow)));
    }
    const double t_end = NowUs();
    CountOp(appended.ok(), appended, report);
    if (!appended.ok()) {
      // The record has grown and the engine has not: nothing after this
      // tick would be comparable.
      report->Fail("stream: AppendObservations failed: " +
                   appended.ToString());
      break;
    }
    totals->append_us.Add(t0, t_first - t0);
    totals->tick_us += t_end - t0;
    ++totals->ticks;
    if (tracer->enabled()) {
      pf::Status extended = [&] {
        Scope span(tracer, "mqm_exact.extend");
        return shadow->ExtendTo(ctx->data.size());
      }();
      if (!extended.ok()) report->Fail("stream shadow extend failed");
      facts->Add("mqm_exact.extend_mallocs",
                 static_cast<double>(shadow->result().memory.mallocs));
    }
    // Checks: one sigma for the whole tick, the noise band, the ledger.
    const double tick_sigma =
        results.front().ok() ? results.front().value().sigma : 0.0;
    for (std::size_t q = 0; q < results.size(); ++q) {
      const Request& r =
          ctx->mix.requests[(q0 + q) % ctx->mix.requests.size()];
      CountOp(results[q].ok(), results[q].status(), report);
      if (!results[q].ok()) continue;
      ++s->released;
      const pf::ReleaseResult& out = results[q].value();
      if (out.sigma != tick_sigma || out.epsilon != kEpsilon) {
        report->Fail("stream: releases of one tick disagree on sigma");
      }
      const Vector truth =
          EvaluateTruth(r.spec.kind, r.spec.state, kStreamStates,
                        ctx->data.data() + (ctx->data.size() - kStreamWindow),
                        kStreamWindow);
      band->Add(out.value.data(), truth, r.lipschitz * out.sigma);
    }
    ctx->sigma_ref = tick_sigma;
    pool.Finish(report);
  }
  // The live episode, which a later call may continue.
  if (*episode != nullptr) check_sigma(episode->get());
}

}  // namespace

void RunStream(const Args& args, Report* report) {
  std::vector<double> setup_s;
  std::uint64_t episode_index = 0;
  std::unique_ptr<Episode> episode = RepeatSetup(
      [&] { return MakeEpisode(args, episode_index, report); }, &setup_s,
      report);
  if (episode == nullptr) return;
  ++episode_index;
  NoiseBand band;
  Tracer off(false);
  LayerFacts facts;
  StreamTotals totals(SubSeed(args.seed, 20));

  if (!args.trace) {
    StreamLoop(args, &episode, &episode_index, args.seconds, &off, &band,
               &totals, &facts, report);
    band.Check("stream", report);
    EmitEndToEnd(setup_s, totals.append_us, kSlices, 0.99,
                 1e6 * static_cast<double>(totals.ticks) / totals.tick_us,
                 report);
    report->Line(Fmt("append_p50_us = %.3f us, append_p99_us = %.3f us "
                     "(n = %llu ticks over %llu episodes)",
                     Quantile(totals.append_us.values(), 0.5),
                     Quantile(totals.append_us.values(), 0.99),
                     static_cast<unsigned long long>(totals.ticks),
                     static_cast<unsigned long long>(totals.episodes)));
    return;
  }

  StreamLoop(args, &episode, &episode_index, args.seconds * 0.4, &off, &band,
             &totals, &facts, report);
  const std::vector<double> untraced = totals.append_us.values();
  totals.append_us = Reservoir(kReservoir, SubSeed(args.seed, 21));
  Tracer tracer(true);
  StreamLoop(args, &episode, &episode_index, args.seconds * 0.4, &tracer,
             &band, &totals, &facts, report);
  band.Check("stream", report);
  const pf::AnalysisCache::Stats last = episode->ctx->engine->cache_stats();
  pf::AnalysisCache::Stats cache = totals.cache;
  cache.hits += last.hits;
  cache.misses += last.misses;
  cache.extensions += last.extensions;
  ChainContext* ctx = episode->ctx.get();
  EmitLayerMetrics(tracer, facts,
                   {"privacy_engine.append", "session.create",
                    "privacy_engine.compile_after_append",
                    "session.release_first"},
                   "tick glue between the calls (a negative residual means "
                   "the split Compile costs more than inside Release)",
                   Median(untraced), Median(Durations(tracer, "e2e.tick")),
                   ctx->engine->executor().stats(), cache, report);
  WriteSpans(tracer, args, report);
}

// -------------------------------------------------------------- analyze --

namespace {

constexpr std::size_t kAnalyzeLength = 100000;
constexpr std::size_t kAnalyzeStates = 32;
constexpr std::size_t kTreeNodes = 127;

/// The k = 32, T = 1e5 chain with a point-mass initial. A fixed model
/// (dense matrix, point mass at state 0): the seed picks the epsilons and
/// the record, so every seed asks for the same analysis work.
pf::MarkovChain AnalyzeChain() {
  const std::size_t k = kAnalyzeStates;
  Vector initial(k, 0.0);
  initial[0] = 1.0;
  return pf::MarkovChain::Make(std::move(initial), RandomStochastic(k, 32))
      .ValueOrDie();
}

/// The chain model with a record sampled from `rng`.
std::unique_ptr<ChainContext> MakeAnalyzeChain(pf::Rng* rng) {
  pf::MarkovChain chain = AnalyzeChain();
  pf::StateSequence data = chain.Sample(kAnalyzeLength, rng);
  return std::make_unique<ChainContext>(
      pf::ModelSpec::ChainClass({chain}, kAnalyzeLength), chain,
      std::move(data));
}

struct AnalyzeInputs {
  std::unique_ptr<ChainContext> chain;
  pf::ModelSpec network_model;
  pf::BayesianNetwork network;
};

std::unique_ptr<AnalyzeInputs> SetupAnalyze(const Args& args, Report* report) {
  pf::Rng rng(SubSeed(args.seed, 10));
  const double root_p1 = 0.35 + 0.1 * rng.Uniform();
  pf::BayesianNetwork net =
      pf::TreeNetwork(kTreeNodes, 2, pf::BinaryRoot(root_p1),
                      pf::BinaryNoisyCopyCpt(0.25))
          .ValueOrDie();
  auto in = std::make_unique<AnalyzeInputs>(AnalyzeInputs{
      MakeAnalyzeChain(&rng), pf::ModelSpec::NetworkClass({net}), net});
  Result<std::unique_ptr<pf::PrivacyEngine>> engine =
      pf::PrivacyEngine::Create(in->chain->model, WorkloadEngineOptions());
  Result<std::unique_ptr<pf::PrivacyEngine>> net_engine =
      pf::PrivacyEngine::Create(in->network_model, WorkloadEngineOptions());
  if (!engine.ok() || !net_engine.ok()) {
    report->Fail("analyze engines could not be created");
    return nullptr;
  }
  in->chain->engine = std::move(engine).value();
  // Warm-up: one analysis of each family at the serving epsilon.
  if (!in->chain->engine->Compile(pf::QuerySpec::Mean(kEpsilon)).ok() ||
      !net_engine.value()->Compile(pf::QuerySpec::Sum(kEpsilon)).ok()) {
    report->Fail("analyze warm-up compile failed");
    return nullptr;
  }
  return in;
}

struct Round {
  double start_us = 0.0;
  double cold_chain_us = 0.0;
  double cold_network_us = 0.0;
  double total() const { return cold_chain_us + cold_network_us; }
};

/// Rounds until `seconds` pass: a cold first Compile at a fresh seeded
/// epsilon on the chain family and on the network family, each on a new
/// engine. Untimed, every sigma is checked against a reference analysis and
/// the chain engine releases one Mean (noise band and ledger checks).
void AnalyzeLoop(const Args& args, AnalyzeInputs* in, double seconds,
                 Tracer* tracer, pf::Rng* eps_rng, NoiseBand* band,
                 std::vector<Round>* rounds, LayerFacts* facts,
                 Report* report) {
  ChainContext* chain = in->chain.get();
  const double truth_mean =
      EvaluateTruth(pf::QueryKind::kMean, 0, kAnalyzeStates,
                    chain->data.data(), kAnalyzeLength)[0];
  const double mean_lipschitz = static_cast<double>(kAnalyzeStates - 1) *
                                (1.0 / static_cast<double>(kAnalyzeLength));
  const double end = NowUs() + seconds * 1e6;
  while (NowUs() < end) {
    const double epsilon = 0.9 + 0.2 * eps_rng->Uniform();
    Round round;
    round.start_us = NowUs();
    tracer->set_request(rounds->size());
    auto ce = pf::PrivacyEngine::Create(chain->model, WorkloadEngineOptions())
                  .ValueOrDie();
    double t0 = NowUs();
    Result<pf::PrivacyEngine::CompiledQuery> cold_chain = [&] {
      Scope span(tracer, "privacy_engine.cold_compile_chain");
      return ce->Compile(pf::QuerySpec::Mean(epsilon));
    }();
    round.cold_chain_us = NowUs() - t0;
    auto ne = pf::PrivacyEngine::Create(in->network_model,
                                        WorkloadEngineOptions())
                  .ValueOrDie();
    t0 = NowUs();
    Result<pf::PrivacyEngine::CompiledQuery> cold_net = [&] {
      Scope span(tracer, "privacy_engine.cold_compile_network");
      return ne->Compile(pf::QuerySpec::Sum(epsilon));
    }();
    round.cold_network_us = NowUs() - t0;

    const bool ok = cold_chain.ok() && cold_net.ok();
    CountOp(ok, !cold_chain.ok() ? cold_chain.status() : cold_net.status(),
            report);
    if (!ok) continue;
    rounds->push_back(round);

    // Checks (untimed): reference analyses, which the traced run also
    // times as the mqm_exact / markov_quilt_mechanism layers.
    Result<pf::ChainMqmResult> ref_chain = [&] {
      Scope span(tracer, "mqm_exact.analyze");
      return pf::MqmExactAnalyze({chain->chain}, kAnalyzeLength,
                                 ReferenceChainOptions(epsilon));
    }();
    Result<pf::MqmAnalysis> ref_net = [&] {
      Scope span(tracer, "markov_quilt_mechanism.analyze");
      return pf::AnalyzeMarkovQuiltMechanism({in->network}, epsilon,
                                             ReferenceNetworkOptions());
    }();
    if (!ref_chain.ok() || !ref_net.ok()) {
      report->Fail("analyze: reference analysis failed");
      continue;
    }
    const double sigma_chain = ref_chain.value().sigma_max;
    if (cold_chain.value().plan->sigma != sigma_chain) {
      report->Fail("analyze: chain sigma differs from MqmExactAnalyze");
    }
    if (cold_net.value().plan->sigma != ref_net.value().sigma_max) {
      report->Fail("analyze: network sigma differs from "
                   "AnalyzeMarkovQuiltMechanism");
    }
    pf::SessionOptions options;
    options.epsilon_budget = epsilon;
    options.seed = SubSeed(args.seed, 12 + rounds->size());
    auto session = ce->CreateSession(options);
    Result<pf::ReleaseResult> released =
        session->Release(pf::QuerySpec::Mean(epsilon), chain->data);
    if (!released.ok() || released.value().sigma != sigma_chain) {
      report->Fail("analyze: the analysed engine's release is not at the "
                   "reference sigma");
    } else {
      band->Add(released.value().value.data(), {truth_mean},
                mean_lipschitz * sigma_chain);
    }
    if (session->EpsilonSpent() != epsilon) {
      report->Fail("analyze: session ledger is not K * epsilon");
    }
    if (!tracer->enabled()) continue;
    facts->Add("mqm_exact.scored_nodes",
               static_cast<double>(ref_chain.value().scored_nodes));
    facts->Add("mqm_exact.total_nodes",
               static_cast<double>(ref_chain.value().total_nodes));
    facts->Add("mqm_exact.peak_bytes",
               static_cast<double>(ref_chain.value().memory.peak_bytes));
    facts->Add("markov_quilt_mechanism.scored_nodes",
               static_cast<double>(ref_net.value().scored_nodes));
    facts->Add("elimination.induced_width",
               static_cast<double>(ref_net.value().induced_width));
    facts->Add("elimination.peak_bytes",
               static_cast<double>(ref_net.value().memory.peak_bytes));
    // One ladder step at k = 32.
    const pf::Matrix& p = chain->chain.transition();
    pf::Matrix product;
    for (int i = 0; i < 16; ++i) {
      Scope span(tracer, "matrix.multiply");
      pf::MultiplyBlockedInto(p, p, &product);
    }
  }
}

}  // namespace

void RunAnalyze(const Args& args, Report* report) {
  std::vector<double> setup_s;
  std::unique_ptr<AnalyzeInputs> in = RepeatSetup(
      [&] { return SetupAnalyze(args, report); }, &setup_s, report);
  if (in == nullptr) return;
  pf::Rng eps_rng(SubSeed(args.seed, 13));
  NoiseBand band;
  Tracer off(false);
  LayerFacts facts;
  std::vector<Round> rounds;
  auto totals = [](const std::vector<Round>& rs, double Round::*part) {
    std::vector<double> v;
    for (const Round& r : rs) {
      v.push_back(part == nullptr ? r.total() : r.*part);
    }
    return v;
  };

  if (!args.trace) {
    AnalyzeLoop(args, in.get(), args.seconds, &off, &eps_rng, &band, &rounds,
                &facts, report);
    band.Check("analyze", report);
    Reservoir round_us(kReservoir, SubSeed(args.seed, 20));
    double sum = 0.0;
    for (const Round& r : rounds) {
      round_us.Add(r.start_us, r.total());
      sum += r.total();
    }
    // Too few rounds per time slice for a sliced tail: the whole-run p90.
    EmitEndToEnd(setup_s, round_us, 1, 0.9,
                 1e6 * static_cast<double>(rounds.size()) / sum, report);
    report->Line(Fmt("cold_chain_ms = %.3f ms, cold_network_ms = %.3f ms "
                     "(p50 over %zu rounds)",
                     Median(totals(rounds, &Round::cold_chain_us)) / 1e3,
                     Median(totals(rounds, &Round::cold_network_us)) / 1e3,
                     rounds.size()));
    return;
  }

  AnalyzeLoop(args, in.get(), args.seconds / 2, &off, &eps_rng, &band,
              &rounds, &facts, report);
  const std::vector<double> untraced = totals(rounds, nullptr);
  rounds.clear();
  Tracer tracer(true);
  AnalyzeLoop(args, in.get(), args.seconds / 2, &tracer, &eps_rng, &band,
              &rounds, &facts, report);
  band.Check("analyze", report);
  ChainContext* ctx = in->chain.get();
  EmitLayerMetrics(tracer, facts,
                   {"mqm_exact.analyze", "markov_quilt_mechanism.analyze"},
                   "cold Compile work outside the analysis itself (query "
                   "compile, cache and plan assembly)",
                   Median(untraced), Median(totals(rounds, nullptr)),
                   ctx->engine->executor().stats(), ctx->engine->cache_stats(),
                   report);
  WriteSpans(tracer, args, report);
}

// -------------------------------------------------------------- restart --

namespace {

/// The restart's first query: a Mean over the latest observations, so that
/// evaluation does not hide the restart itself.
constexpr std::size_t kRestartWindow = 1024;
/// Restarts between moves of the client thread to the next CPU.
constexpr std::uint64_t kRestartsPerCpu = 64;

/// A chain engine (the analyze workload's model) that has analysed the
/// restart query at a seeded epsilon, and the snapshot it saved.
struct RestartInputs {
  std::unique_ptr<ChainContext> chain;
  double epsilon = 0.0;
  std::string snapshot;
};

std::unique_ptr<RestartInputs> SetupRestart(const Args& args,
                                            Report* report) {
  pf::Rng rng(SubSeed(args.seed, 14));
  auto in = std::make_unique<RestartInputs>();
  in->epsilon = 0.9 + 0.2 * rng.Uniform();
  in->chain = MakeAnalyzeChain(&rng);
  in->snapshot = args.scratch + "/restart.snapshot";
  Result<std::unique_ptr<pf::PrivacyEngine>> engine =
      pf::PrivacyEngine::Create(in->chain->model, WorkloadEngineOptions());
  if (!engine.ok()) {
    report->Fail("restart engine: " + engine.status().ToString());
    return nullptr;
  }
  in->chain->engine = std::move(engine).value();
  if (!in->chain->engine->Compile(pf::QuerySpec::Mean(in->epsilon),
                                  kRestartWindow)
           .ok()) {
    report->Fail("restart: first analysis failed");
    return nullptr;
  }
  const pf::Status saved = in->chain->engine->SaveAnalyses(in->snapshot);
  if (!saved.ok()) {
    report->Fail("restart: SaveAnalyses: " + saved.ToString());
    return nullptr;
  }
  return in;
}

/// Restarts until `seconds` pass: Create -> LoadAnalyses(snapshot) ->
/// CreateSession -> the first Release, timed from Create to the released
/// value. Returns restarts/s (median over time slices). Untimed, each
/// restart's sigma, ledger and noise are checked; the traced run also
/// times the snapshot codec on the saved bytes.
double RestartLoop(const Args& args, RestartInputs* in,
                   const std::string& bytes, double seconds, Tracer* tracer,
                   std::uint64_t* next, NoiseBand* band, Reservoir* latencies,
                   LayerFacts* facts, Report* report) {
  ChainContext* chain = in->chain.get();
  const pf::QuerySpec spec = pf::QuerySpec::Mean(in->epsilon);
  const pf::DataWindow window = pf::DataWindow::Last(kRestartWindow);
  const Vector truth = EvaluateTruth(
      pf::QueryKind::kMean, 0, kAnalyzeStates,
      chain->data.data() + (kAnalyzeLength - kRestartWindow), kRestartWindow);
  const double scale = static_cast<double>(kAnalyzeStates - 1) /
                       static_cast<double>(kRestartWindow) * chain->sigma_ref;
  const double begin = NowUs();
  const double end = begin + seconds * 1e6;
  SliceRate rate(begin, end, kSlices);
  // No engine thread starts on this path (Release runs on the caller), so
  // the pinned mask is never inherited.
  CpuRotation rotation;
  double now = begin;
  while (now < end) {
    const std::uint64_t op = (*next)++;
    if (op % kRestartsPerCpu == 0) rotation.Next();
    pf::SessionOptions options;
    options.epsilon_budget = in->epsilon;
    options.seed = SubSeed(args.seed, 1000 + op);
    tracer->set_request(op);
    // Declared before the session, which must not outlive its engine.
    Result<std::unique_ptr<pf::PrivacyEngine>> fresh =
        pf::Status::Internal("not created");
    std::unique_ptr<pf::Session> session;
    Result<std::size_t> loaded = pf::Status::Internal("not loaded");
    Result<pf::ReleaseResult> first = pf::Status::Internal("not released");
    const int root = tracer->Begin("e2e.restart");
    const double t0 = NowUs();
    {
      Scope span(tracer, "privacy_engine.create");
      fresh = pf::PrivacyEngine::Create(chain->model, WorkloadEngineOptions());
    }
    if (fresh.ok()) {
      {
        Scope span(tracer, "privacy_engine.load_analyses");
        loaded = fresh.value()->LoadAnalyses(in->snapshot);
      }
      {
        Scope span(tracer, "session.create");
        session = fresh.value()->CreateSession(options);
      }
      Scope span(tracer, "session.release_first");
      first = session->Release(spec, chain->data, window);
    }
    now = NowUs();
    tracer->End(root);
    const bool ok = fresh.ok() && loaded.ok() && first.ok();
    CountOp(ok, !fresh.ok()    ? fresh.status()
                : !loaded.ok() ? loaded.status()
                               : first.status(),
            report);
    if (!ok) continue;
    latencies->Add(t0, now - t0);
    rate.Add(now, 1.0);

    if (loaded.value() == 0) report->Fail("restart: snapshot restored nothing");
    if (first.value().sigma != chain->sigma_ref) {
      report->Fail("restart: sigma after LoadAnalyses differs from "
                   "MqmExactAnalyze");
    }
    if (session->EpsilonSpent() != in->epsilon) {
      report->Fail("restart: session ledger is not K * epsilon");
    }
    band->Add(first.value().value.data(), truth, scale);
    if (tracer->enabled()) {
      Result<std::vector<pf::CachedPlan>> entries = [&] {
        Scope span(tracer, "plan_store.decode");
        return pf::DecodePlanSnapshot(bytes);
      }();
      if (!entries.ok()) {
        report->Fail("restart: snapshot decode failed");
        continue;
      }
      std::string encoded;
      {
        Scope span(tracer, "plan_store.encode");
        encoded = pf::EncodePlanSnapshot(entries.value());
      }
      if (encoded != bytes) report->Fail("restart: snapshot re-encode differs");
      facts->Add("plan_store.snapshot_bytes",
                 static_cast<double>(bytes.size()));
    }
    now = NowUs();
  }
  return SliceThroughput(rate, "restart", report);
}

}  // namespace

void RunRestart(const Args& args, Report* report) {
  std::vector<double> setup_s;
  std::unique_ptr<RestartInputs> in = RepeatSetup(
      [&] { return SetupRestart(args, report); }, &setup_s, report);
  if (in == nullptr) return;
  in->chain->sigma_ref = ReferenceChainSigma(
      in->chain->chain, kAnalyzeLength, in->epsilon, report);
  std::string bytes;
  {
    std::ifstream file(in->snapshot, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(file),
                 std::istreambuf_iterator<char>());
  }
  NoiseBand band;
  Tracer off(false);
  LayerFacts facts;
  std::uint64_t next = 0;
  Reservoir restart(kReservoir, SubSeed(args.seed, 20));

  if (!args.trace) {
    const double per_s = RestartLoop(args, in.get(), bytes, args.seconds,
                                     &off, &next, &band, &restart, &facts,
                                     report);
    std::remove(in->snapshot.c_str());
    band.Check("restart", report);
    EmitEndToEnd(setup_s, restart, kSlices, 0.99, per_s, report);
    report->Line(Fmt("restart_first_query_ms = %.4f ms (p50), p99 %.4f ms "
                     "(n = %llu restarts)",
                     Quantile(restart.values(), 0.5) / 1e3,
                     Quantile(restart.values(), 0.99) / 1e3,
                     static_cast<unsigned long long>(restart.seen())));
    return;
  }

  RestartLoop(args, in.get(), bytes, args.seconds / 2, &off, &next, &band,
              &restart, &facts, report);
  Tracer tracer(true);
  Reservoir traced(kReservoir, SubSeed(args.seed, 21));
  RestartLoop(args, in.get(), bytes, args.seconds / 2, &tracer, &next, &band,
              &traced, &facts, report);
  std::remove(in->snapshot.c_str());
  band.Check("restart", report);
  ChainContext* ctx = in->chain.get();
  EmitLayerMetrics(tracer, facts,
                   {"privacy_engine.create", "privacy_engine.load_analyses",
                    "session.create", "session.release_first"},
                   "timer and span glue between the calls",
                   Median(restart.values()), Median(traced.values()),
                   ctx->engine->executor().stats(), ctx->engine->cache_stats(),
                   report);
  WriteSpans(tracer, args, report);
}

}  // namespace pfbench
