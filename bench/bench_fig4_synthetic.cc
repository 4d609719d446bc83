// Regenerates Figure 4, upper row: L1 error of the released frequency of
// state 1 vs. alpha for epsilon in {0.2, 1, 5} on synthetic binary chains of
// length T = 100 with Theta = [alpha, 1 - alpha] (all initial distributions,
// Appendix C.4). Mechanisms: GK16, MQMApprox, MQMExact; GroupDP's error
// (~1/epsilon, not plotted in the paper's figure) is reported alongside.
//
// Expected shape (paper): errors fall as alpha grows (Theta narrows); GK16
// is inapplicable left of a threshold alpha (independent of epsilon); in the
// applicable region GK16 loses to MQM first and wins for the narrowest
// classes; MQMExact <= MQMApprox everywhere.
#include <benchmark/benchmark.h>

#include <cmath>
#include <map>
#include <memory>
#include <utility>

#include "bench/bench_util.h"
#include "data/synthetic.h"
#include "engine/engine.h"

namespace pf {
namespace {

constexpr std::size_t kLength = 100;
constexpr int kTrials = 500;
const double kEpsilons[] = {0.2, 1.0, 5.0};
const double kAlphas[] = {0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4};

struct ComboResult {
  double sigma_exact = 0.0;
  double sigma_approx = 0.0;
  double sigma_gk16 = 0.0;  // Infinite when GK16 is inapplicable.
  double err_exact = 0.0;
  double err_approx = 0.0;
  double err_gk16 = 0.0;
  double err_group = 0.0;
};

std::map<std::pair<int, int>, ComboResult>& Results() {
  static auto* results = new std::map<std::pair<int, int>, ComboResult>();
  return *results;
}

// Plans are compiled once per (epsilon, alpha) point through per-alpha
// PrivacyEngines (the serving front door, caches included); the benchmark
// iterations then run the 500-trial release experiment of Section 5.2 as
// one ReleaseVector per mechanism's plan (noise-magnitude harness — the
// plan SPI, since the trials release synthetic zero truths).
PrivacyEngine& EngineFor(int alpha_idx, MechanismKind kind) {
  static auto* engines =
      new std::map<std::pair<int, int>, std::unique_ptr<PrivacyEngine>>();
  const auto key = std::make_pair(alpha_idx, static_cast<int>(kind));
  auto it = engines->find(key);
  if (it != engines->end()) return *it->second;
  const auto cls =
      BinaryChainIntervalClass::Make(kAlphas[alpha_idx],
                                     1.0 - kAlphas[alpha_idx])
          .ValueOrDie();
  EngineOptions options;
  options.mechanism = kind;
  ModelSpec model = ModelSpec::ChainClass({}, kLength);
  switch (kind) {
    case MechanismKind::kMqmExact:
      options.exact_max_nearby = 90;
      model = ModelSpec::ChainClassFreeInitial(cls.TransitionGrid(0.1),
                                               kLength);
      break;
    case MechanismKind::kMqmApprox:
      model = ModelSpec::ChainSummary(cls.Summary(), 2, kLength);
      break;
    case MechanismKind::kGk16:
      model = ModelSpec::ChainClassFreeInitial(cls.TransitionGrid(0.1),
                                               kLength);
      break;
    default:  // GroupDP: one chain, one group.
      options.mechanism = MechanismKind::kGroupDp;
      model = ModelSpec::GroupSensitivity(1.0);
      break;
  }
  auto engine = PrivacyEngine::Create(std::move(model), options).ValueOrDie();
  return *engines->emplace(key, std::move(engine)).first->second;
}

std::shared_ptr<const MechanismPlan> PlanFor(int alpha_idx, MechanismKind kind,
                                             double epsilon) {
  // The released query is the frequency of state 1 (1/T-Lipschitz); the
  // engine compiles it against each mechanism's plan at this epsilon. The
  // GroupDP baseline's model is lengthless, so its plan is compiled from
  // the Sum spec (the plan — sigma = sensitivity/epsilon — is identical).
  const QuerySpec spec = kind == MechanismKind::kGroupDp
                             ? QuerySpec::Sum(epsilon)
                             : QuerySpec::StateFrequency(1, epsilon);
  return EngineFor(alpha_idx, kind).Compile(spec).ValueOrDie().plan;
}

const ComboResult& Analyze(int eps_idx, int alpha_idx) {
  const auto key = std::make_pair(eps_idx, alpha_idx);
  auto it = Results().find(key);
  if (it != Results().end()) return it->second;
  const double epsilon = kEpsilons[eps_idx];
  ComboResult r;
  r.sigma_exact = PlanFor(alpha_idx, MechanismKind::kMqmExact, epsilon)->sigma;
  r.sigma_approx =
      PlanFor(alpha_idx, MechanismKind::kMqmApprox, epsilon)->sigma;
  r.sigma_gk16 =
      PlanFor(alpha_idx, MechanismKind::kGk16, epsilon)->gk16.sigma;
  return Results().emplace(key, r).first->second;
}

// Mean |noise| of a batch of zero-truth releases at the given scale.
double MeanAbsOfBatch(const MechanismPlan& plan, double lipschitz, Rng* rng) {
  if (!plan.applicable) return -1.0;  // Marks "not applicable" in the table.
  const Vector noisy =
      ReleaseVector(plan, Vector(kTrials, 0.0), lipschitz, rng).ValueOrDie();
  double sum = 0.0;
  for (double v : noisy) sum += std::fabs(v);
  return sum / kTrials;
}

void BM_Fig4Synthetic(benchmark::State& state) {
  const int eps_idx = static_cast<int>(state.range(0));
  const int alpha_idx = static_cast<int>(state.range(1));
  const double epsilon = kEpsilons[eps_idx];
  const double alpha = kAlphas[alpha_idx];
  const auto cls =
      BinaryChainIntervalClass::Make(alpha, 1.0 - alpha).ValueOrDie();
  ComboResult r = Analyze(eps_idx, alpha_idx);
  // Section 5.2 protocol: draw theta and a dataset per trial, release the
  // frequency of state 1 (1/T-Lipschitz), average |error| over trials. Each
  // mechanism's 500 trials are one ReleaseVector against its plan.
  Rng rng(10007 * (eps_idx + 1) + alpha_idx);
  const double lipschitz = 1.0 / static_cast<double>(kLength);
  // Plan lookups are loop-invariant (Analyze() above warmed the engines'
  // caches); only the Section 5.2 trial work belongs in the timed region.
  const auto approx_plan = PlanFor(alpha_idx, MechanismKind::kMqmApprox, epsilon);
  const auto gk16_plan = PlanFor(alpha_idx, MechanismKind::kGk16, epsilon);
  const auto group_plan = PlanFor(alpha_idx, MechanismKind::kGroupDp, epsilon);
  const auto exact_plan = PlanFor(alpha_idx, MechanismKind::kMqmExact, epsilon);
  for (auto _ : state) {
    for (int t = 0; t < kTrials; ++t) {
      benchmark::DoNotOptimize(
          SampleBinaryChainDataset(cls, kLength, &rng).ValueOrDie());
    }
    r.err_exact = MeanAbsOfBatch(*exact_plan, lipschitz, &rng);
    r.err_approx = MeanAbsOfBatch(*approx_plan, lipschitz, &rng);
    r.err_gk16 = MeanAbsOfBatch(*gk16_plan, lipschitz, &rng);
    r.err_group = MeanAbsOfBatch(*group_plan, 1.0, &rng);
  }
  Results()[std::make_pair(eps_idx, alpha_idx)] = r;
  state.counters["alpha"] = alpha;
  state.counters["epsilon"] = epsilon;
  state.counters["err_MQMExact"] = r.err_exact;
  state.counters["err_MQMApprox"] = r.err_approx;
  state.counters["err_GK16"] = r.err_gk16;  // -1 marks "not applicable".
  state.counters["err_GroupDP"] = r.err_group;
}

BENCHMARK(BM_Fig4Synthetic)
    ->ArgsProduct({{0, 1, 2}, {0, 1, 2, 3, 4, 5, 6}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pf

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Paper-style series (Figure 4 upper row).
  for (int e = 0; e < 3; ++e) {
    pf::bench::PrintHeader(
        "Figure 4(" + std::string(1, static_cast<char>('a' + e)) +
            "): synthetic binary chain, epsilon = " +
            std::to_string(pf::kEpsilons[e]),
        {"alpha", "GK16", "MQMApprox", "MQMExact", "GroupDP"});
    for (int a = 0; a < 7; ++a) {
      const auto& r = pf::Results()[{e, a}];
      pf::bench::PrintRow("", {pf::kAlphas[a], r.err_gk16, r.err_approx,
                               r.err_exact, r.err_group});
    }
  }
  std::printf("\n(GK16 = -1 marks the inapplicable region: influence-matrix "
              "spectral norm >= 1, left of the paper's dashed line.)\n");
  return 0;
}
