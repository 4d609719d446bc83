// Regenerates Table 1: L1 error of the relative-frequency histograms for the
// aggregate and individual tasks on the three activity groups, epsilon = 1,
// averaged over 20 random trials.
//
// Mechanisms: DP (person-level differential privacy, aggregate task only),
// GroupDP (per-chain groups), GK16 (N/A — spectral norm >= 1), MQMApprox and
// MQMExact. Expected ordering (paper): MQMExact < MQMApprox << GroupDP, with
// DP in between GroupDP and MQM on the aggregate task and undefined for the
// individual task.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>

#include "baselines/group_dp.h"
#include "bench/activity_experiment.h"
#include "bench/bench_util.h"
#include "common/histogram.h"

namespace pf {
namespace {

constexpr int kTrials = 20;
constexpr double kEpsilon = 1.0;

struct Table1Row {
  double dp_agg = 0.0;
  double group_agg = 0.0, group_indi = 0.0;
  double approx_agg = 0.0, approx_indi = 0.0;
  double exact_agg = 0.0, exact_indi = 0.0;
  bool gk16_applicable = false;
};

Table1Row g_rows[3];

// Mean L1 error over kTrials of a 4-bin histogram with the given per-bin
// Laplace scale.
double HistError(double scale, Rng* rng) {
  double total = 0.0;
  for (int t = 0; t < kTrials; ++t) {
    for (std::size_t j = 0; j < kNumActivityStates; ++j) {
      total += std::fabs(rng->Laplace(scale));
    }
  }
  return total / kTrials;
}

void BM_Table1Activity(benchmark::State& state) {
  const auto group = bench::kAllGroups[state.range(0)];
  const bench::ActivityExperiment& exp = bench::GetActivityExperiment(group);
  const auto chains = exp.data.AllChains();
  const double total = static_cast<double>(exp.data.TotalObservations());
  Rng rng(777 + state.range(0));
  Table1Row row;
  row.gk16_applicable = exp.gk16_applicable;
  for (auto _ : state) {
    // --- Aggregate task: one pooled histogram, 2/total-Lipschitz. ---
    const double lipschitz_agg = 2.0 / total;
    // DP baseline hides one *person's* entire contribution (the paper's DP
    // row): sensitivity 2 * max person observations / total.
    std::size_t max_person = 0;
    for (const ActivityPerson& p : exp.data.people) {
      max_person = std::max(max_person, p.TotalObservations());
    }
    const double dp_sens = 2.0 * static_cast<double>(max_person) / total;
    row.dp_agg = HistError(dp_sens / kEpsilon, &rng);
    const double group_sens_agg =
        RelativeFrequencyGroupSensitivity(chains).ValueOrDie();
    row.group_agg = HistError(group_sens_agg / kEpsilon, &rng);
    row.approx_agg = HistError(lipschitz_agg * exp.sigma_approx, &rng);
    row.exact_agg = HistError(lipschitz_agg * exp.sigma_exact, &rng);

    // --- Individual task: one histogram per person; report the mean. ---
    double group_sum = 0.0, approx_sum = 0.0, exact_sum = 0.0;
    for (const ActivityPerson& person : exp.data.people) {
      const double t_p = static_cast<double>(person.TotalObservations());
      const double lipschitz_p = 2.0 / t_p;
      const double group_sens_p =
          RelativeFrequencyGroupSensitivity(person.chains).ValueOrDie();
      group_sum += HistError(group_sens_p / kEpsilon, &rng);
      approx_sum += HistError(lipschitz_p * exp.sigma_approx, &rng);
      exact_sum += HistError(lipschitz_p * exp.sigma_exact, &rng);
    }
    const double n = static_cast<double>(exp.data.people.size());
    row.group_indi = group_sum / n;
    row.approx_indi = approx_sum / n;
    row.exact_indi = exact_sum / n;
  }
  g_rows[state.range(0)] = row;
  state.counters["agg_DP"] = row.dp_agg;
  state.counters["agg_GroupDP"] = row.group_agg;
  state.counters["agg_MQMApprox"] = row.approx_agg;
  state.counters["agg_MQMExact"] = row.exact_agg;
  state.counters["indi_GroupDP"] = row.group_indi;
  state.counters["indi_MQMApprox"] = row.approx_indi;
  state.counters["indi_MQMExact"] = row.exact_indi;
}

BENCHMARK(BM_Table1Activity)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pf

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  pf::bench::PrintHeader(
      "Table 1: L1 error, activity histograms (epsilon = 1, 20 trials)",
      {"cyc agg", "cyc indi", "old agg", "old indi", "over agg", "over indi"});
  const auto& r = pf::g_rows;
  pf::bench::PrintRow("DP", {r[0].dp_agg, -1.0, r[1].dp_agg, -1.0,
                             r[2].dp_agg, -1.0});
  pf::bench::PrintRow("GroupDP",
                      {r[0].group_agg, r[0].group_indi, r[1].group_agg,
                       r[1].group_indi, r[2].group_agg, r[2].group_indi});
  pf::bench::PrintRow("GK16 (N/A)", {-1.0, -1.0, -1.0, -1.0, -1.0, -1.0});
  pf::bench::PrintRow("MQMApprox",
                      {r[0].approx_agg, r[0].approx_indi, r[1].approx_agg,
                       r[1].approx_indi, r[2].approx_agg, r[2].approx_indi});
  pf::bench::PrintRow("MQMExact",
                      {r[0].exact_agg, r[0].exact_indi, r[1].exact_agg,
                       r[1].exact_indi, r[2].exact_agg, r[2].exact_indi});
  std::printf("\n(-1 marks N/A cells, matching the paper's N/A entries.)\n");
  return 0;
}
