// General-network (Algorithm 2) scaling: sizes x topologies x threads.
// The quantity timed is the sigma analysis — the expensive,
// data-independent phase — on the structured workloads the seed could not
// touch: trees, grids, and hub-and-spoke networks of up to hundreds of
// binary nodes (the enumeration reference refuses anything past ~22).
//
// Benchmark families:
//  - Elimination:  variable elimination + auto quilt search +
//                  canonical node-class dedup (the default fast path), at
//                  1/2/4/8 analysis threads;
//  - Enumeration:  the exponential-in-node-count oracle of the reference
//                  library (AnalyzeByEnumeration, every node scored, no
//                  dedup), run at the sizes it can still reach — the
//                  baseline of the >= 10x elimination speedup. Compare it
//                  with NoDedup at the same sizes for the inference win
//                  alone; its ratio to Elimination also holds the dedup win;
//  - NoDedup:      elimination with dedup_nodes = false, isolating the
//                  node-class win from the inference win, at the
//                  enumeration sizes and at hundreds of nodes;
//  - MinFillOrder: the incremental min-fill order over the whole moral
//                  graph (the engine's treewidth screen, and the ordering
//                  every elimination query runs);
//  - CanonicalizeAllNodes: one canonical basis plus every node's flat
//                  canonical form — the dedup's phase 1 — with form_kb,
//                  the heap the forms hold.
//
// Counters report sigma, scored-vs-total nodes, the dedup ratio, the
// observed induced width, and peak factor-table bytes.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "data/topologies.h"
#include "graphical/elimination.h"
#include "graphical/moral_graph.h"
#include "pufferfish/markov_quilt_mechanism.h"
#include "pufferfish/node_classes.h"
#include "reference/enumeration.h"

namespace pf {
namespace {

constexpr double kEpsilon = 2.0;

enum Topology : int { kTree = 0, kGrid = 1, kHubSpoke = 2 };

const char* TopologyName(int topology) {
  switch (topology) {
    case kTree: return "tree";
    case kGrid: return "grid";
    case kHubSpoke: return "hub-spoke";
  }
  return "?";
}

// Deterministically built workloads (no RNG), dyadic CPTs: every run and
// every backend sees bit-identical models.
BayesianNetwork MakeNetwork(int topology, std::size_t num_nodes) {
  const Vector root = BinaryRoot(0.5);
  const Matrix edge = BinaryNoisyCopyCpt(0.375);
  switch (topology) {
    case kGrid: {
      // Near-square grid of ~num_nodes cells (3 rows keeps width small).
      const std::size_t rows = num_nodes < 9 ? 2 : 3;
      return GridNetwork(rows, (num_nodes + rows - 1) / rows, root, edge,
                         BinaryNoisyOrCpt(0.375))
          .ValueOrDie();
    }
    case kHubSpoke: {
      // Backbone of hubs with 4 household spokes each.
      const std::size_t hubs = (num_nodes + 4) / 5;
      return HubSpokeNetwork(hubs, 4, root, edge, edge).ValueOrDie();
    }
    case kTree:
    default:
      return TreeNetwork(num_nodes, 2, root, edge).ValueOrDie();
  }
}

MqmAnalyzeOptions Options(bool dedup, std::size_t threads) {
  MqmAnalyzeOptions options;
  options.dedup_nodes = dedup;
  options.num_threads = threads;
  return options;
}

void ReportCounters(benchmark::State& state, const MqmAnalysis& analysis) {
  state.counters["sigma"] = analysis.sigma_max;
  state.counters["nodes"] = static_cast<double>(analysis.total_nodes);
  state.counters["scored"] = static_cast<double>(analysis.scored_nodes);
  state.counters["dedup_ratio"] = analysis.dedup_ratio();
  state.counters["width"] = static_cast<double>(analysis.induced_width);
  state.counters["peak_kb"] =
      static_cast<double>(analysis.memory.peak_bytes) / 1024.0;
}

// ---- Elimination backend (the fast path): sizes x topologies x threads.
void BM_Analyze(benchmark::State& state) {
  const int topology = static_cast<int>(state.range(0));
  const std::size_t num_nodes = static_cast<std::size_t>(state.range(1));
  const std::size_t threads = static_cast<std::size_t>(state.range(2));
  const BayesianNetwork bn = MakeNetwork(topology, num_nodes);
  const MqmAnalyzeOptions options = Options(true, threads);
  MqmAnalysis analysis;
  for (auto _ : state) {
    analysis = AnalyzeMarkovQuiltMechanism({bn}, kEpsilon, options).ValueOrDie();
    benchmark::DoNotOptimize(analysis.sigma_max + 0.0);
  }
  ReportCounters(state, analysis);
  state.SetLabel(TopologyName(topology));
}
BENCHMARK(BM_Analyze)
    ->ArgNames({"topo", "n", "threads"})
    // Tree: past the 100-node acceptance size, at 1/2/4/8 threads.
    ->Args({kTree, 18, 1})
    ->Args({kTree, 63, 1})
    ->Args({kTree, 127, 1})
    ->Args({kTree, 127, 2})
    ->Args({kTree, 127, 4})
    ->Args({kTree, 127, 8})
    ->Args({kTree, 255, 1})
    ->Args({kTree, 255, 8})
    // Grid: treewidth ~3, the hardest inference here.
    ->Args({kGrid, 18, 1})
    ->Args({kGrid, 60, 1})
    ->Args({kGrid, 120, 1})
    ->Args({kGrid, 120, 8})
    // Hub-and-spoke: the flu contact-network shape.
    ->Args({kHubSpoke, 20, 1})
    ->Args({kHubSpoke, 100, 1})
    ->Args({kHubSpoke, 250, 1})
    ->Args({kHubSpoke, 250, 8})
    ->Unit(benchmark::kMillisecond);

// ---- Enumeration oracle (reference/enumeration.h) at the sizes it can
// still reach.
void BM_AnalyzeEnumeration(benchmark::State& state) {
  const int topology = static_cast<int>(state.range(0));
  const std::size_t num_nodes = static_cast<std::size_t>(state.range(1));
  const BayesianNetwork bn = MakeNetwork(topology, num_nodes);
  const MqmAnalyzeOptions options = Options(true, 1);
  MqmAnalysis analysis;
  for (auto _ : state) {
    analysis = AnalyzeByEnumeration({bn}, kEpsilon, options).ValueOrDie();
    benchmark::DoNotOptimize(analysis.sigma_max + 0.0);
  }
  ReportCounters(state, analysis);
  state.SetLabel(TopologyName(topology));
}
BENCHMARK(BM_AnalyzeEnumeration)
    ->ArgNames({"topo", "n"})
    ->Args({kTree, 14})
    ->Args({kTree, 18})
    ->Args({kGrid, 18})
    ->Args({kHubSpoke, 15})
    ->Unit(benchmark::kMillisecond);

// ---- Elimination without node-class dedup: isolates the two wins.
void BM_AnalyzeNoDedup(benchmark::State& state) {
  const int topology = static_cast<int>(state.range(0));
  const std::size_t num_nodes = static_cast<std::size_t>(state.range(1));
  const BayesianNetwork bn = MakeNetwork(topology, num_nodes);
  const MqmAnalyzeOptions options = Options(false, 1);
  MqmAnalysis analysis;
  for (auto _ : state) {
    analysis = AnalyzeMarkovQuiltMechanism({bn}, kEpsilon, options).ValueOrDie();
    benchmark::DoNotOptimize(analysis.sigma_max + 0.0);
  }
  ReportCounters(state, analysis);
  state.SetLabel(TopologyName(topology));
}
BENCHMARK(BM_AnalyzeNoDedup)
    ->ArgNames({"topo", "n"})
    ->Args({kTree, 18})
    ->Args({kGrid, 18})
    ->Args({kHubSpoke, 15})
    ->Args({kTree, 127})
    ->Args({kGrid, 120})
    ->Args({kHubSpoke, 250})
    ->Unit(benchmark::kMillisecond);

// ---- Min-fill ordering of the whole moral graph.
void BM_MinFillOrder(benchmark::State& state) {
  const int topology = static_cast<int>(state.range(0));
  const std::size_t num_nodes = static_cast<std::size_t>(state.range(1));
  const std::vector<std::vector<int>> adjacency =
      MoralGraph(MakeNetwork(topology, num_nodes)).adjacency();
  const std::vector<bool> eliminable(adjacency.size(), true);
  std::size_t width = 0;
  for (auto _ : state) {
    std::vector<int> order = MinFillOrder(adjacency, eliminable, &width);
    benchmark::DoNotOptimize(order.data());
  }
  state.counters["width"] = static_cast<double>(width);
  state.SetLabel(TopologyName(topology));
}
BENCHMARK(BM_MinFillOrder)
    ->ArgNames({"topo", "n"})
    ->Args({kTree, 127})
    ->Args({kGrid, 120})
    ->Args({kHubSpoke, 250})
    ->Unit(benchmark::kMicrosecond);

// ---- Node-class phase 1: the basis and every node's canonical form.
void BM_CanonicalizeAllNodes(benchmark::State& state) {
  const int topology = static_cast<int>(state.range(0));
  const std::size_t num_nodes = static_cast<std::size_t>(state.range(1));
  const std::vector<BayesianNetwork> thetas = {
      MakeNetwork(topology, num_nodes)};
  const MoralGraph graph = UnionMoralGraph(thetas);
  std::size_t form_bytes = 0;
  for (auto _ : state) {
    const CanonicalBasis basis(thetas, graph);
    std::vector<NodeCanonicalForm> forms(graph.num_nodes());
    for (std::size_t i = 0; i < forms.size(); ++i) {
      forms[i] = basis.Canonicalize(static_cast<int>(i));
    }
    form_bytes = 0;
    for (const NodeCanonicalForm& form : forms) {
      form_bytes += form.words.capacity() * sizeof(std::uint64_t) +
                    form.order.capacity() * sizeof(int);
    }
    benchmark::DoNotOptimize(forms.data());
  }
  state.counters["form_kb"] = static_cast<double>(form_bytes) / 1024.0;
  state.SetLabel(TopologyName(topology));
}
BENCHMARK(BM_CanonicalizeAllNodes)
    ->ArgNames({"topo", "n"})
    ->Args({kTree, 127})
    ->Args({kHubSpoke, 250})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pf

BENCHMARK_MAIN();
