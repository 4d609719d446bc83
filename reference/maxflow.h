// Dinic max-flow on small dense-ish graphs with real capacities. The
// combinatorial oracle of the reference W_inf solver
// (reference/wasserstein_reference.h): a coupling within distance t exists
// iff the bipartite transport network admits a flow of value 1.
#ifndef PUFFERFISH_REFERENCE_MAXFLOW_H_
#define PUFFERFISH_REFERENCE_MAXFLOW_H_

#include <cstddef>
#include <vector>

namespace pf {

/// \brief Max-flow solver (Dinic's algorithm) over double capacities.
///
/// Capacities are reals; augmentation stops when the residual level graph
/// admits no path with bottleneck above a small epsilon, which is exact for
/// the well-conditioned transport instances this library builds.
class MaxFlow {
 public:
  /// A flow network on `num_nodes` nodes (0-based).
  explicit MaxFlow(std::size_t num_nodes);

  /// Adds a directed edge u -> v with the given capacity (>= 0).
  void AddEdge(std::size_t u, std::size_t v, double capacity);

  /// \brief Computes the max-flow value from `source` to `sink`. May be
  /// called repeatedly; each call resets the flow state first.
  double Compute(std::size_t source, std::size_t sink);

 private:
  struct Edge {
    std::size_t to;
    double capacity;  // Residual capacity.
    std::size_t rev;  // Index of the reverse edge in graph_[to].
    double initial_capacity;  // For Compute() resets.
  };

  bool BuildLevels(std::size_t source, std::size_t sink);
  double Augment(std::size_t node, std::size_t sink, double limit);

  std::vector<std::vector<Edge>> graph_;
  std::vector<int> level_;
  std::vector<std::size_t> iter_;
};

}  // namespace pf

#endif  // PUFFERFISH_REFERENCE_MAXFLOW_H_
