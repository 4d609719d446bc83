#include "reference/maxflow.h"

#include <algorithm>
#include <limits>
#include <queue>

namespace pf {

namespace {
constexpr double kFlowEps = 1e-12;
}

MaxFlow::MaxFlow(std::size_t num_nodes) : graph_(num_nodes) {}

void MaxFlow::AddEdge(std::size_t u, std::size_t v, double capacity) {
  graph_[u].push_back({v, capacity, graph_[v].size(), capacity});
  graph_[v].push_back({u, 0.0, graph_[u].size() - 1, 0.0});
}

bool MaxFlow::BuildLevels(std::size_t source, std::size_t sink) {
  level_.assign(graph_.size(), -1);
  std::queue<std::size_t> queue;
  level_[source] = 0;
  queue.push(source);
  while (!queue.empty()) {
    const std::size_t u = queue.front();
    queue.pop();
    for (const Edge& e : graph_[u]) {
      if (e.capacity > kFlowEps && level_[e.to] < 0) {
        level_[e.to] = level_[u] + 1;
        queue.push(e.to);
      }
    }
  }
  return level_[sink] >= 0;
}

double MaxFlow::Augment(std::size_t node, std::size_t sink, double limit) {
  if (node == sink) return limit;
  for (std::size_t& i = iter_[node]; i < graph_[node].size(); ++i) {
    Edge& e = graph_[node][i];
    if (e.capacity <= kFlowEps || level_[e.to] != level_[node] + 1) continue;
    const double pushed = Augment(e.to, sink, std::min(limit, e.capacity));
    if (pushed > 0.0) {
      e.capacity -= pushed;
      graph_[e.to][e.rev].capacity += pushed;
      return pushed;
    }
  }
  return 0.0;
}

double MaxFlow::Compute(std::size_t source, std::size_t sink) {
  // Reset residual capacities so Compute() is idempotent.
  for (std::vector<Edge>& edges : graph_) {
    for (Edge& e : edges) e.capacity = e.initial_capacity;
  }
  double total = 0.0;
  while (BuildLevels(source, sink)) {
    iter_.assign(graph_.size(), 0);
    while (true) {
      const double pushed =
          Augment(source, sink, std::numeric_limits<double>::infinity());
      if (pushed <= 0.0) break;
      total += pushed;
    }
  }
  return total;
}

}  // namespace pf
