#include "reference/enumeration.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/parallel.h"
#include "graphical/moral_graph.h"
#include "pufferfish/framework.h"
#include "pufferfish/node_classes.h"

namespace pf {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// pf_core's refusals for a distribution class: empty, or networks that
// differ in node count or arity.
Status CheckSameShape(const std::vector<BayesianNetwork>& thetas) {
  if (thetas.empty()) return Status::InvalidArgument("empty distribution class");
  const std::vector<int> arities = thetas.front().Arities();
  for (const BayesianNetwork& bn : thetas) {
    if (bn.Arities() != arities) {
      return Status::InvalidArgument("networks in Theta differ in shape");
    }
  }
  return Status::OK();
}

// The analysis-level guard: InvalidArgument where ForEachAssignment would
// answer OutOfRange.
Status CheckJointSpace(const BayesianNetwork& bn, std::size_t limit) {
  if (bn.NumAssignments(limit).ok()) return Status::OK();
  return Status::InvalidArgument(
      "joint-assignment space exceeds the enumeration limit (" +
      std::to_string(limit) + ")");
}

}  // namespace

Result<Vector> EnumerationConditionalJoint(
    const BayesianNetwork& bn, const std::vector<int>& targets,
    const std::vector<std::pair<int, int>>& evidence, std::size_t limit) {
  std::size_t cells = 1;
  for (int t : targets) {
    if (t < 0 || static_cast<std::size_t>(t) >= bn.num_nodes()) {
      return Status::InvalidArgument("target index out of range");
    }
    cells *=
        static_cast<std::size_t>(bn.node(static_cast<std::size_t>(t)).arity);
  }
  for (const auto& [var, val] : evidence) {
    if (var < 0 || static_cast<std::size_t>(var) >= bn.num_nodes() || val < 0 ||
        val >= bn.node(static_cast<std::size_t>(var)).arity) {
      return Status::InvalidArgument("evidence out of range");
    }
  }
  Vector mass(cells, 0.0);
  double evidence_mass = 0.0;
  PF_RETURN_NOT_OK(bn.ForEachAssignment(
      [&](const Assignment& a, double p) {
        for (const auto& [var, val] : evidence) {
          if (a[static_cast<std::size_t>(var)] != val) return;
        }
        evidence_mass += p;
        std::size_t idx = 0;
        for (int t : targets) {
          idx = idx * static_cast<std::size_t>(
                          bn.node(static_cast<std::size_t>(t)).arity) +
                static_cast<std::size_t>(a[static_cast<std::size_t>(t)]);
        }
        mass[idx] += p;
      },
      limit));
  if (evidence_mass <= 0.0) {
    return Status::FailedPrecondition("evidence has probability zero");
  }
  for (double& v : mass) v /= evidence_mass;
  return mass;
}

Result<double> QuiltMaxInfluenceByEnumeration(
    const std::vector<BayesianNetwork>& thetas, const MarkovQuilt& quilt,
    std::size_t limit) {
  PF_RETURN_NOT_OK(CheckSameShape(thetas));
  if (quilt.quilt.empty()) return 0.0;  // Trivial / pure-component quilt.
  PF_RETURN_NOT_OK(CheckJointSpace(thetas.front(), limit));
  const int i = quilt.target;
  double influence = 0.0;
  for (const BayesianNetwork& bn : thetas) {
    // cond[a] = P(X_Q | X_i = a); FailedPrecondition marks P(X_i = a) = 0.
    std::vector<Result<Vector>> cond;
    for (int a = 0; a < bn.node(static_cast<std::size_t>(i)).arity; ++a) {
      cond.push_back(
          EnumerationConditionalJoint(bn, quilt.quilt, {{i, a}}, limit));
      if (!cond.back().ok() &&
          cond.back().status().code() != StatusCode::kFailedPrecondition) {
        return cond.back().status();
      }
    }
    for (const Result<Vector>& pa : cond) {
      for (const Result<Vector>& pb : cond) {
        if (&pa == &pb || !pa.ok() || !pb.ok()) continue;
        for (std::size_t cell = 0; cell < pa.value().size(); ++cell) {
          if (pa.value()[cell] <= 0.0) continue;
          if (pb.value()[cell] <= 0.0) return kInf;
          influence = std::max(influence,
                               std::log(pa.value()[cell] / pb.value()[cell]));
        }
      }
    }
  }
  return influence;
}

Result<MqmAnalysis> AnalyzeByEnumeration(
    const std::vector<BayesianNetwork>& thetas, double epsilon,
    const MqmAnalyzeOptions& options, std::size_t limit) {
  PF_RETURN_NOT_OK(ValidatePrivacyParams({epsilon}));
  PF_RETURN_NOT_OK(CheckSameShape(thetas));
  PF_RETURN_NOT_OK(CheckJointSpace(thetas.front(), limit));
  const MoralGraph graph = UnionMoralGraph(thetas);
  const std::size_t n = thetas.front().num_nodes();
  QuiltSearchMode search = options.quilt_search;
  if (search == QuiltSearchMode::kAuto) {
    search = n <= kExhaustiveNodeLimit ? QuiltSearchMode::kExhaustive
                                       : QuiltSearchMode::kSeparator;
  }
  std::vector<Result<QuiltScore>> scores(n, Status::Internal("not computed"));
  ParallelFor(options.num_threads, n, [&](std::size_t i) {
    const int target = static_cast<int>(i);
    const std::vector<MarkovQuilt> candidates =
        search == QuiltSearchMode::kExhaustive
            ? EnumerateQuilts(graph, target, options.max_quilt_size)
            : SeparatorQuilts(graph, target, options.separator);
    QuiltScore best;
    best.score = kInf;
    for (const MarkovQuilt& quilt : candidates) {
      const Result<double> e =
          QuiltMaxInfluenceByEnumeration(thetas, quilt, limit);
      if (!e.ok()) {
        scores[i] = e.status();
        return;
      }
      const double score =
          QuiltScoreFromInfluence(quilt.NearbyCount(), epsilon, e.value());
      if (score < best.score) best = {quilt, e.value(), score};
    }
    scores[i] = best;
  });
  MqmAnalysis analysis;
  for (std::size_t i = 0; i < n; ++i) {
    PF_ASSIGN_OR_RETURN(const QuiltScore best, scores[i]);
    analysis.active.push_back(best);
    if (best.score > analysis.sigma_max) {
      analysis.sigma_max = best.score;
      analysis.worst_node = static_cast<int>(i);
    }
  }
  analysis.total_nodes = n;
  analysis.scored_nodes = n;
  analysis.treewidth_bound = MinFillWidth(graph.adjacency());
  return analysis;
}

}  // namespace pf
