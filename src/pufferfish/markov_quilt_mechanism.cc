#include "pufferfish/markov_quilt_mechanism.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "common/arena.h"
#include "common/deadline.h"
#include "common/parallel.h"
#include "graphical/moral_graph.h"
#include "pufferfish/framework.h"
#include "pufferfish/node_classes.h"

namespace pf {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

Status CheckSameShape(const std::vector<BayesianNetwork>& thetas) {
  if (thetas.empty()) return Status::InvalidArgument("empty distribution class");
  const BayesianNetwork& ref = thetas.front();
  for (const BayesianNetwork& bn : thetas) {
    if (bn.num_nodes() != ref.num_nodes()) {
      return Status::InvalidArgument("networks in Theta differ in node count");
    }
    for (std::size_t i = 0; i < bn.num_nodes(); ++i) {
      if (bn.node(i).arity != ref.node(i).arity) {
        return Status::InvalidArgument("networks in Theta differ in arity");
      }
    }
  }
  return Status::OK();
}

// Cheap structural validation of a node's search set, run before the
// expensive fan-out so malformed inputs fail fast.
Status CheckQuiltSet(const std::vector<MarkovQuilt>& quilt_set,
                     std::size_t node) {
  // Theorem 4.3 requires the trivial quilt in every search set.
  const bool has_trivial =
      std::any_of(quilt_set.begin(), quilt_set.end(),
                  [](const MarkovQuilt& q) { return q.quilt.empty(); });
  if (!has_trivial) {
    return Status::FailedPrecondition(
        "quilt set for node " + std::to_string(node) +
        " lacks the trivial quilt");
  }
  for (const MarkovQuilt& quilt : quilt_set) {
    if (quilt.target != static_cast<int>(node)) {
      return Status::InvalidArgument("quilt target does not match node");
    }
  }
  return Status::OK();
}

InferenceBackend ResolveBackend(InferenceBackend backend) {
  return backend == InferenceBackend::kAuto
             ? InferenceBackend::kVariableElimination
             : backend;
}

QuiltSearchMode ResolveSearch(const MqmAnalyzeOptions& options,
                              std::size_t num_nodes) {
  if (options.quilt_search != QuiltSearchMode::kAuto) {
    return options.quilt_search;
  }
  return num_nodes <= kExhaustiveNodeLimit
             ? QuiltSearchMode::kExhaustive
             : QuiltSearchMode::kSeparator;
}

// The guard message of the historical enumeration path, kept verbatim in
// spirit: it names the knob to raise and the specializations to reach for.
Status EnumerationGuardError(std::size_t limit) {
  return Status::InvalidArgument(
      "joint-assignment space exceeds enumeration_limit (" +
      std::to_string(limit) +
      "); raise MqmAnalyzeOptions::enumeration_limit, switch to the "
      "variable-elimination backend, or use the chain specializations "
      "(MqmExact / MqmApprox)");
}

// sigma_i for one node: the min-score quilt over its (validated) search
// set, against prebuilt per-theta factor systems. Pure in its inputs, so
// the per-node loop can fan out across threads.
Result<QuiltScore> ScoreNodeFactors(
    const std::vector<std::vector<Factor>>& theta_factors,
    const std::vector<int>& arities, double epsilon,
    const std::vector<MarkovQuilt>& quilt_set, std::size_t limit,
    InferenceBackend backend, EliminationStats* stats) {
  QuiltScore best;
  best.score = kInf;
  // Per-quilt cancellation checkpoint: each influence evaluation can cost
  // O(k^width), and ParallelFor re-installs the submitting request's
  // deadline in the workers, so this fires inside the parallel node scan.
  PF_RETURN_NOT_OK(CheckDeadline("quilt scoring"));
  for (const MarkovQuilt& quilt : quilt_set) {
    PF_ASSIGN_OR_RETURN(
        double e,
        QuiltMaxInfluenceFactors(theta_factors, arities, quilt, limit,
                                 backend, stats));
    QuiltScore qs;
    qs.quilt = quilt;
    qs.influence = e;
    qs.score = QuiltScoreFromInfluence(quilt.NearbyCount(), epsilon, e);
    if (qs.score < best.score) best = qs;
  }
  return best;
}

// One canonical class's search: candidates generated on the canonical
// graph, scored against the canonical factors. A pure function of the
// canonical form (plus the shared options), which is exactly why equal
// forms may share the result bit-for-bit.
struct CanonicalScore {
  QuiltScore best;
  EliminationStats stats;
};

Result<CanonicalScore> ScoreCanonical(const CanonicalProblem& problem,
                                      double epsilon,
                                      const MqmAnalyzeOptions& options,
                                      QuiltSearchMode search,
                                      InferenceBackend backend) {
  const MoralGraph graph(problem.adjacency);
  const std::vector<MarkovQuilt> candidates =
      search == QuiltSearchMode::kExhaustive
          ? EnumerateQuilts(graph, /*target=*/0, options.max_quilt_size)
          : SeparatorQuilts(graph, /*target=*/0, options.separator);
  CanonicalScore out;
  PF_ASSIGN_OR_RETURN(
      out.best,
      ScoreNodeFactors(problem.factors, problem.arities, epsilon, candidates,
                       options.enumeration_limit, backend, &out.stats));
  return out;
}

// Maps a canonical-label QuiltScore back to the caller's node ids through
// one node's own relabeling (each class member uses its OWN order — the
// class share the canonical problem, not the concrete labels).
QuiltScore MapBack(const QuiltScore& canonical, const NodeCanonicalForm& form,
                   int target) {
  QuiltScore out = canonical;
  out.quilt.target = target;
  for (std::vector<int>* ids :
       {&out.quilt.quilt, &out.quilt.nearby, &out.quilt.remote}) {
    for (int& v : *ids) v = form.order[static_cast<std::size_t>(v)];
    std::sort(ids->begin(), ids->end());
  }
  return out;
}

// Deterministic error reduction shared by both analyze paths: surface a
// real per-slot error (lowest index) before any "not computed" sentinel
// left behind by the early-out.
template <typename T>
Status FirstRealError(const std::vector<Result<T>>& slots) {
  for (const Result<T>& slot : slots) {
    if (!slot.ok() && slot.status().code() != StatusCode::kInternal) {
      return slot.status();
    }
  }
  for (const Result<T>& slot : slots) {
    if (!slot.ok()) return slot.status();
  }
  return Status::OK();
}

}  // namespace

double QuiltScoreFromInfluence(std::size_t nearby_count, double epsilon,
                               double influence) {
  return (influence < epsilon)
             ? static_cast<double>(nearby_count) / (epsilon - influence)
             : kInf;
}

Result<double> QuiltMaxInfluenceFactors(
    const std::vector<std::vector<Factor>>& theta_factors,
    const std::vector<int>& arities, const MarkovQuilt& quilt,
    std::size_t limit, InferenceBackend backend, EliminationStats* stats) {
  if (quilt.quilt.empty()) return 0.0;  // Trivial / pure-component quilt.
  const int i = quilt.target;
  const int arity = arities[static_cast<std::size_t>(i)];
  double influence = 0.0;
  // Conditional distribution of the quilt variables for each value of X_i.
  // The slots (and the evidence pair) are hoisted and the conditionals are
  // computed in place, so the per-theta inner loop issues its elimination
  // queries without heap allocations beyond the warm thread workspace.
  std::vector<Vector> cond(static_cast<std::size_t>(arity));
  std::vector<char> feasible(static_cast<std::size_t>(arity), 0);
  std::vector<std::pair<int, int>> evidence{{i, 0}};
  for (const std::vector<Factor>& factors : theta_factors) {
    for (int a = 0; a < arity; ++a) {
      evidence[0].second = a;
      const Status c = FactorConditionalJointInto(
          factors, arities, quilt.quilt, evidence, limit, backend, stats,
          &cond[static_cast<std::size_t>(a)]);
      if (!c.ok()) {
        if (c.code() == StatusCode::kFailedPrecondition) {
          feasible[static_cast<std::size_t>(a)] = 0;  // P(X_i=a) = 0.
          continue;
        }
        return c;
      }
      feasible[static_cast<std::size_t>(a)] = 1;
    }
    for (int a = 0; a < arity; ++a) {
      if (!feasible[static_cast<std::size_t>(a)]) continue;
      for (int b = 0; b < arity; ++b) {
        if (a == b || !feasible[static_cast<std::size_t>(b)]) continue;
        const Vector& pa = cond[static_cast<std::size_t>(a)];
        const Vector& pb = cond[static_cast<std::size_t>(b)];
        for (std::size_t cell = 0; cell < pa.size(); ++cell) {
          if (pa[cell] <= 0.0) continue;
          if (pb[cell] <= 0.0) return kInf;
          influence = std::max(influence, std::log(pa[cell] / pb[cell]));
        }
      }
    }
  }
  return influence;
}

Result<double> QuiltMaxInfluence(const std::vector<BayesianNetwork>& thetas,
                                 const MarkovQuilt& quilt, std::size_t limit,
                                 InferenceBackend backend,
                                 EliminationStats* stats) {
  PF_RETURN_NOT_OK(CheckSameShape(thetas));
  if (quilt.quilt.empty()) return 0.0;  // Trivial quilt.
  // The enumeration backend walks the full joint-assignment space; honor
  // the caller's guard before fanning out, with the historical message.
  // CheckSameShape guarantees every theta shares node count and arities,
  // so one check covers all.
  if (backend == InferenceBackend::kEnumeration &&
      !thetas.front().NumAssignments(limit).ok()) {
    return EnumerationGuardError(limit);
  }
  std::vector<std::vector<Factor>> theta_factors;
  theta_factors.reserve(thetas.size());
  for (const BayesianNetwork& bn : thetas) theta_factors.push_back(bn.Factors());
  return QuiltMaxInfluenceFactors(theta_factors, thetas.front().Arities(),
                                  quilt, limit, backend, stats);
}

Result<MqmAnalysis> AnalyzeMarkovQuiltMechanismWithQuilts(
    const std::vector<BayesianNetwork>& thetas, double epsilon,
    const std::vector<std::vector<MarkovQuilt>>& quilt_sets,
    const MqmAnalyzeOptions& options) {
  PF_RETURN_NOT_OK(ValidatePrivacyParams({epsilon}));
  PF_RETURN_NOT_OK(CheckSameShape(thetas));
  const std::size_t n = thetas.front().num_nodes();
  if (quilt_sets.size() != n) {
    return Status::InvalidArgument("need one quilt set per node");
  }
  for (std::size_t i = 0; i < n; ++i) {
    PF_RETURN_NOT_OK(CheckQuiltSet(quilt_sets[i], i));
  }
  const InferenceBackend backend = ResolveBackend(options.backend);
  if (backend == InferenceBackend::kEnumeration &&
      !thetas.front().NumAssignments(options.enumeration_limit).ok()) {
    return EnumerationGuardError(options.enumeration_limit);
  }
  std::vector<std::vector<Factor>> theta_factors;
  theta_factors.reserve(thetas.size());
  for (const BayesianNetwork& bn : thetas) theta_factors.push_back(bn.Factors());
  const std::vector<int> arities = thetas.front().Arities();
  // Per-node searches are independent; fan out and reduce sequentially so
  // the result is identical for every thread count. The failed flag only
  // short-circuits wasted work on the error path; the reduction below
  // still reports the lowest-index error deterministically.
  std::vector<Result<QuiltScore>> scores(n, Status::Internal("not computed"));
  std::vector<EliminationStats> stats(n);
  const std::size_t arena_blocks_before = Arena::TotalBlockAllocations();
  std::atomic<bool> failed{false};
  ParallelFor(options.num_threads, n, [&](std::size_t i) {
    if (failed.load(std::memory_order_relaxed)) return;
    scores[i] =
        ScoreNodeFactors(theta_factors, arities, epsilon, quilt_sets[i],
                         options.enumeration_limit, backend, &stats[i]);
    if (!scores[i].ok()) failed.store(true, std::memory_order_relaxed);
  });
  PF_RETURN_NOT_OK(FirstRealError(scores));
  MqmAnalysis analysis;
  analysis.active.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const QuiltScore& best = scores[i].value();
    analysis.active.push_back(best);
    if (best.score > analysis.sigma_max) {
      analysis.sigma_max = best.score;
      analysis.worst_node = static_cast<int>(i);
    }
  }
  EliminationStats merged;
  for (const EliminationStats& s : stats) merged.MergeMax(s);
  analysis.total_nodes = n;
  analysis.scored_nodes = n;
  analysis.induced_width = merged.induced_width;
  analysis.memory.peak_bytes = merged.peak_factor_bytes;
  analysis.memory.arena_retained_bytes = Arena::TotalRetainedBytes();
  analysis.memory.mallocs =
      Arena::TotalBlockAllocations() - arena_blocks_before;
  analysis.treewidth_bound =
      MinFillWidth(UnionMoralGraph(thetas).adjacency());
  return analysis;
}

Result<MqmAnalysis> AnalyzeMarkovQuiltMechanism(
    const std::vector<BayesianNetwork>& thetas, double epsilon,
    const MqmAnalyzeOptions& options) {
  PF_RETURN_NOT_OK(ValidatePrivacyParams({epsilon}));
  PF_RETURN_NOT_OK(CheckSameShape(thetas));
  const MoralGraph graph = UnionMoralGraph(thetas);
  const std::size_t n = thetas.front().num_nodes();
  const InferenceBackend backend = ResolveBackend(options.backend);
  const QuiltSearchMode search = ResolveSearch(options, n);
  if (backend == InferenceBackend::kEnumeration &&
      !thetas.front().NumAssignments(options.enumeration_limit).ok()) {
    return EnumerationGuardError(options.enumeration_limit);
  }
  // One pool serves both parallel phases.
  ThreadPool pool(options.num_threads);
  // Phase 1: every node's canonical rooted form — pure per node given the
  // shared root-independent basis, so the construction fans out.
  const CanonicalBasis basis(thetas, graph);
  std::vector<NodeCanonicalForm> forms(n);
  pool.ParallelFor(n, [&](std::size_t i) {
    forms[i] = basis.Canonicalize(static_cast<int>(i));
  });
  // Phase 2: group nodes into classes, sequentially (deterministic class
  // ids and representatives for every thread count). The hash only routes
  // to a bucket; membership is decided by the exact form comparison.
  std::vector<std::size_t> class_of(n, 0);
  std::vector<std::size_t> representative;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> buckets;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t cls = representative.size();
    if (options.dedup_nodes) {
      // Bucket members are representative node ids; the exact compare is
      // against the representative's full form.
      for (std::size_t candidate : buckets[forms[i].key]) {
        if (forms[i].SameProblem(forms[candidate])) {
          cls = class_of[candidate];
          break;
        }
      }
    }
    if (cls == representative.size()) {
      representative.push_back(i);
      buckets[forms[i].key].push_back(i);
    }
    class_of[i] = cls;
  }
  // Phase 3: score one representative per class, in parallel; only the
  // representatives' forms are decoded into factor lists.
  const std::size_t arena_blocks_before = Arena::TotalBlockAllocations();
  const std::size_t num_classes = representative.size();
  std::vector<Result<CanonicalScore>> scored(
      num_classes, Status::Internal("not computed"));
  std::atomic<bool> failed{false};
  pool.ParallelFor(num_classes, [&](std::size_t c) {
    if (failed.load(std::memory_order_relaxed)) return;
    scored[c] = ScoreCanonical(DecodeCanonicalProblem(forms[representative[c]]),
                               epsilon, options, search, backend);
    if (!scored[c].ok()) failed.store(true, std::memory_order_relaxed);
  });
  PF_RETURN_NOT_OK(FirstRealError(scored));
  // Phase 4: sequential reduction — each node maps its class's canonical
  // result back through its OWN relabeling.
  MqmAnalysis analysis;
  analysis.active.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const QuiltScore best = MapBack(scored[class_of[i]].value().best,
                                    forms[i], static_cast<int>(i));
    analysis.active.push_back(best);
    if (best.score > analysis.sigma_max) {
      analysis.sigma_max = best.score;
      analysis.worst_node = static_cast<int>(i);
    }
  }
  EliminationStats merged;
  for (const Result<CanonicalScore>& s : scored) merged.MergeMax(s.value().stats);
  analysis.total_nodes = n;
  analysis.scored_nodes = num_classes;
  analysis.induced_width = merged.induced_width;
  analysis.memory.peak_bytes = merged.peak_factor_bytes;
  analysis.memory.arena_retained_bytes = Arena::TotalRetainedBytes();
  analysis.memory.mallocs =
      Arena::TotalBlockAllocations() - arena_blocks_before;
  analysis.treewidth_bound = MinFillWidth(graph.adjacency());
  return analysis;
}

}  // namespace pf
