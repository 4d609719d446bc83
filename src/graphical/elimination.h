// Structured exact inference by variable elimination. Elimination sums
// variables out one at a time along a min-fill ordering, so its cost is
// exponential only in the INDUCED WIDTH of that ordering (an upper bound
// on treewidth) — constant for chains, trees, and stars, min(rows, cols)
// for grids — where a walk of the full joint-assignment space is
// exponential in NODE COUNT. This is what lets Algorithm 2 run on networks
// of hundreds of nodes instead of ~20. (That full-joint walk survives only
// as the test-only oracle in reference/enumeration.h.)
//
// The tree-decomposition view (WCOJ / junction-tree literature): each
// elimination step materializes one bag of the decomposition; the `limit`
// guard bounds the largest bag's table, not the joint space.
#ifndef PUFFERFISH_GRAPHICAL_ELIMINATION_H_
#define PUFFERFISH_GRAPHICAL_ELIMINATION_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "common/status.h"
#include "graphical/factor.h"

namespace pf {

/// Inference selector of MqmAnalyzeOptions::backend and
/// EngineOptions::network_backend. Both values mean variable elimination,
/// the only inference in pf_core, and nothing in pf_core reads the fields.
enum class InferenceBackend {
  kAuto,
  kVariableElimination,
};

/// Cost diagnostics of one (or the max over several) elimination runs.
struct EliminationStats {
  /// Largest clique minus one over the run: max over eliminated variables
  /// of the number of other variables in the combined factor. An induced
  /// width of w means the biggest table had <= arity^(w+1) cells.
  std::size_t induced_width = 0;
  /// Peak bytes of simultaneously live factor tables.
  std::size_t peak_factor_bytes = 0;

  /// Folds another run into this one (both fields max — the quantities
  /// bound worst-case cost, so the max over runs is the honest summary).
  void MergeMax(const EliminationStats& other);
};

/// \brief Min-fill elimination order over an undirected interaction graph
/// (`adjacency` symmetric; self-loops and repeats are ignored):
/// repeatedly removes the eliminable vertex whose neighborhood needs the
/// fewest fill-in edges (ties to the smallest vertex id — fully
/// deterministic), marrying its remaining neighbors. Vertices with
/// `eliminable[v] == false` (query targets) are never removed but keep
/// participating as neighbors. Returns the order; `induced_width` (if
/// non-null) receives the max remaining-neighbor count at removal time.
///
/// Incremental: fill counts are cached per vertex and, after each
/// removal of v, recounted only on N(v) u N(N(v)) — the only vertices
/// whose count the removal can change — so the order is the one a full
/// rescan per step gives, with the same (fill, smallest id) tie rule.
/// This is the one min-fill in the library: the elimination backend runs
/// it per query on the reduced factor graph, MinFillWidth on the whole
/// moral graph.
std::vector<int> MinFillOrder(const std::vector<std::vector<int>>& adjacency,
                              const std::vector<bool>& eliminable,
                              std::size_t* induced_width);

/// \brief Min-fill induced width of eliminating the WHOLE graph — the
/// treewidth upper bound the engine's mechanism-selection policy compares
/// against its cutoff before routing a network model to Algorithm 2.
std::size_t MinFillWidth(const std::vector<std::vector<int>>& adjacency);

/// \brief Conditional joint of `targets` given `evidence` under the
/// (normalized or unnormalized) distribution prod_f factors[f], as a flat
/// mass vector over the mixed-radix product of target arities (first
/// target most significant — the BayesianNetwork::ConditionalJoint
/// convention; targets may repeat and may appear in the evidence).
///
/// `arities[v]` is the domain size of variable id v; every factor scope
/// must index into it. Fails FailedPrecondition when the evidence has
/// probability zero and InvalidArgument when the largest intermediate
/// table of the elimination exceeds `limit` cells.
Result<Vector> FactorConditionalJoint(
    const std::vector<Factor>& factors, const std::vector<int>& arities,
    const std::vector<int>& targets,
    const std::vector<std::pair<int, int>>& evidence, std::size_t limit,
    EliminationStats* stats = nullptr);

/// \brief FactorConditionalJoint writing into a caller-retained vector
/// (capacity reused). Every intermediate — reduced tables, clique
/// products, min-fill scratch — lives in a per-thread retained arena/pool,
/// so a warm thread answers repeated queries with ZERO heap allocations.
/// Results are identical to FactorConditionalJoint.
Status FactorConditionalJointInto(
    const std::vector<Factor>& factors, const std::vector<int>& arities,
    const std::vector<int>& targets,
    const std::vector<std::pair<int, int>>& evidence, std::size_t limit,
    EliminationStats* stats, Vector* out);

/// Bytes retained by the CALLING thread's elimination workspace arena (the
/// reuse pool behind the zero-allocation steady state). Diagnostic.
std::size_t EliminationScratchRetainedBytes();

}  // namespace pf

#endif  // PUFFERFISH_GRAPHICAL_ELIMINATION_H_
