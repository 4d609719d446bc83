// Discrete Bayesian networks: the dependence model of the Markov Quilt
// Mechanism (Section 4). A network is a DAG over finite-valued variables
// with conditional probability tables; the joint factorizes as
// P(X_1..X_n) = prod_i P(X_i | parents(X_i)).
//
// Inference runs on variable elimination (graphical/elimination.h), whose
// cost is exponential only in the induced treewidth — trees, stars, and
// grids of hundreds of nodes are fine. Full-joint enumeration (exponential
// in node count, so ~20 binary nodes) is the test-only oracle
// EnumerationConditionalJoint (reference/enumeration.h).
#ifndef PUFFERFISH_GRAPHICAL_BAYESIAN_NETWORK_H_
#define PUFFERFISH_GRAPHICAL_BAYESIAN_NETWORK_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/random.h"
#include "common/status.h"
#include "graphical/elimination.h"

namespace pf {

/// A complete assignment of values to all network variables;
/// assignment[i] in [0, arity(i)).
using Assignment = std::vector<int>;

/// \brief A discrete Bayesian network.
class BayesianNetwork {
 public:
  /// One variable: name, number of values, parent indices (must be < own
  /// index in the construction order, guaranteeing acyclicity), and CPT.
  /// The CPT has one row per joint parent assignment (mixed-radix order,
  /// first parent most significant) and one column per own value.
  struct Node {
    std::string name;
    int arity;
    std::vector<int> parents;
    Matrix cpt;
  };

  BayesianNetwork() = default;

  /// Appends a node. Parents must already exist (index < current size).
  /// Validates CPT dimensions and row-stochasticity.
  Status AddNode(std::string name, int arity, std::vector<int> parents,
                 Matrix cpt);

  std::size_t num_nodes() const { return nodes_.size(); }
  const Node& node(std::size_t i) const { return nodes_[i]; }

  /// Joint probability of a complete assignment.
  Result<double> JointProbability(const Assignment& a) const;

  /// Total number of joint assignments (product of arities). Fails if it
  /// exceeds `limit` (guard against accidental exponential blowups).
  Result<std::size_t> NumAssignments(std::size_t limit = 1u << 24) const;

  /// Calls `fn(assignment, probability)` for every assignment with nonzero
  /// probability mass.
  Status ForEachAssignment(
      const std::function<void(const Assignment&, double)>& fn,
      std::size_t limit = 1u << 24) const;

  /// \brief Conditional distribution of variable set `targets` given
  /// `evidence` (pairs of variable index and value). Returned as a flat mass
  /// vector over the mixed-radix product of target arities (first target
  /// most significant). Fails FailedPrecondition if the evidence has
  /// probability 0, and InvalidArgument if an index is out of range or the
  /// largest elimination clique table exceeds `limit` cells.
  Result<Vector> ConditionalJoint(
      const std::vector<int>& targets,
      const std::vector<std::pair<int, int>>& evidence,
      std::size_t limit = 1u << 24) const;

  /// Marginal distribution of one variable.
  Result<Vector> Marginal(int variable) const;

  /// \brief The network as a factor list (one CPT factor per node, in node
  /// order) plus the per-variable arity table — the inputs of
  /// FactorConditionalJoint. Exposed so callers can run many inference
  /// queries without rebuilding the factors each time.
  std::vector<Factor> Factors() const;
  std::vector<int> Arities() const;

  /// \brief Markov blanket of node i: parents, children, and co-parents
  /// (Section 4.2's baseline notion that the Markov quilt generalizes).
  std::vector<int> MarkovBlanket(int i) const;

  /// Children of node i.
  std::vector<int> Children(int i) const;

  /// Ancestral sampling of a complete assignment.
  Assignment Sample(Rng* rng) const;

  /// \brief Builds the length-T chain network X_0 -> X_1 -> ... -> X_{T-1}
  /// with the given per-step transition CPTs; node 0 uses `initial`.
  /// This embeds the Section 4.4 case study into the general framework.
  static Result<BayesianNetwork> FromMarkovChain(const Vector& initial,
                                                 const Matrix& transition,
                                                 std::size_t length);

 private:
  // Index into a CPT row for node i given a full assignment.
  std::size_t ParentIndex(const Node& n, const Assignment& a) const;

  std::vector<Node> nodes_;
};

}  // namespace pf

#endif  // PUFFERFISH_GRAPHICAL_BAYESIAN_NETWORK_H_
