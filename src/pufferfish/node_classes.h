// Per-node-class deduplication for Algorithm 2 on general Bayesian
// networks — the PR-3 convention (key cheaply, verify exactly, never trust
// a hash alone) applied to arbitrary topologies.
//
// The invariant that makes general-network dedup sound: sigma_i is a pure
// function of the network AS SEEN FROM node i — the isomorphism class of
// the network rooted at i, with CPTs attached. We therefore compute each
// node's score on its CANONICAL FORM: the factor system relabeled by a
// deterministic BFS-refinement order rooted at the target (which becomes
// variable 0), with factor scopes normalized to ascending canonical ids.
// Two nodes with byte-identical canonical forms pose byte-identical
// scoring problems, so they share sigma_i, the active-quilt shape, and the
// influence BIT-identically — the dedup path just caches the function.
//
// Key = 64-bit fingerprint of the form's flat encoding (local topology +
// CPT content + the target-rooted distance layering); membership is
// verified by exact comparison of the same encoding (SameProblem), so a
// hash collision can only cost a wasted compare, never a wrong score.
// Everything that does not depend on the root — each theta's factors and
// the initial refinement colors — is computed once per network
// (CanonicalBasis), not once per node. Nodes in symmetric positions
// (leaves of a star, same-depth nodes of a uniform tree, quadrant images
// of a grid) collapse into one class; nodes that merely look alike locally
// but differ anywhere in their rooted view do not — exactness over hit
// rate.
#ifndef PUFFERFISH_PUFFERFISH_NODE_CLASSES_H_
#define PUFFERFISH_PUFFERFISH_NODE_CLASSES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graphical/bayesian_network.h"
#include "graphical/factor.h"
#include "graphical/moral_graph.h"

namespace pf {

/// \brief One protected node's scoring problem in canonical labels, as one
/// flat word vector: the problem relabeled so the target is variable 0 and
/// everything else follows the rooted canonical order.
///
/// `words` is the whole problem — arities, moral adjacency, and per theta
/// the CPT factors (scopes renumbered and normalized to ascending canonical
/// ids, tables permuted to match, the list sorted by scope; value BITS, so
/// -0.0 and 0.0 differ) — in a length-prefixed layout, so equal vectors
/// mean equal problems. The class key and SameProblem both read exactly
/// these words, which is what makes the key cover everything equality
/// compares. Structured factor lists are decoded from the words only for
/// the class representatives that get scored (DecodeCanonicalProblem).
struct NodeCanonicalForm {
  /// order[new_id] = original node id (the inverse relabeling, used to map
  /// the chosen active quilt back to the caller's node ids).
  std::vector<int> order;
  /// The flat encoding (layout in node_classes.cc).
  std::vector<std::uint64_t> words;
  /// Cheap class key: fingerprint of `words`.
  std::uint64_t key = 0;

  /// Exact class-membership check: word equality of the encodings — the
  /// relabelings (`order`) may differ, that is the point.
  bool SameProblem(const NodeCanonicalForm& other) const;
};

/// \brief A canonical form decoded into the structures scoring consumes:
/// quilt generation runs on `adjacency`, influence inference on
/// `factors`/`arities` (all canonical ids).
struct CanonicalProblem {
  std::vector<int> arities;
  std::vector<std::vector<int>> adjacency;
  std::vector<std::vector<Factor>> factors;
};

/// \brief Decodes a form's words; the factors are bit-for-bit the values
/// the form was compared on.
CanonicalProblem DecodeCanonicalProblem(const NodeCanonicalForm& form);

/// \brief The root-independent half of canonicalisation, computed once per
/// network class and shared by every node's form: each theta's CPT factors,
/// the arities, and the dense ranks of the initial refinement colors
/// (arity, moral degree, CPT bytes per theta). Canonicalize is const and
/// keeps its scratch per thread, so forms may be built in parallel.
class CanonicalBasis {
 public:
  /// `graph` must be the (union) moral graph of `thetas` and outlive the
  /// basis.
  CanonicalBasis(const std::vector<BayesianNetwork>& thetas,
                 const MoralGraph& graph);

  /// \brief Builds the canonical form of `target`'s scoring problem.
  NodeCanonicalForm Canonicalize(int target) const;

 private:
  // The canonical order rooted at `target`: nodes sorted by (BFS distance
  // from target, refined color, original id). The color is an iterated
  // Weisfeiler-Leman refinement of (distance, initial color), so
  // structurally interchangeable nodes tie — and ties between genuinely
  // automorphic nodes are harmless, any resolution yields the same
  // canonical words. Nodes in other components sort after the target's
  // component (distance treated as num_nodes).
  std::vector<int> NodeOrder(int target) const;

  const MoralGraph& graph_;
  std::vector<int> arities_;
  std::vector<std::vector<Factor>> factors_;  // Per theta, original ids.
  std::vector<std::uint64_t> initial_colors_;  // Dense ranks.
  std::size_t initial_classes_ = 0;
  std::size_t form_words_ = 0;  // Root-independent encoding length.
};

/// \brief The union moral graph of a network class: an edge wherever ANY
/// theta's moralization has one. Quilts generated from separators of the
/// union graph separate in every theta, which is what Definition 4.2
/// requires of the whole class (structurally identical thetas — the common
/// case — make this the ordinary moral graph).
MoralGraph UnionMoralGraph(const std::vector<BayesianNetwork>& thetas);

}  // namespace pf

#endif  // PUFFERFISH_PUFFERFISH_NODE_CLASSES_H_
