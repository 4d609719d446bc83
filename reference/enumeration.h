// Full-joint enumeration oracles for pf_core's variable-elimination
// inference and the Algorithm 2 search built on it. Each walks the whole
// joint-assignment space with BayesianNetwork::ForEachAssignment, which
// reads every CPT directly and never the factor tables that elimination
// runs on. The cost is exponential in node count (about 20 binary nodes is
// the practical cap).
#ifndef PUFFERFISH_REFERENCE_ENUMERATION_H_
#define PUFFERFISH_REFERENCE_ENUMERATION_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "common/status.h"
#include "graphical/bayesian_network.h"
#include "pufferfish/markov_quilt_mechanism.h"

namespace pf {

/// \brief BayesianNetwork::ConditionalJoint by walking the full
/// joint-assignment space. Fails InvalidArgument when an index is out of
/// range, OutOfRange when that space exceeds `limit` and FailedPrecondition
/// when the evidence has probability zero.
Result<Vector> EnumerationConditionalJoint(
    const BayesianNetwork& bn, const std::vector<int>& targets,
    const std::vector<std::pair<int, int>>& evidence, std::size_t limit);

/// \brief QuiltMaxInfluence with every conditional enumerated. Fails
/// InvalidArgument when the networks in `thetas` differ in shape or a
/// non-trivial quilt meets a joint-assignment space larger than `limit`.
Result<double> QuiltMaxInfluenceByEnumeration(
    const std::vector<BayesianNetwork>& thetas, const MarkovQuilt& quilt,
    std::size_t limit = kInferenceTableLimit);

/// \brief AnalyzeMarkovQuiltMechanism with enumerated influences, scoring
/// every node (no dedup) over the union-moral-graph candidates that
/// options.quilt_search selects, on options.num_threads threads. Fails
/// InvalidArgument when the networks in `thetas` differ in shape or the
/// joint-assignment space exceeds `limit`.
Result<MqmAnalysis> AnalyzeByEnumeration(
    const std::vector<BayesianNetwork>& thetas, double epsilon,
    const MqmAnalyzeOptions& options,
    std::size_t limit = kInferenceTableLimit);

}  // namespace pf

#endif  // PUFFERFISH_REFERENCE_ENUMERATION_H_
