// The Markov Quilt Mechanism (Algorithm 2) for general Bayesian networks.
// For each protected node X_i it searches a set of Markov quilts, scores
// each quilt X_Q (with nearby set X_N) as
//    sigma(X_Q) = card(X_N) / (epsilon - e_Theta(X_Q | X_i))
// when the max-influence e_Theta(X_Q|X_i) < epsilon (infinite otherwise),
// takes sigma_i = min over quilts and sigma_max = max_i sigma_i, and
// releases F(D) + L * sigma_max * Lap(1). Theorem 4.3 proves
// epsilon-Pufferfish privacy provided the trivial quilt is always searched.
//
// Scaling (this layer's job): max-influence inference runs on variable
// elimination by default — cost exponential in the moral graph's induced
// treewidth, not its node count — quilt candidates come from a separator
// search that stays O(radius) per node on large networks, and the per-node
// sigma_i loop deduplicates nodes by canonical rooted form (see
// pufferfish/node_classes.h), all bit-identical to the exhaustive
// reference paths they replace. Trees, stars, and grids of hundreds of
// nodes analyze in milliseconds where the enumeration reference caps out
// near 20 binary nodes. The Markov-chain specializations (MqmExact,
// MqmApprox) remain the right tool for chains, scaling to T ~ 10^6.
#ifndef PUFFERFISH_PUFFERFISH_MARKOV_QUILT_MECHANISM_H_
#define PUFFERFISH_PUFFERFISH_MARKOV_QUILT_MECHANISM_H_

#include <vector>

#include "common/memory_stats.h"
#include "common/status.h"
#include "graphical/bayesian_network.h"
#include "graphical/elimination.h"
#include "graphical/markov_quilt.h"

namespace pf {

/// A quilt together with its computed max-influence and score.
struct QuiltScore {
  MarkovQuilt quilt;
  /// e_Theta(X_Q | X_i) (Definition 4.1); +infinity if unbounded.
  double influence = 0.0;
  /// card(X_N) / (epsilon - influence); +infinity when influence >= epsilon.
  double score = 0.0;
};

/// Result of the quilt search: the noise multiplier, per-node choices, and
/// analysis-cost diagnostics.
struct MqmAnalysis {
  /// sigma_max = max_i min_quilt score. Laplace scale is L * sigma_max.
  double sigma_max = 0.0;
  /// Per node: the active quilt (Definition 4.5) achieving sigma_i.
  std::vector<QuiltScore> active;
  /// Node attaining sigma_max.
  int worst_node = 0;

  // ---- Analysis-cost diagnostics ----
  /// Nodes the sigma_i loop covered (the network's node count).
  std::size_t total_nodes = 0;
  /// sigma_i searches actually executed: one per canonical node class
  /// (== total_nodes when dedup is off or every node is structurally
  /// unique).
  std::size_t scored_nodes = 0;
  /// Largest elimination clique (minus one) observed across all influence
  /// inferences — the induced width actually paid. 0 under the
  /// enumeration backend.
  std::size_t induced_width = 0;
  /// Min-fill induced width of the (union) moral graph — the treewidth
  /// upper bound the mechanism-selection policy screens against.
  std::size_t treewidth_bound = 0;
  /// Memory accounting of the analysis. `peak_bytes`: peak bytes of
  /// simultaneously live factor tables in any single influence inference
  /// (0 under the enumeration backend). `arena_retained_bytes`: bytes held
  /// by the per-thread elimination workspace arenas for reuse.
  /// `mallocs`: arena block allocations during the analysis — 0 once the
  /// workspaces are warm. The latter two are read from process-wide arena
  /// counters, so concurrent unrelated analyses can inflate them; the
  /// steady-state zero of `mallocs` is exact when this analysis runs
  /// alone.
  MemoryStats memory;
  /// Work saved by the node-class dedup: total_nodes / scored_nodes.
  double dedup_ratio() const {
    return scored_nodes == 0
               ? 1.0
               : static_cast<double>(total_nodes) /
                     static_cast<double>(scored_nodes);
  }
};

/// How per-node quilt candidates are generated.
enum class QuiltSearchMode {
  /// Exhaustive up to kExhaustiveNodeLimit nodes, separator-driven beyond.
  kAuto,
  /// All separators of size <= max_quilt_size (EnumerateQuilts) — the
  /// reference search; exponential in max_quilt_size.
  kExhaustive,
  /// BFS-radius-bounded vertex cuts around the target (SeparatorQuilts) —
  /// O(max_radius) candidates per node. The trivial quilt is always
  /// included (Theorem 4.3), so this narrows the search, never the
  /// guarantee.
  kSeparator,
};

/// QuiltSearchMode::kAuto threshold: networks with more nodes than this
/// switch from the exhaustive subset search to the separator search.
inline constexpr std::size_t kExhaustiveNodeLimit = 16;

/// Tuning knobs for the Algorithm 2 search.
struct MqmAnalyzeOptions {
  /// Largest separator size searched when quilts are enumerated
  /// exhaustively. (The sphere search carries its own radius and size
  /// caps in `separator`.)
  std::size_t max_quilt_size = 2;
  /// Guard on the inference cost measure: the joint-assignment space for
  /// the enumeration backend (the historical meaning), the largest
  /// elimination clique table for the variable-elimination backend.
  /// Exceeding it fails the analysis with InvalidArgument.
  std::size_t enumeration_limit = 1u << 22;
  /// Worker threads for the per-class sigma_i loop and the canonical-form
  /// construction; 0 = hardware concurrency (the library-wide convention,
  /// see common/parallel.h). Results are bit-identical for every value
  /// (classes are formed sequentially, score independently, and the
  /// sigma_max reduction is sequential).
  std::size_t num_threads = 0;
  /// Inference backend for max-influence conditionals. kAuto resolves to
  /// variable elimination (the scalable default); kEnumeration is the
  /// exponential-in-node-count reference ground truth.
  InferenceBackend backend = InferenceBackend::kAuto;
  /// Quilt candidate generation (see QuiltSearchMode).
  QuiltSearchMode quilt_search = QuiltSearchMode::kAuto;
  /// Knobs for the separator search (radius and sphere-size caps).
  SeparatorSearchOptions separator;
  /// \brief Score one representative node per canonical class instead of
  /// every node. Nodes are keyed by their canonical rooted form (local
  /// topology + CPT content + boundary-distance layering, see
  /// pufferfish/node_classes.h); membership is verified by exact
  /// byte comparison of the full form — never by hash alone — and every
  /// node's score is computed as a pure function of that form, so results
  /// are bit-identical to the exhaustive scan. Off = score every node
  /// (the reference, kept for verification and benchmarks).
  bool dedup_nodes = true;
};

/// \brief The Algorithm 2 quilt score: card(X_N) / (epsilon - influence)
/// when influence < epsilon, +infinity otherwise. Shared by the general,
/// exact-chain, and approx-chain searches.
double QuiltScoreFromInfluence(std::size_t nearby_count, double epsilon,
                               double influence);

/// \brief Max-influence e_Theta(X_Q|X_i) of a quilt under a class of
/// networks (Definition 4.1): the largest log-ratio
/// log P(X_Q = x_Q | X_i = a, theta) / P(X_Q = x_Q | X_i = b, theta)
/// over values a, b with positive probability, quilt assignments x_Q, and
/// theta in Theta. Returns +infinity when the supports differ, and
/// InvalidArgument when the backend's guarded cost measure exceeds `limit`
/// (the joint-assignment space for the default enumeration backend — the
/// historical behavior — or the largest elimination clique table for
/// kVariableElimination / kAuto).
Result<double> QuiltMaxInfluence(const std::vector<BayesianNetwork>& thetas,
                                 const MarkovQuilt& quilt,
                                 std::size_t limit = 1u << 22,
                                 InferenceBackend backend =
                                     InferenceBackend::kEnumeration,
                                 EliminationStats* stats = nullptr);

/// \brief Max-influence over prebuilt factor systems (one factor list per
/// theta, shared arity table) — the inner loop of the sigma_i search,
/// exposed so callers scoring many quilts against one class avoid
/// rebuilding factors per quilt. Semantics match QuiltMaxInfluence.
Result<double> QuiltMaxInfluenceFactors(
    const std::vector<std::vector<Factor>>& theta_factors,
    const std::vector<int>& arities, const MarkovQuilt& quilt,
    std::size_t limit, InferenceBackend backend,
    EliminationStats* stats = nullptr);

/// \brief Runs the Algorithm 2 search with quilts generated per
/// options.quilt_search (always including the trivial quilt, as Theorem
/// 4.3 requires) over the UNION moral graph of the class — a separator of
/// the union graph separates in every theta, which is what Definition 4.2
/// demands of the whole class. All networks must share node count and
/// arities. The per-node sigma_i searches run on options.num_threads
/// threads and deduplicate by canonical node class unless
/// options.dedup_nodes is off.
Result<MqmAnalysis> AnalyzeMarkovQuiltMechanism(
    const std::vector<BayesianNetwork>& thetas, double epsilon,
    const MqmAnalyzeOptions& options);

/// \brief As above but with caller-supplied quilt sets S_{Q,i} (one vector
/// per node). Each set must contain the trivial quilt; validated. Scores
/// every node against its own set in the caller's labeling (no node-class
/// dedup — arbitrary sets defeat the canonical-form argument).
Result<MqmAnalysis> AnalyzeMarkovQuiltMechanismWithQuilts(
    const std::vector<BayesianNetwork>& thetas, double epsilon,
    const std::vector<std::vector<MarkovQuilt>>& quilt_sets,
    const MqmAnalyzeOptions& options);

}  // namespace pf

#endif  // PUFFERFISH_PUFFERFISH_MARKOV_QUILT_MECHANISM_H_
