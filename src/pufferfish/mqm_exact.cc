#include "pufferfish/mqm_exact.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/deadline.h"
#include "common/fingerprint.h"
#include "common/parallel.h"
#include "pufferfish/framework.h"

namespace pf {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Evaluates the Eq. (5) terms for one transition matrix. Two-phase use:
// PrepareDistances() builds the matrix powers P^0..P^max_distance and the
// per-distance maximization tables (optionally in parallel), after which
// all queries are read-only and safe to issue from many threads at once.
// Supports two modes:
//  - explicit initial distribution: the caller streams the marginal vector
//    of each node into ContextFromMarginal;
//  - free initial distribution (Appendix C.4): the caller streams P^i into
//    ContextFromPower, and the marginal log-ratio terms become maxima over
//    matrix-power rows.
//
// Unlike the pre-optimization evaluator, nothing here scales with the
// chain length T: the node-dependent inputs (marginals / powers) are
// streamed in by the scan, so resident memory is O(max_distance * k^2).
//
// Preparation is EXTEND-ONLY: asking for a larger max distance builds just
// the missing powers (the same sequential recurrence) and the missing
// tables, reusing every existing entry verbatim — which is what makes a
// retained evaluator bit-identical to one built cold at the longer length.
class ExactEvaluator {
 public:
  ExactEvaluator(const Matrix& transition, bool free_initial)
      : p_(transition), k_(transition.rows()), free_initial_(free_initial) {
    powers_.push_back(Matrix::Identity(k_));
  }

  // Builds powers P^0..P^max_distance and the left/right maximization
  // tables for distances 1..max_distance. Must be called before any query;
  // between calls the evaluator is immutable and thread-safe. May be called
  // again with a larger distance to extend. On DeadlineExceeded the
  // evaluator stays valid (extend-only state: completed powers/tables are
  // kept, max_distance_ is not advanced) — a retry simply resumes.
  Status Prepare(std::size_t max_distance, ThreadPool* pool) {
    // Steady-state fast path: Prepare always builds a contiguous prefix of
    // distances, so once 1..max_distance exist the request is a no-op — in
    // particular it builds no distance/todo vectors, which keeps a
    // delta-append ExtendTo allocation-free.
    if (max_distance <= contiguous_prepared_) return Status::OK();
    std::vector<std::size_t> distances;
    distances.reserve(max_distance);
    for (std::size_t t = 1; t <= max_distance; ++t) distances.push_back(t);
    PF_RETURN_NOT_OK(PrepareDistances(distances, pool));
    contiguous_prepared_ = max_distance;
    return Status::OK();
  }

  // As Prepare, but builds maximization tables only for the listed
  // distances — the single-quilt entry point needs just two of them.
  Status PrepareDistances(const std::vector<std::size_t>& distances,
                          ThreadPool* pool) {
    std::size_t max_distance = max_distance_;
    for (std::size_t t : distances) max_distance = std::max(max_distance, t);
    // The power chain is sequential in n; each multiply is row-parallel.
    // This is the O(T k^3) loop a cold long-chain analysis spends its time
    // in, so it carries a cooperative cancellation checkpoint per power.
    while (powers_.size() <= max_distance) {
      PF_RETURN_NOT_OK(CheckDeadline("power ladder"));
      powers_.push_back(ParallelMultiply(powers_.back(), p_, pool));
      ++growth_events_;
    }
    if (left_tables_.size() <= max_distance) {
      left_tables_.resize(max_distance + 1);
      right_tables_.resize(max_distance + 1);
    }
    // Per-distance tables are independent once the powers exist; only the
    // missing ones are built, so extension reuses existing tables.
    std::vector<std::size_t> todo;
    for (std::size_t t : distances) {
      if (t != 0 && left_tables_[t].rows() == 0) todo.push_back(t);
    }
    const auto build = [&](std::size_t idx) {
      const std::size_t t = todo[idx];
      left_tables_[t] = BuildLeftTable(t);
      right_tables_[t] = BuildRightTable(t);
    };
    if (pool != nullptr) {
      pool->ParallelFor(todo.size(), build);
    } else {
      for (std::size_t idx = 0; idx < todo.size(); ++idx) build(idx);
    }
    growth_events_ += 2 * todo.size();
    max_distance_ = max_distance;
    return Status::OK();
  }

  std::size_t max_distance() const { return max_distance_; }
  std::size_t num_states() const { return k_; }
  bool free_initial() const { return free_initial_; }
  const Matrix& transition() const { return p_; }
  // Monotone count of power/table matrices materialized so far; callers
  // diff it around a pass to attribute growth (MemoryStats::mallocs).
  std::size_t growth_events() const { return growth_events_; }

  // Doubles resident in the prepared powers and tables (ladder accounting).
  std::size_t StoredDoubles() const {
    std::size_t n = 0;
    for (const Matrix& m : powers_) n += m.rows() * m.cols();
    for (const Matrix& m : left_tables_) n += m.rows() * m.cols();
    for (const Matrix& m : right_tables_) n += m.rows() * m.cols();
    return n;
  }

  // Per-node state reused across a node's whole quilt family: the Term1
  // marginal table and the feasibility mask. Building it once per scored
  // node (not per quilt) keeps the family scan at O(k^2) per quilt with no
  // shared mutable cache, so concurrent scans stay lock-free.
  struct NodeContext {
    std::size_t node = 0;
    Matrix term1;
    std::vector<char> feasible;
  };

  // Context for an explicit-initial node with marginal vector m = P(X_i),
  // written into caller-retained storage (capacity reused: a warm ctx is
  // rebuilt with zero allocations).
  void ContextFromMarginalInto(std::size_t i, const Vector& m,
                               NodeContext* ctx) const {
    ctx->node = i;
    ctx->term1.ResizeUninitialized(k_, k_);
    for (std::size_t x = 0; x < k_; ++x) {
      for (std::size_t xp = 0; xp < k_; ++xp) {
        if (x == xp) {
          ctx->term1(x, xp) = 0.0;
        } else if (m[x] > 0.0 && m[xp] > 0.0) {
          ctx->term1(x, xp) = std::log(m[xp] / m[x]);
        } else {
          ctx->term1(x, xp) = -kInf;  // Pair filtered by feasibility anyway.
        }
      }
    }
    ctx->feasible.assign(k_, 0);
    for (std::size_t x = 0; x < k_; ++x) ctx->feasible[x] = m[x] > 0.0 ? 1 : 0;
  }

  NodeContext ContextFromMarginal(std::size_t i, const Vector& m) const {
    NodeContext ctx;
    ContextFromMarginalInto(i, m, &ctx);
    return ctx;
  }

  // Context for a free-initial node with power matrix pi = P^i: the sup
  // over initial distributions of the marginal log-ratio term equals the
  // max over rows z of log P^i(z, x') / P^i(z, x) (Appendix C.4), +inf on
  // support mismatch; a state is feasible iff some row reaches it.
  void ContextFromPowerInto(std::size_t i, const Matrix& pi,
                            NodeContext* ctx) const {
    ctx->node = i;
    ctx->term1.ResizeUninitialized(k_, k_);
    for (std::size_t x = 0; x < k_; ++x) {
      for (std::size_t xp = 0; xp < k_; ++xp) {
        if (x == xp) {
          ctx->term1(x, xp) = 0.0;
          continue;
        }
        double best = -kInf;
        for (std::size_t z = 0; z < k_; ++z) {
          const double num = pi(z, xp);
          const double den = pi(z, x);
          if (num <= 0.0) continue;
          if (den <= 0.0) {
            best = kInf;
            break;
          }
          best = std::max(best, std::log(num / den));
        }
        ctx->term1(x, xp) = best;
      }
    }
    ctx->feasible.assign(k_, 0);
    for (std::size_t x = 0; x < k_; ++x) {
      for (std::size_t z = 0; z < k_; ++z) {
        if (pi(z, x) > 0.0) {
          ctx->feasible[x] = 1;
          break;
        }
      }
    }
  }

  NodeContext ContextFromPower(std::size_t i, const Matrix& pi) const {
    NodeContext ctx;
    ContextFromPowerInto(i, pi, &ctx);
    return ctx;
  }

  // Max-influence of the two-sided quilt {X_{i-a}, X_{i+b}} at node i.
  double TwoSided(const NodeContext& ctx, int a, int b) const {
    return MaxOverPairs(ctx, &right_tables_[static_cast<std::size_t>(b)],
                        &left_tables_[static_cast<std::size_t>(a)]);
  }

  // Max-influence of {X_{i-a}} (left-only quilt).
  double LeftOnly(const NodeContext& ctx, int a) const {
    return MaxOverPairs(ctx, nullptr,
                        &left_tables_[static_cast<std::size_t>(a)]);
  }

  // Max-influence of {X_{i+b}} (right-only quilt; no marginal term).
  double RightOnly(const NodeContext& ctx, int b) const {
    const Matrix& right = right_tables_[static_cast<std::size_t>(b)];
    double best = 0.0;
    for (std::size_t x = 0; x < k_; ++x) {
      if (!ctx.feasible[x]) continue;
      for (std::size_t xp = 0; xp < k_; ++xp) {
        if (x == xp || !ctx.feasible[xp]) continue;
        best = std::max(best, right(x, xp));
        if (best == kInf) return kInf;
      }
    }
    return best;
  }

 private:
  const Matrix& Pow(std::size_t n) const { return powers_[n]; }

  // right(x, x') = max over y with P^b(x,y) > 0 of log P^b(x,y)/P^b(x',y);
  // +inf when the support of row x is not contained in the support of x'.
  Matrix BuildRightTable(std::size_t b) const {
    const Matrix& pb = Pow(b);
    Matrix table(k_, k_, 0.0);
    for (std::size_t x = 0; x < k_; ++x) {
      for (std::size_t xp = 0; xp < k_; ++xp) {
        if (x == xp) continue;
        double best = -kInf;
        for (std::size_t y = 0; y < k_; ++y) {
          const double num = pb(x, y);
          if (num <= 0.0) continue;
          const double den = pb(xp, y);
          if (den <= 0.0) {
            best = kInf;
            break;
          }
          best = std::max(best, std::log(num / den));
        }
        table(x, xp) = best;
      }
    }
    return table;
  }

  // left(x, x') = max over z in X with P^a(z,x) > 0 of
  // log P^a(z,x)/P^a(z,x'); +inf on support mismatch; -inf if no z reaches
  // x (x infeasible, filtered by the caller's feasibility mask). Following
  // Eq. (5) literally, the max ranges over *all* states z regardless of
  // whether P(X_{i-a} = z) > 0 — a conservative (privacy-safe) bound that
  // matches the paper's reported numbers.
  Matrix BuildLeftTable(std::size_t a) const {
    const Matrix& pa = Pow(a);
    Matrix table(k_, k_, 0.0);
    for (std::size_t x = 0; x < k_; ++x) {
      for (std::size_t xp = 0; xp < k_; ++xp) {
        if (x == xp) continue;
        double best = -kInf;
        for (std::size_t z = 0; z < k_; ++z) {
          const double num = pa(z, x);
          if (num <= 0.0) continue;
          const double den = pa(z, xp);
          if (den <= 0.0) {
            best = kInf;
            break;
          }
          best = std::max(best, std::log(num / den));
        }
        table(x, xp) = best;
      }
    }
    return table;
  }

  // max over feasible ordered pairs (x, x') of t1 + right + left (either
  // table may be null when the quilt lacks that side).
  double MaxOverPairs(const NodeContext& ctx, const Matrix* right,
                      const Matrix* left) const {
    const Matrix& t1 = ctx.term1;
    const std::vector<char>& feasible = ctx.feasible;
    double best = 0.0;
    for (std::size_t x = 0; x < k_; ++x) {
      if (!feasible[x]) continue;
      for (std::size_t xp = 0; xp < k_; ++xp) {
        if (x == xp || !feasible[xp]) continue;
        double v = t1(x, xp);
        if (right != nullptr) v += (*right)(x, xp);
        if (left != nullptr) v += (*left)(x, xp);
        if (std::isnan(v)) continue;  // -inf + inf: infeasible combination.
        best = std::max(best, v);
        if (best == kInf) return kInf;
      }
    }
    return best;
  }

  const Matrix& p_;
  const std::size_t k_;
  const bool free_initial_;
  std::size_t max_distance_ = 0;
  // Largest d such that Prepare built the full prefix 1..d (the fast-path
  // guard); PrepareDistances alone leaves gaps and does not advance it.
  std::size_t contiguous_prepared_ = 0;
  std::size_t growth_events_ = 0;
  std::vector<Matrix> powers_;
  // Indexed by distance; slot 0 unused.
  std::vector<Matrix> left_tables_;
  std::vector<Matrix> right_tables_;
};

struct FreeInitialTag {};

// Streams the node-dependent input of the scan — the marginal vector
// P(X_i) in explicit mode, the power P^i in free-initial mode — one node
// at a time, with bitwise cycle detection: once one step leaves the value
// unchanged (period 1, the generic ergodic case) or returns the value of
// two steps ago (period 2, near-periodic chains whose values ulp-oscillate
// around the limit), every later value is determined by induction on the
// deterministic recurrence and the per-step work (an O(k^2) ApplyLeft or
// an O(k^3) multiply) stops. The recurrences are the exact ones the
// pre-optimization path used to materialize its O(T)-sized tables, so
// streamed values are bit-identical to the stored ones — and a cursor
// retained across ExtendTo calls produces the same value sequence as a
// fresh cursor advanced the same total number of steps.
class NodeValueStream {
 public:
  // Explicit mode: marginal recurrence m_0 = initial, m_{t+1} = m_t P.
  NodeValueStream(const Matrix& transition, const Vector& initial)
      : p_(transition), marginal_(initial), free_initial_(false) {}

  // Free-initial mode: power recurrence P^0 = I, P^{t+1} = P^t P.
  NodeValueStream(const Matrix& transition, FreeInitialTag)
      : p_(transition),
        power_(Matrix::Identity(transition.rows())),
        free_initial_(true) {}

  bool free_initial() const { return free_initial_; }
  // 0 while the value is still changing; 1 once fixed; 2 on a two-cycle.
  std::size_t period() const { return period_; }
  const Vector& marginal() const { return marginal_; }
  const Matrix& power() const { return power_; }

  // Doubles resident in the streaming cursor (current + previous value +
  // the rotation scratch). Deterministic in the total advance count, so
  // extended and cold cursors at the same position report the same figure.
  std::size_t StoredDoubles() const {
    return free_initial_
               ? power_.rows() * power_.cols() +
                     prev_power_.rows() * prev_power_.cols() +
                     scratch_power_.rows() * scratch_power_.cols()
               : marginal_.size() + prev_marginal_.size() +
                     scratch_marginal_.size();
  }

  // Monotone count of buffer-growth events (MemoryStats::mallocs input):
  // after the first two advances every buffer exists and rotation makes
  // further advances allocation-free.
  std::size_t growth_events() const { return growth_events_; }

  // Steps to the next node's value. The pool (used only by the free-initial
  // matrix multiply, which is thread-count invariant) is passed per call so
  // a retained cursor never outlives the pool it was created under.
  //
  // The next value is computed into a retained scratch buffer, then the
  // three buffers rotate (prev <- current <- next, retired prev becomes the
  // scratch): after two advances the cursor holds all the storage it will
  // ever need and stepping allocates nothing, in any period state.
  void Advance(ThreadPool* pool = nullptr) {
    if (period_ == 1) return;
    if (period_ == 2) {
      if (free_initial_) {
        std::swap(power_, prev_power_);
      } else {
        std::swap(marginal_, prev_marginal_);
      }
      return;
    }
    if (free_initial_) {
      if (scratch_power_.rows() == 0) ++growth_events_;
      ParallelMultiplyInto(power_, p_, pool, &scratch_power_);
      if (scratch_power_ == power_) {
        period_ = 1;
        return;
      }
      if (scratch_power_ == prev_power_) period_ = 2;
      std::swap(prev_power_, power_);
      std::swap(power_, scratch_power_);
    } else {
      if (scratch_marginal_.empty()) ++growth_events_;
      p_.ApplyLeftInto(marginal_, &scratch_marginal_);
      if (scratch_marginal_ == marginal_) {
        period_ = 1;
        return;
      }
      if (scratch_marginal_ == prev_marginal_) period_ = 2;
      std::swap(prev_marginal_, marginal_);
      std::swap(marginal_, scratch_marginal_);
    }
  }

 private:
  const Matrix& p_;
  Vector marginal_, prev_marginal_, scratch_marginal_;
  Matrix power_, prev_power_, scratch_power_;
  bool free_initial_;
  std::size_t period_ = 0;
  std::size_t growth_events_ = 0;
};

// Largest endpoint distance any quilt in the Lemma 4.6 family (capped at
// max_nearby, over a chain of `length` nodes) can reach: two-sided quilts
// have a + b - 1 <= max_nearby with a, b >= 1, and one-sided quilts whose
// nearby set fits the cap also keep their endpoint within max_nearby of
// the target.
std::size_t FamilyMaxDistance(std::size_t length, std::size_t max_nearby) {
  return std::min(length > 0 ? length - 1 : 0, max_nearby);
}

// Computes the influence of one chain quilt with a prepared evaluator and
// the quilt's node context.
double EvaluateQuilt(const ExactEvaluator& eval,
                     const ExactEvaluator::NodeContext& ctx,
                     const MarkovQuilt& quilt) {
  if (quilt.quilt.empty()) return 0.0;
  const auto [a, b] = ChainQuiltOffsets(quilt);
  if (a > 0 && b > 0) return eval.TwoSided(ctx, a, b);
  if (a > 0) return eval.LeftOnly(ctx, a);
  return eval.RightOnly(ctx, b);
}

// A scored quilt candidate in offset form. (a, b) with a, b > 0 is the
// two-sided quilt {X_{i-a}, X_{i+b}}; b == 0 the left-only {X_{i-a}};
// a == 0 the right-only {X_{i+b}}; (0, 0) the trivial quilt. Offsets (not
// materialized quilts) are what the resumable analysis stores: they are
// valid at any node of a dedup class and any chain length consistent with
// the class key, so extension re-materializes instead of re-scoring.
struct QuiltCand {
  double score = kInf;
  double influence = 0.0;
  int a = 0;
  int b = 0;
};

// A node's scored quilt family, decomposed for resumability: the best
// NON-trivial candidate only. The trivial quilt's score (length / epsilon)
// is the one quilt score that depends on the chain length directly, so it
// is folded in at reduce time (NodeWinner) — this is what lets an
// interior dedup class keep its score verbatim when the chain grows.
struct NodeScore {
  bool has_nontrivial = false;
  QuiltCand nontrivial;
};

// The node's winning candidate at a given chain length: the stored best
// non-trivial quilt versus the trivial quilt, with the exhaustive scan's
// tie rule (the trivial quilt is considered last, with strict <).
QuiltCand NodeWinner(const NodeScore& s, std::size_t length, double epsilon) {
  const double trivial_score = QuiltScoreFromInfluence(length, epsilon, 0.0);
  if (s.has_nontrivial && !(trivial_score < s.nontrivial.score)) {
    return s.nontrivial;
  }
  QuiltCand trivial;
  trivial.score = trivial_score;
  trivial.influence = 0.0;
  return trivial;
}

// Materializes a candidate's quilt at a concrete node and length into
// caller-retained storage (vector capacity reused — the reduce hot path
// re-materializes every pass without allocating). Field-for-field what
// TrivialQuilt / ChainQuilt produce; candidates come from in-range family
// loops, so the ChainQuilt validation is vacuous here.
void MaterializeQuiltInto(const QuiltCand& cand, int node, std::size_t length,
                          MarkovQuilt* out) {
  out->target = node;
  out->quilt.clear();
  out->nearby.clear();
  out->remote.clear();
  if (cand.a == 0 && cand.b == 0) {
    out->nearby_count = length;  // TrivialQuilt: X_N = everything.
    return;
  }
  if (cand.a > 0) out->quilt.push_back(node - cand.a);
  if (cand.b > 0) out->quilt.push_back(node + cand.b);
  const int near_lo = cand.a > 0 ? node - cand.a + 1 : 0;
  const int near_hi =
      cand.b > 0 ? node + cand.b - 1 : static_cast<int>(length) - 1;
  out->nearby_count = static_cast<std::size_t>(near_hi - near_lo + 1);
}

MarkovQuilt MaterializeQuilt(const QuiltCand& cand, int node,
                             std::size_t length) {
  MarkovQuilt out;
  MaterializeQuiltInto(cand, node, length, &out);
  return out;
}

// sigma_i = min over the Lemma 4.6 family (capped at max_nearby) of the
// quilt score for node i, given the node's prepared context. Read-only on
// the evaluator.
//
// Enumerates the family inline, in exactly ChainQuiltFamily's order and
// with its skip rules (two-sided a asc then b asc, left-only, right-only),
// tracking only the winning candidate. The trivial quilt — always part of
// the family per Theorem 4.3 — is deliberately NOT folded in here: its
// score depends on the length, so NodeWinner adds it at reduce time.
//
// The output depends on i and length only through the class key
// (node value, dl = min(i, ell), dr = min(length-1-i, ell)): every loop
// bound below reduces to dl/dr arithmetic, which is the invariant the
// dedup classes and the append path both rely on.
//
// Bounded scan (exact, not a heuristic): every influence is >= 0 —
// MaxOverPairs and RightOnly start their max at 0.0 and NaN terms are
// skipped — so a quilt with c nearby nodes scores at least
// QuiltScoreFromInfluence(c, epsilon, 0.0) = c / epsilon. That bound holds
// as computed, not just in real arithmetic: IEEE subtraction and division
// round monotonically, so epsilon - influence <= epsilon and c / (a
// smaller positive denominator) >= c / epsilon. Within each of the three
// loops below the nearby count strictly grows along the inner index, and
// so does the bound; once it is >= the best score so far, neither this
// quilt nor any later one in the loop can pass the strict `<`, and the
// loop breaks before evaluating it. The enumeration order is unchanged, so
// the winner (and the tie rule) are bit-identical to the full scan.
NodeScore ScoreNode(const ExactEvaluator& eval, std::size_t length,
                    const ExactEvaluator::NodeContext& ctx, double epsilon,
                    std::size_t max_nearby) {
  const int node = static_cast<int>(ctx.node);
  const int n = static_cast<int>(length);
  NodeScore out;
  const auto consider = [&](int a, int b, std::size_t nearby_count,
                            double influence) {
    const double score =
        QuiltScoreFromInfluence(nearby_count, epsilon, influence);
    if (score < out.nontrivial.score) {
      out.has_nontrivial = true;
      out.nontrivial.a = a;
      out.nontrivial.b = b;
      out.nontrivial.influence = influence;
      out.nontrivial.score = score;
    }
  };
  // True when no quilt with this many (or more) nearby nodes can win.
  const auto cannot_win = [&](std::size_t nearby_count) {
    return QuiltScoreFromInfluence(nearby_count, epsilon, 0.0) >=
           out.nontrivial.score;
  };
  // Two-sided quilts {X_{i-a}, X_{i+b}}: nearby count a + b - 1.
  for (int a = 1; a <= node; ++a) {
    if (static_cast<std::size_t>(a) > max_nearby) break;
    for (int b = 1; node + b < n; ++b) {
      const std::size_t near_count = static_cast<std::size_t>(a + b - 1);
      if (near_count > max_nearby || cannot_win(near_count)) break;
      consider(a, b, near_count, eval.TwoSided(ctx, a, b));
    }
  }
  // Left-only quilts {X_{i-a}}: nearby count (n-1) - (i-a), strictly
  // increasing in a, so the first overflow ends the loop (same quilt set
  // and order as ChainQuiltFamily's skip).
  for (int a = 1; a <= node; ++a) {
    const std::size_t near_count = static_cast<std::size_t>(n - 1 - (node - a));
    if (near_count > max_nearby || cannot_win(near_count)) break;
    consider(a, 0, near_count, eval.LeftOnly(ctx, a));
  }
  // Right-only quilts {X_{i+b}}: nearby count i + b.
  for (int b = 1; node + b < n; ++b) {
    const std::size_t near_count = static_cast<std::size_t>(node + b);
    if (near_count > max_nearby || cannot_win(near_count)) break;
    consider(0, b, near_count, eval.RightOnly(ctx, b));
  }
  return out;
}

// The node context for node i given the current stream value.
ExactEvaluator::NodeContext ContextFromStream(const ExactEvaluator& eval,
                                              const NodeValueStream& stream,
                                              std::size_t i) {
  return stream.free_initial() ? eval.ContextFromPower(i, stream.power())
                               : eval.ContextFromMarginal(i, stream.marginal());
}

// Scores n nodes as one block, fanning out over the pool when present.
// make_ctx(j) supplies the j-th node's context (by reference or value);
// deterministic for any thread count (per-index slots, no shared state).
template <typename MakeCtx>
std::vector<NodeScore> ScoreBlock(const ExactEvaluator& eval,
                                  std::size_t length, std::size_t n,
                                  double epsilon, std::size_t max_nearby,
                                  ThreadPool* pool, MakeCtx make_ctx) {
  std::vector<NodeScore> scores(n);
  const auto score_one = [&](std::size_t j) {
    scores[j] = ScoreNode(eval, length, make_ctx(j), epsilon, max_nearby);
  };
  if (pool != nullptr) {
    pool->ParallelFor(n, score_one);
  } else {
    for (std::size_t j = 0; j < n; ++j) score_one(j);
  }
  return scores;
}

// One dedup class: nodes sharing (stream value, boundary-clip distances).
//
// Invariant (why members provably share sigma_i): ChainQuiltFamily(T, i,
// ell) depends on i only through dl = min(i, ell) and dr = min(T-1-i,
// ell) — two-sided quilts range over a <= dl, b <= min(dr, ell-a+1);
// left-only quilts exist only when dr < ell (then their count dr + a is
// exact in dr); right-only only when dl < ell (count dl + b) — and the
// Eq. (5) terms depend on i only through the marginal (or P^i) and the
// shared distance tables. Equal key ==> identical family (same offsets,
// same order, same nearby counts) and identical influences ==> identical
// sigma_i, argmin offsets, and influence, bit for bit. The same invariant
// is what makes the class score valid at ANY (node, length) consistent
// with the key — the append path's license to reuse interior classes.
struct NodeClass {
  /// Lowest node index currently in the class — the invariant the
  /// class-level reduce's tie-break rests on. Maintained by construction:
  /// nodes join in ascending order, members only leave when the append
  /// path re-keys the right boundary, and a class re-joined after emptying
  /// resets its representative to the joining node.
  std::size_t representative = 0;
  std::size_t dl = 0, dr = 0;
  std::uint32_t member_count = 0;
  bool scored = false;
  Vector marginal;  // Explicit-mode value.
  Matrix power;     // Free-initial-mode value.
  NodeScore score;  // Filled by the scoring phase.

  std::size_t value_doubles() const {
    return power.rows() * power.cols() + marginal.size();
  }
};

// Caps the class store so slowly-converging value streams cannot grow
// memory past O(max(256, 4 * max_nearby) * k^2): overflow nodes are
// scored in bounded blocks and folded into a running best-candidate, so
// even the fully-degraded path holds O(block) transient state.
std::size_t MaxClasses(std::size_t max_nearby) {
  return std::max<std::size_t>(256, 4 * max_nearby);
}

constexpr std::uint32_t kNoClass = std::numeric_limits<std::uint32_t>::max();

std::uint64_t ClassKeyHash(const NodeValueStream& stream, std::size_t dl,
                           std::size_t dr) {
  Fingerprint fp;
  if (stream.free_initial()) {
    fp.Add(stream.power());
  } else {
    fp.Add(stream.marginal());
  }
  fp.Add(dl).Add(dr);
  return fp.hash();
}

// Key hash recomputed from a stored class (append path re-keying).
std::uint64_t ClassKeyHash(const NodeClass& cls, bool free_initial,
                           std::size_t dl, std::size_t dr) {
  Fingerprint fp;
  if (free_initial) {
    fp.Add(cls.power);
  } else {
    fp.Add(cls.marginal);
  }
  fp.Add(dl).Add(dr);
  return fp.hash();
}

bool ClassMatches(const NodeClass& cls, const NodeValueStream& stream,
                  std::size_t dl, std::size_t dr) {
  if (cls.dl != dl || cls.dr != dr) return false;
  return stream.free_initial() ? cls.power == stream.power()
                               : cls.marginal == stream.marginal();
}

// Exact-value match between a stored class and a (value-donor class, new
// clip distances) key — the append path's re-keying lookup.
bool ClassMatches(const NodeClass& cls, const NodeClass& donor,
                  bool free_initial, std::size_t dl, std::size_t dr) {
  if (cls.dl != dl || cls.dr != dr) return false;
  return free_initial ? cls.power == donor.power
                      : cls.marginal == donor.marginal;
}

// Folded best-candidate over overflow-scored nodes (class store at
// capacity). Flushes happen in ascending node order with a
// strictly-greater update, so the fold keeps exactly the lowest overflow
// node attaining the overflow maximum — the same tie-break the exhaustive
// walk uses. An analysis that ever overflowed is NOT resumable (overflow
// nodes have no stored per-node state); ExtendTo then falls back to a
// cold scan.
struct OverflowFold {
  std::size_t count = 0;
  double best_score = -kInf;
  std::size_t best_node = 0;
  QuiltCand best;
  std::size_t pending_peak_doubles = 0;
};

// Persistent state of one theta's deduplicated scan — everything the
// append path needs to continue where the scan stopped: the class store
// with exact values and scores, the per-node class assignment, the
// steady-state shortcut cache, and the stream cursor (positioned at node
// `length`, i.e. holding the value the next appended node will use).
struct DedupScanState {
  std::size_t length = 0;
  std::unique_ptr<NodeValueStream> stream;
  std::vector<std::uint32_t> node_class;
  std::vector<NodeClass> classes;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> index;
  // Once the stream value cycles (period 1 or 2) and both clip distances
  // are saturated, the key sequence repeats with the cycle until the right
  // boundary region — reuse the classes of one period without hashing.
  std::uint32_t steady_class[2] = {kNoClass, kNoClass};
  std::size_t class_value_doubles = 0;
  // False once any node went to overflow scoring: per-node state was
  // folded away, so the scan can only be redone cold.
  bool resumable = true;
  // Overflow fold of the (non-resumable) cold scan that produced this
  // state; participates in the reduce.
  OverflowFold fold;
  // Heap-acquisition events of the CURRENT pass (reset by AnalyzeThetaAt):
  // class creations, node-index growth, compactions, score-block scratch.
  // Zero on a steady-state append — the invariant the hot path maintains.
  std::size_t pass_mallocs = 0;
  ChainMqmResult result;
};

// Classifies nodes [begin, length) into dedup classes, streaming values
// through the retained cursor. The initial scan calls with begin = 0 and
// overflow allowed; the append path calls with begin = old length and
// overflow forbidden (returns false so the caller falls back to a cold
// scan — a bailed append leaves the state partially advanced, which is
// fine because the fallback rebuilds it from scratch). An error Result
// (DeadlineExceeded from the bounded checkpoint below) likewise leaves the
// state mid-stride; callers must discard it.
Result<bool> ClassifyNodes(DedupScanState& st, const ExactEvaluator& eval,
                           std::size_t begin, std::size_t length,
                           const ChainMqmOptions& options, ThreadPool* pool,
                           bool allow_overflow) {
  const std::size_t ell = options.max_nearby;
  const std::size_t tail = length - 1;
  const std::size_t max_classes = MaxClasses(ell);
  NodeValueStream& stream = *st.stream;
  if (length > st.node_class.capacity()) ++st.pass_mallocs;
  st.node_class.resize(length, kNoClass);

  // Overflow nodes (class store at capacity) buffer their contexts and
  // score in parallel blocks, so a pathological non-cycling stream
  // degrades to the exhaustive scan's speed, not to a serial one.
  struct PendingNode {
    std::size_t node;
    ExactEvaluator::NodeContext ctx;
  };
  std::vector<PendingNode> pending;
  const std::size_t pending_block = std::max<std::size_t>(
      64, 4 * (pool != nullptr ? pool->num_threads() : 1));
  const auto flush_pending = [&] {
    if (pending.empty()) return;
    std::size_t doubles = 0;
    for (const PendingNode& p : pending) {
      doubles += p.ctx.term1.rows() * p.ctx.term1.cols();
    }
    st.fold.pending_peak_doubles =
        std::max(st.fold.pending_peak_doubles, doubles);
    std::vector<NodeScore> scores = ScoreBlock(
        eval, length, pending.size(), options.epsilon, ell, pool,
        [&](std::size_t j) -> const ExactEvaluator::NodeContext& {
          return pending[j].ctx;
        });
    for (std::size_t j = 0; j < pending.size(); ++j) {
      const QuiltCand w = NodeWinner(scores[j], length, options.epsilon);
      if (w.score > st.fold.best_score) {
        st.fold.best_score = w.score;
        st.fold.best_node = pending[j].node;
        st.fold.best = w;
      }
    }
    st.fold.count += pending.size();
    pending.clear();
  };

  // Checkpoint cadence for the O(T) streaming loop: frequent enough that a
  // deadline overrun is bounded by ~4096 O(k^2) steps, rare enough that the
  // clock read never shows up in the scan profile.
  constexpr std::size_t kDeadlineStride = 4096;
  for (std::size_t i = begin; i < length; ++i) {
    if ((i - begin) % kDeadlineStride == 0) {
      PF_RETURN_NOT_OK(CheckDeadline("dedup node scan"));
    }
    const std::size_t dl = std::min(i, ell);
    const std::size_t dr = std::min(tail - i, ell);
    const std::size_t period = stream.period();
    const std::size_t phase = period == 2 ? (i & 1) : 0;
    if (period != 0 && dl == ell && dr == ell &&
        st.steady_class[phase] != kNoClass) {
      st.node_class[i] = st.steady_class[phase];
      ++st.classes[st.steady_class[phase]].member_count;  // Never empty here.
      stream.Advance(pool);
      continue;
    }
    const std::uint64_t h = ClassKeyHash(stream, dl, dr);
    std::uint32_t found = kNoClass;
    // find() rather than operator[]: overflow nodes must not leave O(T)
    // empty buckets behind in the degraded path.
    const auto it = st.index.find(h);
    if (it != st.index.end()) {
      for (std::uint32_t id : it->second) {
        if (ClassMatches(st.classes[id], stream, dl, dr)) {
          found = id;
          break;
        }
      }
    }
    if (found == kNoClass) {
      // Period-detected values always get a slot, even past the cap: a
      // slow-mixing chain can exhaust the store with bit-distinct
      // transients before the marginal fixes, and without a stored class
      // the steady-state fast path could never engage — every remaining
      // node would fall to overflow scoring. Post-period keys are bounded
      // by O(max_nearby) (two phases x the clipped-distance combinations),
      // so the memory bound is unchanged.
      if (st.classes.size() < max_classes || stream.period() != 0) {
        NodeClass cls;
        cls.representative = i;
        cls.dl = dl;
        cls.dr = dr;
        cls.member_count = 1;
        if (stream.free_initial()) {
          cls.power = stream.power();
        } else {
          cls.marginal = stream.marginal();
        }
        st.class_value_doubles += cls.value_doubles();
        found = static_cast<std::uint32_t>(st.classes.size());
        st.classes.push_back(std::move(cls));
        st.index[h].push_back(found);
        ++st.pass_mallocs;
      } else if (allow_overflow) {
        // Class store full: buffer for blocked parallel scoring.
        st.resumable = false;
        pending.push_back(PendingNode{i, ContextFromStream(eval, stream, i)});
        ++st.pass_mallocs;
        if (pending.size() >= pending_block) flush_pending();
      } else {
        return false;  // Append path: fall back to a cold scan.
      }
    } else {
      NodeClass& cls = st.classes[found];
      if (cls.member_count == 0) cls.representative = i;  // Re-joined stale.
      ++cls.member_count;
    }
    st.node_class[i] = found;
    if (found != kNoClass && period != 0 && dl == ell && dr == ell) {
      st.steady_class[phase] = found;
    }
    stream.Advance(pool);
  }
  flush_pending();
  return true;
}

// Scores every class that does not have a stored score yet (all of them
// after a cold classification; only the re-keyed/appended ones after an
// append). Classes are independent; each worker builds its
// representative's context from the stored value.
void ScoreUnscoredClasses(DedupScanState& st, const ExactEvaluator& eval,
                          std::size_t length, const ChainMqmOptions& options,
                          ThreadPool* pool) {
  std::vector<std::uint32_t> todo;
  for (std::uint32_t c = 0; c < st.classes.size(); ++c) {
    if (!st.classes[c].scored) todo.push_back(c);
  }
  // An all-scored store (the steady-state append) allocates nothing here:
  // the empty todo/scores vectors never touch the heap.
  if (!todo.empty()) st.pass_mallocs += 1 + todo.size();
  std::vector<NodeScore> scores = ScoreBlock(
      eval, length, todo.size(), options.epsilon, options.max_nearby, pool,
      [&](std::size_t j) {
        const NodeClass& cls = st.classes[todo[j]];
        return st.stream->free_initial()
                   ? eval.ContextFromPower(cls.representative, cls.power)
                   : eval.ContextFromMarginal(cls.representative,
                                              cls.marginal);
      });
  for (std::size_t j = 0; j < todo.size(); ++j) {
    st.classes[todo[j]].score = scores[j];
    st.classes[todo[j]].scored = true;
  }
}

// Reduces over CLASSES (O(mixing + max_nearby), not O(T) — this is what
// keeps a delta = 1 append sublinear in T). Equivalent to the exhaustive
// walk's per-node reduce: every node scores exactly its class's winner,
// and a class's representative is its lowest member, so "lowest node
// attaining the maximum" is "lowest representative among classes attaining
// it". The overflow candidate merges after with the same tie rule. The
// trivial-quilt score is folded in per class at the CURRENT length
// (NodeWinner), which is the one place length-dependence re-enters after
// an append.
void ReduceDedup(DedupScanState& st, const ExactEvaluator& eval,
                 std::size_t length, const ChainMqmOptions& options) {
  // Built directly in st.result (every field overwritten; the quilt's
  // vector capacity is reused) so the per-append re-reduce allocates
  // nothing. memory.mallocs is attributed by AnalyzeThetaAt, which sees
  // the whole pass.
  ChainMqmResult& result = st.result;
  result.sigma_max = -kInf;
  result.worst_node = 0;
  result.influence = 0.0;
  result.used_stationary_shortcut = false;
  bool have_classed = false;
  QuiltCand best_cand;
  for (const NodeClass& cls : st.classes) {
    const QuiltCand w = NodeWinner(cls.score, length, options.epsilon);
    if (w.score > result.sigma_max ||
        (w.score == result.sigma_max && have_classed &&
         cls.representative < static_cast<std::size_t>(result.worst_node))) {
      result.sigma_max = w.score;
      result.worst_node = static_cast<int>(cls.representative);
      result.influence = w.influence;
      best_cand = w;
      have_classed = true;
    }
  }
  if (st.fold.count > 0 &&
      (!have_classed || st.fold.best_score > result.sigma_max ||
       (st.fold.best_score == result.sigma_max &&
        st.fold.best_node < static_cast<std::size_t>(result.worst_node)))) {
    result.sigma_max = st.fold.best_score;
    result.worst_node = static_cast<int>(st.fold.best_node);
    result.influence = st.fold.best.influence;
    best_cand = st.fold.best;
  }
  MaterializeQuiltInto(best_cand, result.worst_node, length,
                       &result.active_quilt);
  result.total_nodes = length;
  result.scored_nodes = st.classes.size() + st.fold.count;
  result.memory.peak_bytes =
      sizeof(double) *
      (eval.StoredDoubles() + st.stream->StoredDoubles() +
       st.class_value_doubles + st.fold.pending_peak_doubles);
  result.memory.arena_retained_bytes =
      sizeof(double) * (eval.StoredDoubles() + st.stream->StoredDoubles() +
                        st.class_value_doubles);
  result.memory.mallocs = 0;
}

}  // namespace

// The remainder of the scan machinery (cold scans, the append path, the
// resumable analysis object, and the public entry points) continues below;
// split so each piece stays reviewable.

namespace {

// A cold deduplicated scan at `length`: fresh stream, fresh class store.
// make_stream() builds the mode-appropriate cursor. On error (deadline)
// the state is mid-stride; the caller discards it.
template <typename MakeStream>
Status ColdDedupScan(DedupScanState& st, const ExactEvaluator& eval,
                     std::size_t length, const ChainMqmOptions& options,
                     ThreadPool* pool, MakeStream make_stream) {
  st = DedupScanState{};
  st.stream = make_stream();
  // With overflow allowed, classification only stops early on error.
  PF_ASSIGN_OR_RETURN(const bool classified,
                      ClassifyNodes(st, eval, 0, length, options, pool,
                                    /*allow_overflow=*/true));
  (void)classified;
  ScoreUnscoredClasses(st, eval, length, options, pool);
  ReduceDedup(st, eval, length, options);
  st.length = length;
  return Status::OK();
}

// The append path: re-keys the O(max_nearby) right-boundary nodes whose
// clipped distance dr = min(T-1-i, ell) changed, classifies the appended
// nodes with the retained stream cursor, drops classes that lost all
// members, scores only the new classes, and re-reduces. Returns false when
// the incremental invariants cannot be maintained (class store at
// capacity) — the caller then falls back to a cold scan, which is always
// correct.
//
// Bit-identity argument: after the re-key + compaction, the class store
// holds exactly the classes a cold scan at new_length builds (same keys,
// same partition — values are compared exactly, never by hash alone), and
// every retained class score is valid at the new length because scores
// depend on (value, dl, dr) only (see the NodeClass invariant). The
// reduce then re-applies the only length-dependent term (the trivial
// quilt) per node, in the same order with the same tie rules as cold.
Result<bool> AppendDedupScan(DedupScanState& st, const ExactEvaluator& eval,
                             std::size_t new_length,
                             const ChainMqmOptions& options,
                             ThreadPool* pool) {
  const std::size_t ell = options.max_nearby;
  const std::size_t old_length = st.length;
  const std::size_t max_classes = MaxClasses(ell);
  const bool free_initial = st.stream->free_initial();

  // Phase A: re-key boundary nodes i in [old_length - ell, old_length) —
  // exactly those with old dr < ell — in ascending order (the order a cold
  // scan first meets their new keys).
  const std::size_t first =
      old_length > ell ? old_length - ell : 0;
  for (std::size_t i = first; i < old_length; ++i) {
    const std::uint32_t old_id = st.node_class[i];
    if (old_id == kNoClass) return false;  // Only on non-resumable state.
    const std::size_t dl = std::min(i, ell);
    const std::size_t dr = std::min(new_length - 1 - i, ell);
    const std::uint64_t h = ClassKeyHash(st.classes[old_id], free_initial,
                                         dl, dr);
    std::uint32_t found = kNoClass;
    const auto it = st.index.find(h);
    if (it != st.index.end()) {
      for (std::uint32_t id : it->second) {
        if (ClassMatches(st.classes[id], st.classes[old_id], free_initial, dl,
                         dr)) {
          found = id;
          break;
        }
      }
    }
    if (found == kNoClass) {
      if (st.classes.size() >= max_classes) return false;
      NodeClass cls;
      cls.representative = i;
      cls.dl = dl;
      cls.dr = dr;
      cls.member_count = 0;  // Incremented below.
      // Copy the value before push_back: the donor reference would dangle
      // across a reallocation.
      if (free_initial) {
        cls.power = st.classes[old_id].power;
      } else {
        cls.marginal = st.classes[old_id].marginal;
      }
      st.class_value_doubles += cls.value_doubles();
      found = static_cast<std::uint32_t>(st.classes.size());
      st.classes.push_back(std::move(cls));
      st.index[h].push_back(found);
      ++st.pass_mallocs;
    }
    --st.classes[old_id].member_count;
    // Re-joining a class that emptied makes this node its lowest member
    // (any original members with this boundary key sat at lower indices
    // and re-keyed away earlier in this ascending pass).
    if (st.classes[found].member_count == 0) {
      st.classes[found].representative = i;
    }
    ++st.classes[found].member_count;
    st.node_class[i] = found;
  }

  // Phase B: classify the appended nodes with the retained cursor (which
  // holds exactly the value a cold scan would stream at node old_length).
  // Runs BEFORE compaction on purpose: in the steady state the appended
  // boundary nodes re-join the very classes the re-key just emptied (the
  // key set is shift-invariant once the marginal has mixed), so compaction
  // — an O(T) node_class remap — almost never fires on the hot
  // delta-append path.
  PF_ASSIGN_OR_RETURN(const bool classified,
                      ClassifyNodes(st, eval, old_length, new_length, options,
                                    pool, /*allow_overflow=*/false));
  if (!classified) return false;

  // Phase C: compact away classes that lost their last member (stale
  // boundary keys a cold scan at new_length would never create), so the
  // class store — and scored_nodes — matches the cold scan exactly.
  bool any_empty = false;
  for (const NodeClass& cls : st.classes) {
    if (cls.member_count == 0) {
      any_empty = true;
      break;
    }
  }
  if (any_empty) {
    st.pass_mallocs += 2;  // remap + kept (plus the index rebuild below).
    std::vector<std::uint32_t> remap(st.classes.size(), kNoClass);
    std::vector<NodeClass> kept;
    kept.reserve(st.classes.size());
    for (std::uint32_t c = 0; c < st.classes.size(); ++c) {
      if (st.classes[c].member_count == 0) {
        st.class_value_doubles -= st.classes[c].value_doubles();
        continue;
      }
      remap[c] = static_cast<std::uint32_t>(kept.size());
      kept.push_back(std::move(st.classes[c]));
    }
    st.classes = std::move(kept);
    st.index.clear();
    for (std::uint32_t c = 0; c < st.classes.size(); ++c) {
      const NodeClass& cls = st.classes[c];
      st.index[ClassKeyHash(cls, free_initial, cls.dl, cls.dr)].push_back(c);
    }
    for (std::uint32_t& id : st.node_class) {
      if (id != kNoClass) id = remap[id];
    }
    for (std::uint32_t& id : st.steady_class) {
      // Steady classes are interior (dl == dr == ell) and keep all their
      // members, so they always survive compaction.
      if (id != kNoClass) id = remap[id];
    }
  }

  // Phase D + E: score the classes created above, re-reduce at the new
  // length.
  ScoreUnscoredClasses(st, eval, new_length, options, pool);
  ReduceDedup(st, eval, new_length, options);
  st.length = new_length;
  return true;
}

// The exhaustive reference scan (dedup_nodes = false): every node scored,
// in streamed blocks of bounded memory. Kept for verification and the
// long-chain benchmark's pre-optimization baseline. Not resumable — each
// call streams from node 0 (the retained evaluator still amortizes the
// table construction across extensions).
Result<ChainMqmResult> ScanExhaustive(const ExactEvaluator& eval,
                                      NodeValueStream* stream,
                                      std::size_t length,
                                      const ChainMqmOptions& options,
                                      ThreadPool* pool) {
  const std::size_t threads = pool != nullptr ? pool->num_threads() : 1;
  const std::size_t block = std::max<std::size_t>(64, 4 * threads);
  std::vector<ExactEvaluator::NodeContext> contexts(
      std::min(block, length));
  ChainMqmResult result;
  result.sigma_max = -kInf;
  QuiltCand best_cand;
  std::size_t peak_context_doubles = 0;
  for (std::size_t start = 0; start < length; start += block) {
    // Per-block checkpoint: a deadline overrun costs at most one scored
    // block of O(block * k^2) work.
    PF_RETURN_NOT_OK(CheckDeadline("exhaustive node scan"));
    const std::size_t n = std::min(block, length - start);
    std::size_t context_doubles = 0;
    for (std::size_t j = 0; j < n; ++j) {
      contexts[j] = ContextFromStream(eval, *stream, start + j);
      context_doubles += contexts[j].term1.rows() * contexts[j].term1.cols();
      stream->Advance(pool);
    }
    peak_context_doubles = std::max(peak_context_doubles, context_doubles);
    const std::vector<NodeScore> scores = ScoreBlock(
        eval, length, n, options.epsilon, options.max_nearby, pool,
        [&](std::size_t j) -> const ExactEvaluator::NodeContext& {
          return contexts[j];
        });
    for (std::size_t j = 0; j < n; ++j) {
      const QuiltCand w = NodeWinner(scores[j], length, options.epsilon);
      if (w.score > result.sigma_max) {
        result.sigma_max = w.score;
        result.worst_node = static_cast<int>(start + j);
        result.influence = w.influence;
        best_cand = w;
      }
    }
  }
  result.active_quilt = MaterializeQuilt(best_cand, result.worst_node, length);
  result.total_nodes = length;
  result.scored_nodes = length;
  result.memory.peak_bytes =
      sizeof(double) *
      (eval.StoredDoubles() + stream->StoredDoubles() + peak_context_doubles);
  // Only the evaluator outlives the exhaustive pass; the stream and the
  // context blocks are per-call. One malloc event per node context, plus
  // the cursor's growth (an event count, not a precise tally — this path
  // is the non-incremental reference).
  result.memory.arena_retained_bytes = sizeof(double) * eval.StoredDoubles();
  result.memory.mallocs = length + stream->growth_events();
  return result;
}

// Constructs the worker pool on first request only. Results are
// bit-identical for every thread count, so the scan paths are free to
// skip the pool entirely — which matters for the streaming append: a
// delta = 1 ExtendTo does ~O(max_nearby * k^2) work, and spawning (then
// joining) hardware-concurrency OS threads around it would dominate the
// serving tick this path exists to make cheap. Cold scans and bulk
// appends request the pool; small appends never do.
class LazyPool {
 public:
  explicit LazyPool(std::size_t num_threads) : num_threads_(num_threads) {}

  // The pool, spawning it on first call; nullptr when one thread resolves
  // (the same convention the one-shot entry points used).
  ThreadPool* get() {
    if (!pool_.has_value()) pool_.emplace(num_threads_);
    return pool_->num_threads() > 1 ? &*pool_ : nullptr;
  }

 private:
  std::size_t num_threads_;
  std::optional<ThreadPool> pool_;
};

// Persistent per-theta analysis state: the evaluator (extend-only), the
// stationary-shortcut cursor, and the dedup scan state. One ThetaState per
// element of the class Theta.
struct ThetaState {
  // Exactly one of these is set: the chain (explicit mode) or the bare
  // transition (free-initial mode). Both point into the owning
  // ChainMqmAnalysis::Impl, whose vectors never reallocate after creation.
  const MarkovChain* theta = nullptr;
  const Matrix* transition = nullptr;

  ExactEvaluator eval;
  // True iff the initial distribution matches the stationary distribution
  // (the Section 4.4.1 shortcut precondition; length-independent, so it is
  // computed once). Always false in free-initial mode.
  bool stationary_initial = false;
  // Shortcut cursor: the marginal stream advanced to mid_pos (<= the
  // current middle node; middles are monotone in length).
  std::unique_ptr<NodeValueStream> mid_stream;
  std::size_t mid_pos = 0;
  // Retained scratch for the shortcut's per-pass middle-node context
  // (capacity reused — a warm shortcut pass builds it without allocating).
  ExactEvaluator::NodeContext ctx_scratch;

  std::unique_ptr<DedupScanState> scan;
  ChainMqmResult result;

  ThetaState(const MarkovChain* chain, const Matrix& p, bool free_initial)
      : theta(chain), transition(&p), eval(p, free_initial) {}

  std::unique_ptr<NodeValueStream> MakeStream() const {
    return theta != nullptr
               ? std::make_unique<NodeValueStream>(*transition,
                                                   theta->initial())
               : std::make_unique<NodeValueStream>(*transition,
                                                   FreeInitialTag{});
  }
};

// Analyzes (or re-analyzes after an extension) one theta at `length`,
// reusing whatever retained state applies. Mirrors the cold control flow
// exactly — shortcut attempt first, full scan on fall-through — so the
// mode decisions (and hence every result bit, including
// used_stationary_shortcut) match a cold analysis at `length`.
//
// On error (deadline checkpoint fired) the retained state is left safe to
// retry from: the extend-only evaluator keeps its completed prefix, and
// any mid-stride dedup scan is discarded so the next call rebuilds cold.
Status AnalyzeThetaAt(ThetaState& st, std::size_t length,
                      const ChainMqmOptions& options, LazyPool* lazy) {
  // Growth attribution for MemoryStats::mallocs: diff the retained
  // components' monotone counters around the pass. A steady-state append
  // leaves every counter unchanged — the zero the hot path guarantees.
  const std::size_t eval_growth_before = st.eval.growth_events();
  const NodeValueStream* scan_stream_before =
      st.scan != nullptr ? st.scan->stream.get() : nullptr;
  const std::size_t scan_stream_growth_before =
      scan_stream_before != nullptr ? scan_stream_before->growth_events() : 0;
  const std::size_t family_distance =
      FamilyMaxDistance(length, options.max_nearby);
  // The table build is the one O(ell * k^3) step; request the pool only
  // when there is actually something to build.
  PF_RETURN_NOT_OK(
      st.eval.Prepare(family_distance,
                      st.eval.max_distance() < family_distance ? lazy->get()
                                                               : nullptr));
  if (options.allow_stationary_shortcut && st.stationary_initial &&
      length >= 3) {
    // Stationary shortcut: the max-influence of every interior quilt is
    // independent of i and the middle node attains sigma_max (Lemma C.4's
    // argument applies verbatim to exact influences: each Eq. (5) term is
    // nonnegative after adding the marginal term).
    const std::size_t mid = length / 2;
    std::size_t pass_mallocs = st.eval.growth_events() - eval_growth_before;
    if (st.mid_stream == nullptr) {
      st.mid_stream = st.MakeStream();
      st.mid_pos = 0;
      ++pass_mallocs;
    }
    const std::size_t mid_growth_before = st.mid_stream->growth_events();
    while (st.mid_pos < mid) {
      st.mid_stream->Advance();
      ++st.mid_pos;
    }
    pass_mallocs += st.mid_stream->growth_events() - mid_growth_before;
    if (st.ctx_scratch.feasible.empty()) ++pass_mallocs;
    if (st.mid_stream->free_initial()) {
      st.eval.ContextFromPowerInto(mid, st.mid_stream->power(),
                                   &st.ctx_scratch);
    } else {
      st.eval.ContextFromMarginalInto(mid, st.mid_stream->marginal(),
                                      &st.ctx_scratch);
    }
    const NodeScore mid_score = ScoreNode(st.eval, length, st.ctx_scratch,
                                          options.epsilon, options.max_nearby);
    const QuiltCand w = NodeWinner(mid_score, length, options.epsilon);
    // Materialize into the retained result slot; decide interior-ness from
    // the offsets directly (what IsInteriorTwoSided read off the vector).
    const bool two_sided_interior =
        w.a > 0 && w.b > 0 && static_cast<int>(mid) - w.a >= 0 &&
        static_cast<int>(mid) + w.b <= static_cast<int>(length) - 1;
    const bool trivial = w.a == 0 && w.b == 0;
    if (two_sided_interior || trivial) {
      ChainMqmResult& result = st.result;
      result.sigma_max = w.score;
      result.worst_node = static_cast<int>(mid);
      MaterializeQuiltInto(w, static_cast<int>(mid), length,
                           &result.active_quilt);
      result.influence = w.influence;
      result.used_stationary_shortcut = true;
      result.total_nodes = length;
      result.scored_nodes = 1;
      result.memory.peak_bytes =
          sizeof(double) *
          (st.eval.StoredDoubles() + st.mid_stream->StoredDoubles());
      result.memory.arena_retained_bytes = result.memory.peak_bytes;
      result.memory.mallocs = pass_mallocs;
      return Status::OK();
    }
    // One-sided optimum at the middle: fall through to the full scan.
  }
  if (!options.dedup_nodes) {
    auto stream = st.MakeStream();
    PF_ASSIGN_OR_RETURN(
        st.result,
        ScanExhaustive(st.eval, stream.get(), length, options, lazy->get()));
    st.result.memory.mallocs +=
        st.eval.growth_events() - eval_growth_before;
    return Status::OK();
  }
  // Deadline-safety of the scan-state mutations below: every early error
  // return resets st.scan, so a cancelled analysis can never leave a
  // half-advanced scan to be extended by the next caller.
  if (st.scan == nullptr || !st.scan->resumable ||
      st.scan->length > length) {
    st.scan = std::make_unique<DedupScanState>();
    Status cold = ColdDedupScan(*st.scan, st.eval, length, options,
                                lazy->get(), [&] { return st.MakeStream(); });
    if (!cold.ok()) {
      st.scan = nullptr;
      return cold;
    }
  } else if (st.scan->length < length) {
    st.scan->pass_mallocs = 0;
    // Small appends run poolless (the work is O(max_nearby + delta), far
    // below thread-spawn cost); bulk appends fan out like a cold scan.
    constexpr std::size_t kParallelAppendThreshold = 1024;
    ThreadPool* pool = length - st.scan->length >= kParallelAppendThreshold
                           ? lazy->get()
                           : nullptr;
    Result<bool> appended =
        AppendDedupScan(*st.scan, st.eval, length, options, pool);
    if (!appended.ok()) {
      st.scan = nullptr;
      return appended.status();
    }
    if (!appended.value()) {
      st.scan = std::make_unique<DedupScanState>();
      Status cold =
          ColdDedupScan(*st.scan, st.eval, length, options, lazy->get(),
                        [&] { return st.MakeStream(); });
      if (!cold.ok()) {
        st.scan = nullptr;
        return cold;
      }
    }
  } else {
    // st.scan->length == length: the stored result is already current.
    st.scan->pass_mallocs = 0;
  }
  // Attribute the pass's growth: scan-local events plus the evaluator and
  // stream deltas (a cold rebuild replaced the stream — count its whole
  // history, it grew from nothing this pass).
  const NodeValueStream* scan_stream_after = st.scan->stream.get();
  st.scan->result.memory.mallocs =
      st.scan->pass_mallocs +
      (st.eval.growth_events() - eval_growth_before) +
      (scan_stream_after->growth_events() -
       (scan_stream_after == scan_stream_before ? scan_stream_growth_before
                                                : 0));
  st.result = st.scan->result;
  return Status::OK();
}

}  // namespace

// ------------------------------------------------------ ChainMqmAnalysis --

struct ChainMqmAnalysis::Impl {
  ChainMqmOptions options;
  std::size_t length = 0;
  bool free_initial = false;
  // Owned model; ThetaStates hold pointers into these vectors (stable: the
  // vectors are filled once and never resized afterwards).
  std::vector<MarkovChain> thetas;
  std::vector<Matrix> transitions;
  std::vector<std::unique_ptr<ThetaState>> states;
  ChainMqmResult result;

  // Runs every theta at `new_length` and reduces across the class (worst
  // sigma wins; the first theta attaining it, like the one-shot scan).
  // On error (deadline) the retained result and length are unchanged —
  // per-theta state is retry-safe (see AnalyzeThetaAt).
  Status RunAt(std::size_t new_length) {
    // Lazy: a steady-state small append never pays thread spawn/join.
    LazyPool lazy(options.num_threads);
    // Reduce via a pointer, then copy once into the retained result slot —
    // vector capacity is reused, so a warm RunAt allocates nothing.
    const ChainMqmResult* worst = nullptr;
    std::size_t total_nodes = 0, scored_nodes = 0;
    MemoryStats memory;
    for (auto& st : states) {
      PF_RETURN_NOT_OK(AnalyzeThetaAt(*st, new_length, options, &lazy));
      total_nodes += st->result.total_nodes;
      scored_nodes += st->result.scored_nodes;
      memory.MergeMax(st->result.memory);
      if (worst == nullptr || st->result.sigma_max > worst->sigma_max) {
        worst = &st->result;
      }
    }
    result = *worst;
    result.total_nodes = total_nodes;
    result.scored_nodes = scored_nodes;
    result.memory = memory;
    length = new_length;
    return Status::OK();
  }
};

ChainMqmAnalysis::ChainMqmAnalysis(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
ChainMqmAnalysis::ChainMqmAnalysis(ChainMqmAnalysis&&) noexcept = default;
ChainMqmAnalysis& ChainMqmAnalysis::operator=(ChainMqmAnalysis&&) noexcept =
    default;
ChainMqmAnalysis::~ChainMqmAnalysis() = default;

std::size_t ChainMqmAnalysis::length() const { return impl_->length; }
const ChainMqmResult& ChainMqmAnalysis::result() const {
  return impl_->result;
}

Result<ChainMqmAnalysis> ChainMqmAnalysis::Analyze(
    std::vector<MarkovChain> thetas, std::size_t length,
    const ChainMqmOptions& options) {
  PF_RETURN_NOT_OK(ValidatePrivacyParams({options.epsilon}));
  if (thetas.empty()) return Status::InvalidArgument("empty chain class");
  if (length == 0) return Status::InvalidArgument("length must be positive");
  for (const MarkovChain& theta : thetas) {
    if (theta.num_states() > 64) {
      return Status::NotSupported("exact influence supports at most 64 states");
    }
    if (theta.num_states() != thetas.front().num_states()) {
      return Status::InvalidArgument("state-space mismatch in Theta");
    }
  }
  auto impl = std::make_unique<Impl>();
  impl->options = options;
  impl->free_initial = false;
  impl->thetas = std::move(thetas);
  impl->states.reserve(impl->thetas.size());
  for (const MarkovChain& theta : impl->thetas) {
    auto st = std::make_unique<ThetaState>(&theta, theta.transition(),
                                           /*free_initial=*/false);
    // The shortcut precondition q == pi (and pi > 0) is length-independent;
    // decide it once so every later extension makes the same mode choice a
    // cold analysis would.
    Result<Vector> pi = theta.StationaryDistribution();
    if (pi.ok() && DistanceL1(pi.value(), theta.initial()) < 1e-9 &&
        *std::min_element(pi.value().begin(), pi.value().end()) > 0.0) {
      st->stationary_initial = true;
    }
    impl->states.push_back(std::move(st));
  }
  PF_RETURN_NOT_OK(impl->RunAt(length));
  return ChainMqmAnalysis(std::move(impl));
}

Result<ChainMqmAnalysis> ChainMqmAnalysis::AnalyzeFreeInitial(
    std::vector<Matrix> transitions, std::size_t length,
    const ChainMqmOptions& options) {
  PF_RETURN_NOT_OK(ValidatePrivacyParams({options.epsilon}));
  if (transitions.empty()) return Status::InvalidArgument("empty class");
  if (length == 0) return Status::InvalidArgument("length must be positive");
  for (const Matrix& p : transitions) {
    if (p.rows() != p.cols() || p.rows() > 64 || !p.IsRowStochastic(1e-8)) {
      return Status::InvalidArgument(
          "transition matrices must be row-stochastic with <= 64 states");
    }
  }
  auto impl = std::make_unique<Impl>();
  impl->options = options;
  impl->free_initial = true;
  impl->transitions = std::move(transitions);
  impl->states.reserve(impl->transitions.size());
  for (const Matrix& p : impl->transitions) {
    impl->states.push_back(
        std::make_unique<ThetaState>(nullptr, p, /*free_initial=*/true));
  }
  PF_RETURN_NOT_OK(impl->RunAt(length));
  return ChainMqmAnalysis(std::move(impl));
}

Status ChainMqmAnalysis::ExtendTo(std::size_t new_length) {
  if (new_length < impl_->length) {
    return Status::InvalidArgument(
        "ExtendTo can only grow the chain: analysis is at length " +
        std::to_string(impl_->length) + ", requested " +
        std::to_string(new_length) + "; create a new analysis to shrink");
  }
  if (new_length == impl_->length) return Status::OK();
  return impl_->RunAt(new_length);
}

// ---------------------------------------------------- one-shot entry points

Result<double> ChainQuiltInfluenceExact(const MarkovChain& theta,
                                        std::size_t length,
                                        const MarkovQuilt& quilt) {
  if (theta.num_states() > 64) {
    return Status::NotSupported("exact influence supports at most 64 states");
  }
  if (quilt.target < 0 || quilt.target >= static_cast<int>(length)) {
    return Status::InvalidArgument("quilt target outside chain");
  }
  for (int q : quilt.quilt) {
    if (q < 0 || q >= static_cast<int>(length)) {
      return Status::InvalidArgument("quilt node outside chain");
    }
    if (q == quilt.target) {
      return Status::InvalidArgument("quilt must not contain its target");
    }
  }
  ExactEvaluator eval(theta.transition(), /*free_initial=*/false);
  // One quilt only needs the tables at its own endpoint distances — not the
  // full sweep the analysis entry points prepare.
  const auto [a, b] = ChainQuiltOffsets(quilt);
  std::vector<std::size_t> distances;
  if (a > 0) distances.push_back(static_cast<std::size_t>(a));
  if (b > 0 && b != a) distances.push_back(static_cast<std::size_t>(b));
  PF_RETURN_NOT_OK(eval.PrepareDistances(distances, nullptr));
  NodeValueStream stream(theta.transition(), theta.initial());
  for (int t = 0; t < quilt.target; ++t) stream.Advance();
  return EvaluateQuilt(
      eval,
      ContextFromStream(eval, stream, static_cast<std::size_t>(quilt.target)),
      quilt);
}

Result<ChainMqmResult> MqmExactAnalyze(const std::vector<MarkovChain>& thetas,
                                       std::size_t length,
                                       const ChainMqmOptions& options) {
  PF_ASSIGN_OR_RETURN(ChainMqmAnalysis analysis,
                      ChainMqmAnalysis::Analyze(thetas, length, options));
  return analysis.result();
}

Result<ChainMqmResult> MqmExactAnalyzeFreeInitial(
    const std::vector<Matrix>& transitions, std::size_t length,
    const ChainMqmOptions& options) {
  PF_ASSIGN_OR_RETURN(
      ChainMqmAnalysis analysis,
      ChainMqmAnalysis::AnalyzeFreeInitial(transitions, length, options));
  return analysis.result();
}

}  // namespace pf
