#include "pufferfish/node_classes.h"

#include <algorithm>
#include <cstring>
#include <set>

#include "common/fingerprint.h"

namespace pf {

namespace {

// Flat form layout (every field one word, ints sign-extended):
//
//   n, arity[0..n),
//   per vertex: degree, neighbors (ascending canonical ids),
//   num_thetas,
//   per theta: num_factors,
//     per factor (ascending by scope): dims, scope[dims], arity[dims],
//                                      value bits[prod arity].
//
// Every variable-length run is preceded by its length (or determined by
// words before it), so the encoding is injective: equal words <=> equal
// problems.

std::uint64_t IntWord(int v) {
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
}

int WordInt(std::uint64_t w) {
  return static_cast<int>(static_cast<std::int64_t>(w));
}

// Label-independent node attributes that seed the refinement: arity,
// moral degree, and the raw CPT content under every theta. Root-independent
// by construction, so corresponding nodes of isomorphic rooted views start
// with equal colors.
std::vector<std::uint64_t> InitialColors(
    const std::vector<BayesianNetwork>& thetas, const MoralGraph& graph) {
  const std::size_t n = graph.num_nodes();
  std::vector<std::uint64_t> colors(n);
  for (std::size_t v = 0; v < n; ++v) {
    Fingerprint fp;
    fp.Add(thetas.front().node(v).arity);
    fp.Add(graph.neighbors(static_cast<int>(v)).size());
    for (const BayesianNetwork& bn : thetas) {
      const BayesianNetwork::Node& node = bn.node(v);
      fp.Add(node.parents.size());
      fp.Add(node.cpt);
    }
    colors[v] = fp.hash();
  }
  return colors;
}

// Replaces `colors` by its dense ranks (sorted-unique position) and returns
// the number of distinct colors. Iso-invariant: equal colors share a rank,
// and ranks only depend on the color multiset. `sorted` is scratch.
std::size_t DenseRanksInPlace(std::vector<std::uint64_t>* colors,
                              std::vector<std::uint64_t>* sorted) {
  sorted->assign(colors->begin(), colors->end());
  std::sort(sorted->begin(), sorted->end());
  sorted->erase(std::unique(sorted->begin(), sorted->end()), sorted->end());
  for (std::uint64_t& c : *colors) {
    c = static_cast<std::uint64_t>(
        std::lower_bound(sorted->begin(), sorted->end(), c) - sorted->begin());
  }
  return sorted->size();
}

// Per-thread scratch of NodeOrder / Canonicalize: capacities persist
// across the nodes one thread canonicalizes.
struct CanonicalScratch {
  std::vector<std::uint64_t> colors, next, sorted, around;
  std::vector<int> inv;
  std::vector<int> scopes;  // Relabeled, ascending scopes, back to back.
  std::vector<std::size_t> scope_at, by_scope;
  std::vector<std::size_t> perm, old_stride;
  std::vector<int> digits;
};

CanonicalScratch& TlsScratch() {
  static thread_local CanonicalScratch scratch;
  return scratch;
}

// Appends factor `f`'s relabeled form to `words`: its scope permuted to
// ascending canonical ids (s.perm[i] = old position of the new i-th scope
// variable) and its table moved to match. Pure data movement — every value
// word is the bit pattern of one input cell.
void AppendPermutedFactor(const Factor& f, const int* new_scope,
                          CanonicalScratch& s,
                          std::vector<std::uint64_t>* words) {
  const std::size_t dims = f.scope.size();
  words->push_back(dims);
  for (std::size_t d = 0; d < dims; ++d) words->push_back(IntWord(new_scope[d]));
  for (std::size_t d = 0; d < dims; ++d) {
    words->push_back(IntWord(f.arity[s.perm[d]]));
  }
  bool identity = true;
  for (std::size_t d = 0; d < dims; ++d) identity &= s.perm[d] == d;
  if (identity) {
    for (double v : f.values) words->push_back(DoubleBits(v));
    return;
  }
  // Stride of each OLD position, then walk the new table in row-major
  // order reading through the permutation.
  s.old_stride.assign(dims, 1);
  for (std::size_t d = dims; d-- > 1;) {
    s.old_stride[d - 1] = s.old_stride[d] * static_cast<std::size_t>(f.arity[d]);
  }
  s.digits.assign(dims, 0);
  for (std::size_t cell = 0; cell < f.values.size(); ++cell) {
    std::size_t src = 0;
    for (std::size_t d = 0; d < dims; ++d) {
      src += s.old_stride[s.perm[d]] * static_cast<std::size_t>(s.digits[d]);
    }
    words->push_back(DoubleBits(f.values[src]));
    for (std::size_t d = dims; d-- > 0;) {
      if (++s.digits[d] < f.arity[s.perm[d]]) break;
      s.digits[d] = 0;
    }
  }
}

}  // namespace

CanonicalBasis::CanonicalBasis(const std::vector<BayesianNetwork>& thetas,
                               const MoralGraph& graph)
    : graph_(graph), arities_(thetas.front().Arities()) {
  factors_.reserve(thetas.size());
  for (const BayesianNetwork& bn : thetas) factors_.push_back(bn.Factors());
  initial_colors_ = InitialColors(thetas, graph);
  std::vector<std::uint64_t> sorted;
  initial_classes_ = DenseRanksInPlace(&initial_colors_, &sorted);
  const std::size_t n = graph.num_nodes();
  form_words_ = 1 + n + n + 1;
  for (std::size_t v = 0; v < n; ++v) {
    form_words_ += graph.neighbors(static_cast<int>(v)).size();
  }
  for (const std::vector<Factor>& theta : factors_) {
    form_words_ += 1;
    for (const Factor& f : theta) form_words_ += 1 + 2 * f.scope.size() + f.size();
  }
}

std::vector<int> CanonicalBasis::NodeOrder(int target) const {
  const std::size_t n = graph_.num_nodes();
  CanonicalScratch& s = TlsScratch();
  std::vector<int> dist = graph_.Distances(target);
  for (int& d : dist) {
    if (d < 0) d = static_cast<int>(n);  // Other components sort last.
  }
  // Weisfeiler-Leman refinement of (distance, attributes): iterate until
  // the partition stops splitting (refinement is monotone, so an unchanged
  // class count means a stable partition), capped at n rounds.
  std::size_t num_classes = initial_classes_;
  s.colors = initial_colors_;
  s.next.resize(n);
  for (std::size_t round = 0; round < n; ++round) {
    for (std::size_t v = 0; v < n; ++v) {
      Fingerprint fp;
      fp.Add(static_cast<std::uint64_t>(static_cast<std::int64_t>(dist[v])));
      fp.Add(s.colors[v]);
      s.around.clear();
      for (int w : graph_.neighbors(static_cast<int>(v))) {
        s.around.push_back(s.colors[static_cast<std::size_t>(w)]);
      }
      std::sort(s.around.begin(), s.around.end());
      fp.Add(s.around.size());
      for (std::uint64_t c : s.around) fp.Add(c);
      s.next[v] = fp.hash();
    }
    const std::size_t refined = DenseRanksInPlace(&s.next, &s.sorted);
    if (refined == num_classes) break;
    num_classes = refined;
    std::swap(s.colors, s.next);
  }
  std::vector<int> order(n);
  for (std::size_t v = 0; v < n; ++v) order[v] = static_cast<int>(v);
  const std::vector<std::uint64_t>& colors = s.colors;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const std::size_t ua = static_cast<std::size_t>(a);
    const std::size_t ub = static_cast<std::size_t>(b);
    if (dist[ua] != dist[ub]) return dist[ua] < dist[ub];
    if (colors[ua] != colors[ub]) return colors[ua] < colors[ub];
    return a < b;  // Ties here are (believed) automorphic; any order works.
  });
  return order;
}

NodeCanonicalForm CanonicalBasis::Canonicalize(int target) const {
  NodeCanonicalForm form;
  form.order = NodeOrder(target);
  CanonicalScratch& s = TlsScratch();
  const std::size_t n = form.order.size();
  s.inv.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    s.inv[static_cast<std::size_t>(form.order[v])] = static_cast<int>(v);
  }
  std::vector<std::uint64_t>& words = form.words;
  words.reserve(form_words_);
  words.push_back(n);
  for (std::size_t v = 0; v < n; ++v) {
    words.push_back(IntWord(arities_[static_cast<std::size_t>(form.order[v])]));
  }
  for (std::size_t v = 0; v < n; ++v) {
    const std::vector<int>& nb = graph_.neighbors(form.order[v]);
    words.push_back(nb.size());
    const std::size_t first = words.size();
    for (int w : nb) words.push_back(IntWord(s.inv[static_cast<std::size_t>(w)]));
    // Canonical ids are non-negative, so word order is id order.
    std::sort(words.begin() + static_cast<std::ptrdiff_t>(first), words.end());
  }
  words.push_back(factors_.size());
  for (const std::vector<Factor>& theta : factors_) {
    // Relabel and normalize each scope to ascending canonical ids, then
    // order the factors by that scope. CPT scopes are distinct as sets
    // (equal sets would imply a parent cycle), so the order is strict and
    // canonical.
    s.scopes.clear();
    s.scope_at.clear();
    for (const Factor& f : theta) {
      s.scope_at.push_back(s.scopes.size());
      for (int v : f.scope) s.scopes.push_back(s.inv[static_cast<std::size_t>(v)]);
      std::sort(s.scopes.begin() + static_cast<std::ptrdiff_t>(s.scope_at.back()),
                s.scopes.end());
    }
    const auto scope_begin = [&](std::size_t fi) {
      return s.scopes.begin() + static_cast<std::ptrdiff_t>(s.scope_at[fi]);
    };
    const auto scope_end = [&](std::size_t fi) {
      return scope_begin(fi) + static_cast<std::ptrdiff_t>(theta[fi].scope.size());
    };
    s.by_scope.resize(theta.size());
    for (std::size_t fi = 0; fi < theta.size(); ++fi) s.by_scope[fi] = fi;
    std::sort(s.by_scope.begin(), s.by_scope.end(),
              [&](std::size_t a, std::size_t b) {
                return std::lexicographical_compare(
                    scope_begin(a), scope_end(a), scope_begin(b), scope_end(b));
              });
    words.push_back(theta.size());
    for (const std::size_t fi : s.by_scope) {
      const Factor& f = theta[fi];
      // perm[i] = old position of the new i-th scope variable.
      s.perm.resize(f.scope.size());
      for (std::size_t d = 0; d < s.perm.size(); ++d) s.perm[d] = d;
      std::sort(s.perm.begin(), s.perm.end(), [&](std::size_t a, std::size_t b) {
        return s.inv[static_cast<std::size_t>(f.scope[a])] <
               s.inv[static_cast<std::size_t>(f.scope[b])];
      });
      AppendPermutedFactor(f, s.scopes.data() + s.scope_at[fi], s, &words);
    }
  }
  Fingerprint fp;
  for (std::uint64_t w : words) fp.Add(w);
  form.key = fp.hash();
  return form;
}

bool NodeCanonicalForm::SameProblem(const NodeCanonicalForm& other) const {
  return words == other.words;
}

CanonicalProblem DecodeCanonicalProblem(const NodeCanonicalForm& form) {
  CanonicalProblem p;
  const std::uint64_t* w = form.words.data();
  const std::size_t n = static_cast<std::size_t>(*w++);
  p.arities.resize(n);
  for (int& a : p.arities) a = WordInt(*w++);
  p.adjacency.resize(n);
  for (std::vector<int>& adj : p.adjacency) {
    adj.resize(static_cast<std::size_t>(*w++));
    for (int& v : adj) v = WordInt(*w++);
  }
  p.factors.resize(static_cast<std::size_t>(*w++));
  for (std::vector<Factor>& theta : p.factors) {
    theta.resize(static_cast<std::size_t>(*w++));
    for (Factor& f : theta) {
      const std::size_t dims = static_cast<std::size_t>(*w++);
      f.scope.resize(dims);
      f.arity.resize(dims);
      for (int& v : f.scope) v = WordInt(*w++);
      std::size_t cells = 1;
      for (int& a : f.arity) {
        a = WordInt(*w++);
        cells *= static_cast<std::size_t>(a);
      }
      f.values.resize(cells);
      std::memcpy(f.values.data(), w, cells * sizeof(double));
      w += cells;
    }
  }
  return p;
}

MoralGraph UnionMoralGraph(const std::vector<BayesianNetwork>& thetas) {
  const std::size_t n = thetas.front().num_nodes();
  std::vector<std::set<int>> adj(n);
  for (const BayesianNetwork& bn : thetas) {
    const MoralGraph g(bn);
    for (std::size_t v = 0; v < n; ++v) {
      for (int w : g.neighbors(static_cast<int>(v))) adj[v].insert(w);
    }
  }
  std::vector<std::vector<int>> lists(n);
  for (std::size_t v = 0; v < n; ++v) {
    lists[v].assign(adj[v].begin(), adj[v].end());
  }
  return MoralGraph(lists);
}

}  // namespace pf
