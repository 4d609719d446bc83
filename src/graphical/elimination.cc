#include "graphical/elimination.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <utility>

#include "common/arena.h"
#include "common/deadline.h"

namespace pf {

const char* InferenceBackendName(InferenceBackend backend) {
  switch (backend) {
    case InferenceBackend::kAuto: return "auto";
    case InferenceBackend::kVariableElimination: return "elimination";
    case InferenceBackend::kEnumeration: return "enumeration";
  }
  return "unknown";
}

void EliminationStats::MergeMax(const EliminationStats& other) {
  induced_width = std::max(induced_width, other.induced_width);
  peak_factor_bytes = std::max(peak_factor_bytes, other.peak_factor_bytes);
}

namespace {

// Incremental min-fill over sorted neighbor lists. The order is the
// textbook one — repeatedly remove the eliminable vertex needing the fewest
// fill-in edges, ties to the smallest id, marrying its neighbors — but a
// vertex's fill count is recomputed only when it can have changed:
// eliminating v adds edges only among N(v) and removes only v's own edges,
// so the fill of u changes only if u's neighbor set changed (u in N(v)) or
// u is adjacent to an endpoint of a new edge (u in N(N(v))). Every other
// cached count is still exact, so each step picks the same vertex as a
// full rescan. The pick itself pops a min-heap of (fill, id) entries —
// lexicographic, so the smallest fill and then the smallest id wins — and
// discards entries made stale by a removal or a later recount.
struct MinFillScratch {
  std::vector<std::vector<int>> adj;  // Sorted, symmetric, no self-loops.
  std::vector<char> eliminable;
  std::vector<char> removed;
  std::vector<std::size_t> fill;
  // Vertex stamps: the recount set of one step, then each FillOf's
  // neighborhood (a fresh stamp per use, so no clearing between uses).
  std::vector<std::uint32_t> mark;
  std::uint32_t stamp = 0;
  std::vector<int> recompute;
  std::vector<std::pair<std::size_t, int>> heap;  // (fill, id), lazy.
  std::vector<int> order;
};

// A fresh stamp; the marks are cleared on wrap-around so a stale mark can
// never read as current.
std::uint32_t NextStamp(MinFillScratch& s) {
  if (++s.stamp == 0) {
    std::fill(s.mark.begin(), s.mark.end(), 0u);
    s.stamp = 1;
  }
  return s.stamp;
}

// Fill-in edges needed to eliminate v: pairs of neighbors that are not
// adjacent, i.e. C(d, 2) minus the edges inside N(v) (each counted once,
// from its smaller endpoint).
std::size_t FillOf(MinFillScratch& s, std::size_t v) {
  const std::vector<int>& nv = s.adj[v];
  const std::size_t d = nv.size();
  if (d < 2) return 0;
  const std::uint32_t stamp = NextStamp(s);
  for (int w : nv) s.mark[static_cast<std::size_t>(w)] = stamp;
  std::size_t inside = 0;
  for (int a : nv) {
    const std::vector<int>& na = s.adj[static_cast<std::size_t>(a)];
    for (auto it = std::upper_bound(na.begin(), na.end(), a); it != na.end();
         ++it) {
      inside += s.mark[static_cast<std::size_t>(*it)] == stamp;
    }
  }
  return d * (d - 1) / 2 - inside;
}

void AddSortedEdge(std::vector<int>& v, int x) {
  const auto it = std::lower_bound(v.begin(), v.end(), x);
  if (it == v.end() || *it != x) v.insert(it, x);
}

// Runs min-fill over s.adj[0, n) / s.eliminable[0, n), writing s.order;
// returns the induced width (max remaining-neighbor count at removal).
std::size_t RunMinFill(MinFillScratch& s, std::size_t n) {
  s.removed.assign(n, 0);
  s.fill.assign(n, 0);
  s.mark.assign(n, 0);
  s.stamp = 0;
  s.order.clear();
  s.heap.clear();
  const std::greater<std::pair<std::size_t, int>> later;
  std::size_t to_remove = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (!s.eliminable[v]) continue;
    ++to_remove;
    s.fill[v] = FillOf(s, v);
    s.heap.emplace_back(s.fill[v], static_cast<int>(v));
  }
  std::make_heap(s.heap.begin(), s.heap.end(), later);
  std::size_t width = 0;
  for (std::size_t step = 0; step < to_remove; ++step) {
    // Ties resolve to the smallest id (the heap orders (fill, id)).
    std::size_t bv = n;
    while (bv == n) {
      const auto [fill, v] = s.heap.front();
      std::pop_heap(s.heap.begin(), s.heap.end(), later);
      s.heap.pop_back();
      const std::size_t uv = static_cast<std::size_t>(v);
      if (!s.removed[uv] && s.fill[uv] == fill) bv = uv;
    }
    const int best = static_cast<int>(bv);
    std::vector<int>& nb = s.adj[bv];
    width = std::max(width, nb.size());
    for (std::size_t a = 0; a < nb.size(); ++a) {
      for (std::size_t b = a + 1; b < nb.size(); ++b) {
        AddSortedEdge(s.adj[static_cast<std::size_t>(nb[a])], nb[b]);
        AddSortedEdge(s.adj[static_cast<std::size_t>(nb[b])], nb[a]);
      }
    }
    for (int a : nb) {
      std::vector<int>& va = s.adj[static_cast<std::size_t>(a)];
      const auto it = std::lower_bound(va.begin(), va.end(), best);
      if (it != va.end() && *it == best) va.erase(it);
    }
    s.removed[bv] = 1;
    s.order.push_back(best);
    // Recompute fill on N(v) u N(N(v)) of the updated graph.
    const std::uint32_t stamp = NextStamp(s);
    s.recompute.clear();
    const auto touch = [&s, stamp](int u) {
      const std::size_t uu = static_cast<std::size_t>(u);
      if (s.mark[uu] == stamp) return;
      s.mark[uu] = stamp;
      if (s.eliminable[uu] && !s.removed[uu]) s.recompute.push_back(u);
    };
    for (int a : nb) {
      touch(a);
      for (int w : s.adj[static_cast<std::size_t>(a)]) touch(w);
    }
    for (int u : s.recompute) {
      const std::size_t uu = static_cast<std::size_t>(u);
      const std::size_t fill = FillOf(s, uu);
      if (fill == s.fill[uu]) continue;  // Its heap entry is still current.
      s.fill[uu] = fill;
      s.heap.emplace_back(fill, u);
      std::push_heap(s.heap.begin(), s.heap.end(), later);
    }
    nb.clear();
  }
  return width;
}

}  // namespace

std::vector<int> MinFillOrder(const std::vector<std::vector<int>>& adjacency,
                              const std::vector<bool>& eliminable,
                              std::size_t* induced_width) {
  const std::size_t n = adjacency.size();
  MinFillScratch s;
  s.adj.resize(n);
  s.eliminable.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    for (int w : adjacency[v]) {
      if (w != static_cast<int>(v)) AddSortedEdge(s.adj[v], w);
    }
    s.eliminable[v] = eliminable[v];
  }
  const std::size_t width = RunMinFill(s, n);
  if (induced_width != nullptr) *induced_width = width;
  return std::move(s.order);
}

std::size_t MinFillWidth(const std::vector<std::vector<int>>& adjacency) {
  std::size_t width = 0;
  MinFillOrder(adjacency, std::vector<bool>(adjacency.size(), true), &width);
  return width;
}

namespace {

Status ValidateQuery(const std::vector<int>& arities,
                     const std::vector<int>& targets,
                     const std::vector<std::pair<int, int>>& evidence) {
  const int n = static_cast<int>(arities.size());
  for (int t : targets) {
    if (t < 0 || t >= n) return Status::InvalidArgument("target index out of range");
  }
  for (const auto& [var, val] : evidence) {
    if (var < 0 || var >= n || val < 0 ||
        val >= arities[static_cast<std::size_t>(var)]) {
      return Status::InvalidArgument("evidence out of range");
    }
  }
  return Status::OK();
}

Result<std::size_t> CheckedCells(const std::vector<int>& arities,
                                 std::size_t limit, const char* what) {
  std::size_t cells = 1;
  for (int a : arities) {
    if (cells > limit / static_cast<std::size_t>(a)) {
      return Status::InvalidArgument(
          std::string(what) + " exceeds the inference limit (" +
          std::to_string(limit) + ")");
    }
    cells *= static_cast<std::size_t>(a);
  }
  return cells;
}

// Reference backend: walks the full joint-assignment space with
// incrementally maintained per-factor indices. Exponential in the variable
// count; `limit` guards the assignment-space size.
Result<Vector> EnumerationConditionalJoint(
    const std::vector<Factor>& factors, const std::vector<int>& arities,
    const std::vector<int>& targets,
    const std::vector<std::pair<int, int>>& evidence, std::size_t limit) {
  PF_ASSIGN_OR_RETURN(const std::size_t cells,
                      CheckedCells(arities, limit, "joint-assignment space"));
  const std::size_t n = arities.size();
  // Per-factor stride of each variable digit (0 when absent from scope).
  std::vector<std::vector<std::size_t>> stride(
      factors.size(), std::vector<std::size_t>(n, 0));
  for (std::size_t fi = 0; fi < factors.size(); ++fi) {
    const Factor& f = factors[fi];
    for (std::size_t p = 0; p < f.scope.size(); ++p) {
      std::size_t s = 1;
      for (std::size_t i = p + 1; i < f.scope.size(); ++i) {
        s *= static_cast<std::size_t>(f.arity[i]);
      }
      stride[fi][static_cast<std::size_t>(f.scope[p])] = s;
    }
  }
  std::size_t target_cells = 1;
  for (int t : targets) {
    target_cells *= static_cast<std::size_t>(arities[static_cast<std::size_t>(t)]);
  }
  Vector mass(target_cells, 0.0);
  double evidence_mass = 0.0;
  std::vector<int> digits(n, 0);
  std::vector<std::size_t> idx(factors.size(), 0);
  for (std::size_t cell = 0; cell < cells; ++cell) {
    bool matches = true;
    for (const auto& [var, val] : evidence) {
      if (digits[static_cast<std::size_t>(var)] != val) {
        matches = false;
        break;
      }
    }
    if (matches) {
      double p = 1.0;
      for (std::size_t fi = 0; fi < factors.size(); ++fi) {
        p *= factors[fi].values[idx[fi]];
      }
      if (p > 0.0) {
        evidence_mass += p;
        std::size_t ti = 0;
        for (int t : targets) {
          ti = ti * static_cast<std::size_t>(arities[static_cast<std::size_t>(t)]) +
               static_cast<std::size_t>(digits[static_cast<std::size_t>(t)]);
        }
        mass[ti] += p;
      }
    }
    for (std::size_t d = n; d-- > 0;) {
      ++digits[d];
      for (std::size_t fi = 0; fi < factors.size(); ++fi) idx[fi] += stride[fi][d];
      if (digits[d] < arities[d]) break;
      digits[d] = 0;
      for (std::size_t fi = 0; fi < factors.size(); ++fi) {
        idx[fi] -= stride[fi][d] * static_cast<std::size_t>(arities[d]);
      }
    }
  }
  if (!(evidence_mass > 0.0)) {
    return Status::FailedPrecondition("evidence has probability zero");
  }
  for (double& v : mass) v /= evidence_mass;
  return mass;
}

// ----------------------------------------------------------------------
// The elimination hot path runs entirely out of a per-thread retained
// workspace: factor tables live in a bump arena (reset per query, blocks
// retained), scope/arity/adjacency scratch lives in pooled vectors that
// keep their capacity, so a warm thread's query performs zero heap
// allocations beyond the caller's output vector (and not even that via
// FactorConditionalJointInto). Results are cell-for-cell identical to the
// historical per-call-allocating implementation: same factor order, same
// min-fill tie rules, same kernels.
// ----------------------------------------------------------------------

// A working factor whose table borrows storage (the caller's input factor
// or the workspace arena); ids/arities live in pooled vectors.
struct WorkFactor {
  std::vector<int> scope;
  std::vector<int> arity;
  const double* values = nullptr;
  std::size_t size = 0;
  // In the working set: not yet absorbed into an elimination product.
  bool alive = false;

  std::size_t bytes() const { return size * sizeof(double); }
};

struct EliminationWorkspace {
  Arena arena{1u << 16};
  // Index-stable factor pool; [0, used) are this query's factors, and the
  // alive ones among them are the working set.
  std::vector<WorkFactor> pool;
  std::size_t used = 0;
  // by_var[v]: pool indices of the factors whose scope holds v, ascending
  // (alive or not — readers skip the absorbed ones).
  std::vector<std::vector<std::size_t>> by_var;
  std::vector<std::size_t> hits;  // Alive factors holding the current var.
  MinFillScratch min_fill;
  // Query scratch.
  std::vector<int> pinned;
  std::vector<int> free_targets, free_arity;
  std::vector<char> is_free;
  std::vector<FactorView> views;
  std::vector<int> combined_scope, combined_arity, table_arity;
  std::vector<int> digits, assigned;
  // Pairwise matrix fast-path scratch.
  Matrix mat_a, mat_b, mat_prod;
};

EliminationWorkspace& TlsWorkspace() {
  static thread_local EliminationWorkspace ws;
  return ws;
}

// Working-set order invariant: the working set is always the alive pool
// entries in ascending pool index. The input factors are acquired in input
// order, and every merged factor is acquired after all of its inputs, so it
// takes the largest index so far — exactly where the historical rebuild
// (keep the survivors in order, append the product) put it. Hence scanning
// by_var[v] in order yields the factors holding v in working-set order,
// and every product sees its operands in the historical order.
std::size_t AcquireWorkFactor(EliminationWorkspace& ws) {
  if (ws.used == ws.pool.size()) ws.pool.emplace_back();
  WorkFactor& f = ws.pool[ws.used];
  f.scope.clear();
  f.arity.clear();
  f.values = nullptr;
  f.size = 0;
  f.alive = true;
  return ws.used++;
}

// Enters an alive factor into the per-variable lists.
void IndexWorkFactor(EliminationWorkspace& ws, std::size_t gi) {
  for (int v : ws.pool[gi].scope) {
    ws.by_var[static_cast<std::size_t>(v)].push_back(gi);
  }
}

// One elimination step: multiplies the working factors containing `var`
// (ws.hits, in working-set order) and sums `var` out into a fresh pool
// factor (table in the arena), returning its pool index. Pairs of
// 2-variable factors (the dominant shape on chains and trees) route
// through the blocked matrix kernel.
Result<std::size_t> EliminateVarPooled(EliminationWorkspace& ws, int var,
                                       std::size_t limit,
                                       std::size_t live_bytes,
                                       EliminationStats* stats) {
  ws.views.clear();
  ws.combined_scope.clear();
  ws.combined_arity.clear();
  int var_arity = 0;
  for (const std::size_t wi : ws.hits) {
    const WorkFactor& f = ws.pool[wi];
    FactorView view;
    view.scope = f.scope.data();
    view.arity = f.arity.data();
    view.dims = f.scope.size();
    view.values = f.values;
    ws.views.push_back(view);
    for (std::size_t p = 0; p < f.scope.size(); ++p) {
      if (f.scope[p] == var) {
        var_arity = f.arity[p];
        continue;
      }
      if (std::find(ws.combined_scope.begin(), ws.combined_scope.end(),
                    f.scope[p]) == ws.combined_scope.end()) {
        ws.combined_scope.push_back(f.scope[p]);
        ws.combined_arity.push_back(f.arity[p]);
      }
    }
  }
  ws.table_arity = ws.combined_arity;
  ws.table_arity.push_back(var_arity);
  PF_ASSIGN_OR_RETURN(
      const std::size_t cells,
      CheckedCells(ws.table_arity, limit,
                   "elimination clique table (induced width too large)"));
  if (stats != nullptr) {
    stats->induced_width =
        std::max(stats->induced_width, ws.combined_scope.size());
    stats->peak_factor_bytes = std::max(stats->peak_factor_bytes,
                                        live_bytes + cells * sizeof(double));
  }
  // Fast path: exactly two pairwise factors sharing only `var` — the
  // product-then-marginalize is literally a matrix product A(x, var) *
  // B(var, y), served by the blocked kernel.
  if (ws.views.size() == 2 && ws.combined_scope.size() == 2 &&
      ws.views[0].dims == 2 && ws.views[1].dims == 2) {
    const auto fill_matrix = [var](const FactorView& f, bool var_as_cols,
                                   Matrix* m) {
      const bool var_last = f.scope[1] == var;
      const std::size_t rows = static_cast<std::size_t>(f.arity[0]);
      const std::size_t cols = static_cast<std::size_t>(f.arity[1]);
      // Orient so `var` sits on the requested side.
      if (var_last == var_as_cols) {
        m->ResizeUninitialized(rows, cols);
        std::memcpy(m->RowPtr(0), f.values, rows * cols * sizeof(double));
      } else {
        m->ResizeUninitialized(cols, rows);
        for (std::size_t r = 0; r < rows; ++r) {
          for (std::size_t c = 0; c < cols; ++c) {
            (*m)(c, r) = f.values[r * cols + c];
          }
        }
      }
    };
    const bool first_holds_row_var =
        ws.views[0].scope[0] == ws.combined_scope[0] ||
        ws.views[0].scope[1] == ws.combined_scope[0];
    const FactorView& fa = first_holds_row_var ? ws.views[0] : ws.views[1];
    const FactorView& fb = first_holds_row_var ? ws.views[1] : ws.views[0];
    fill_matrix(fa, /*var_as_cols=*/true, &ws.mat_a);
    fill_matrix(fb, /*var_as_cols=*/false, &ws.mat_b);
    MultiplyBlockedInto(ws.mat_a, ws.mat_b, &ws.mat_prod);
    const std::size_t gi = AcquireWorkFactor(ws);
    WorkFactor& out = ws.pool[gi];
    out.scope = ws.combined_scope;
    out.arity = ws.combined_arity;
    out.size = ws.mat_prod.rows() * ws.mat_prod.cols();
    double* dst = ws.arena.AllocDoubles(out.size);
    std::memcpy(dst, ws.mat_prod.RowPtr(0), out.size * sizeof(double));
    out.values = dst;
    return gi;
  }
  const std::size_t gi = AcquireWorkFactor(ws);
  WorkFactor& out = ws.pool[gi];
  out.scope = ws.combined_scope;
  out.arity = ws.combined_arity;
  out.size = cells / static_cast<std::size_t>(var_arity);
  double* dst = ws.arena.AllocDoubles(out.size);
  out.values = dst;
  // The full clique table is scratch: product into it, marginalize out of
  // it, rewind it.
  const Arena::Checkpoint cp = ws.arena.Save();
  double* table = ws.arena.AllocDoubles(cells);
  ws.combined_scope.push_back(var);  // table scope = combined + var
  MultiplyViewsInto(ws.views.data(), ws.views.size(), ws.combined_scope.data(),
                    ws.table_arity.data(), ws.combined_scope.size(), table,
                    &ws.arena);
  ws.combined_scope.pop_back();
  MarginalizeLastInto(table, out.size, static_cast<std::size_t>(var_arity),
                      dst);
  ws.arena.Rewind(cp);
  return gi;
}

Status EliminationConditionalJointInto(
    const std::vector<Factor>& factors, const std::vector<int>& arities,
    const std::vector<int>& targets,
    const std::vector<std::pair<int, int>>& evidence, std::size_t limit,
    EliminationStats* stats, Vector* result) {
  const std::size_t n = arities.size();
  EliminationWorkspace& ws = TlsWorkspace();
  ws.arena.Reset();
  ws.used = 0;
  // Pin evidence: reduce it out of every factor up front. Conflicting
  // duplicate pairs pin the same variable to two values — no assignment
  // matches, which is exactly the zero-probability-evidence condition the
  // enumeration reference reports (first-wins reduction would silently
  // answer as if only the first pair existed).
  ws.pinned.assign(n, -1);
  for (const auto& [var, val] : evidence) {
    int& pin = ws.pinned[static_cast<std::size_t>(var)];
    if (pin >= 0 && pin != val) {
      return Status::FailedPrecondition("evidence has probability zero");
    }
    pin = val;
  }
  for (const Factor& f : factors) {
    const std::size_t gi = AcquireWorkFactor(ws);
    WorkFactor& g = ws.pool[gi];
    g.scope = f.scope;
    g.arity = f.arity;
    g.values = f.values.data();  // Borrow until a reduction copies.
    g.size = f.values.size();
    for (const auto& [var, val] : evidence) {
      const auto it = std::find(g.scope.begin(), g.scope.end(), var);
      if (it == g.scope.end()) continue;
      const std::size_t pos = static_cast<std::size_t>(it - g.scope.begin());
      std::size_t block = 1;
      for (std::size_t i = pos + 1; i < g.scope.size(); ++i) {
        block *= static_cast<std::size_t>(g.arity[i]);
      }
      const std::size_t va = static_cast<std::size_t>(g.arity[pos]);
      const std::size_t outer = g.size / (block * va);
      double* dst = ws.arena.AllocDoubles(outer * block);
      for (std::size_t o = 0; o < outer; ++o) {
        const double* src =
            g.values + (o * va + static_cast<std::size_t>(val)) * block;
        std::memcpy(dst + o * block, src, block * sizeof(double));
      }
      g.values = dst;
      g.size = outer * block;
      g.scope.erase(g.scope.begin() + static_cast<std::ptrdiff_t>(pos));
      g.arity.erase(g.arity.begin() + static_cast<std::ptrdiff_t>(pos));
    }
  }
  // Free targets: distinct target variables that the evidence did not pin,
  // in first-occurrence order (the output expansion restores duplicates
  // and pinned coordinates).
  ws.free_targets.clear();
  ws.free_arity.clear();
  ws.is_free.assign(n, 0);
  for (int t : targets) {
    const std::size_t tv = static_cast<std::size_t>(t);
    if (ws.pinned[tv] >= 0 || ws.is_free[tv]) continue;
    ws.is_free[tv] = 1;
    ws.free_targets.push_back(t);
    ws.free_arity.push_back(arities[tv]);
  }
  // One pass over the reduced factors: the interaction graph of their
  // scopes (sorted neighbor lists), the per-variable factor lists, and the
  // live table bytes.
  MinFillScratch& mf = ws.min_fill;
  if (mf.adj.size() < n) mf.adj.resize(n);
  if (ws.by_var.size() < n) ws.by_var.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    mf.adj[v].clear();
    ws.by_var[v].clear();
  }
  mf.eliminable.assign(n, 0);
  std::size_t live_bytes = 0;
  for (std::size_t gi = 0; gi < ws.used; ++gi) {
    const WorkFactor& f = ws.pool[gi];
    for (std::size_t a = 0; a < f.scope.size(); ++a) {
      for (std::size_t b = a + 1; b < f.scope.size(); ++b) {
        AddSortedEdge(mf.adj[static_cast<std::size_t>(f.scope[a])], f.scope[b]);
        AddSortedEdge(mf.adj[static_cast<std::size_t>(f.scope[b])], f.scope[a]);
      }
    }
    IndexWorkFactor(ws, gi);
    live_bytes += f.bytes();
  }
  for (std::size_t v = 0; v < n; ++v) {
    mf.eliminable[v] = ws.pinned[v] < 0 && !ws.is_free[v];
  }
  RunMinFill(mf, n);
  if (stats != nullptr) {
    stats->peak_factor_bytes = std::max(stats->peak_factor_bytes, live_bytes);
  }
  for (const int var : mf.order) {
    // Each EliminateVarPooled is up to O(k^width) — the dominant cost on
    // high-width networks — so the cancellation checkpoint sits per
    // variable, bounding a deadline overrun to one elimination step.
    PF_RETURN_NOT_OK(CheckDeadline("variable elimination"));
    ws.hits.clear();
    for (const std::size_t wi : ws.by_var[static_cast<std::size_t>(var)]) {
      if (ws.pool[wi].alive) ws.hits.push_back(wi);
    }
    if (ws.hits.empty()) continue;  // Reduced away or never in a scope.
    PF_ASSIGN_OR_RETURN(const std::size_t merged,
                        EliminateVarPooled(ws, var, limit, live_bytes, stats));
    // The absorbed factors leave the working set; the product joins it at
    // the end (see AcquireWorkFactor).
    for (const std::size_t wi : ws.hits) {
      ws.pool[wi].alive = false;
      live_bytes -= ws.pool[wi].bytes();
    }
    IndexWorkFactor(ws, merged);
    live_bytes += ws.pool[merged].bytes();
    if (stats != nullptr) {
      stats->peak_factor_bytes =
          std::max(stats->peak_factor_bytes, live_bytes);
    }
  }
  // Every remaining scope variable is a free target; their product is the
  // unnormalized conditional joint.
  for (std::size_t wi = 0; wi < ws.used; ++wi) {
    if (!ws.pool[wi].alive) continue;
    for (int v : ws.pool[wi].scope) {
      if (!ws.is_free[static_cast<std::size_t>(v)]) {
        return Status::Internal("variable survived elimination unexpectedly");
      }
    }
  }
  PF_RETURN_NOT_OK(
      CheckedCells(ws.free_arity, limit, "target joint table").status());
  std::size_t joint_cells = 1;
  for (int a : ws.free_arity) joint_cells *= static_cast<std::size_t>(a);
  double* joint = ws.arena.AllocDoubles(joint_cells);
  ws.views.clear();
  for (std::size_t wi = 0; wi < ws.used; ++wi) {
    const WorkFactor& f = ws.pool[wi];
    if (!f.alive) continue;
    FactorView view;
    view.scope = f.scope.data();
    view.arity = f.arity.data();
    view.dims = f.scope.size();
    view.values = f.values;
    ws.views.push_back(view);
  }
  MultiplyViewsInto(ws.views.data(), ws.views.size(), ws.free_targets.data(),
                    ws.free_arity.data(), ws.free_targets.size(), joint,
                    &ws.arena);
  double total = 0.0;
  for (std::size_t i = 0; i < joint_cells; ++i) total += joint[i];
  if (!(total > 0.0)) {
    return Status::FailedPrecondition("evidence has probability zero");
  }
  // Expand to the caller's full target tuple: duplicates must agree,
  // pinned targets must match their evidence value, everything else reads
  // from the free-target joint.
  std::size_t out_cells = 1;
  for (int t : targets) {
    out_cells *= static_cast<std::size_t>(arities[static_cast<std::size_t>(t)]);
  }
  result->assign(out_cells, 0.0);
  Vector& out = *result;
  ws.digits.assign(targets.size(), 0);
  ws.assigned.assign(n, -1);
  for (std::size_t cell = 0; cell < out_cells; ++cell) {
    bool consistent = true;
    for (std::size_t d = 0; d < targets.size() && consistent; ++d) {
      const std::size_t tv = static_cast<std::size_t>(targets[d]);
      if (ws.assigned[tv] >= 0 && ws.assigned[tv] != ws.digits[d]) {
        consistent = false;
      }
      if (ws.pinned[tv] >= 0 && ws.pinned[tv] != ws.digits[d]) {
        consistent = false;
      }
      ws.assigned[tv] = ws.digits[d];
    }
    if (consistent) {
      std::size_t ji = 0;
      for (std::size_t p = 0; p < ws.free_targets.size(); ++p) {
        ji = ji * static_cast<std::size_t>(ws.free_arity[p]) +
             static_cast<std::size_t>(
                 ws.assigned[static_cast<std::size_t>(ws.free_targets[p])]);
      }
      out[cell] = joint[ji] / total;
    }
    for (std::size_t d = 0; d < targets.size(); ++d) {
      ws.assigned[static_cast<std::size_t>(targets[d])] = -1;
    }
    for (std::size_t d = targets.size(); d-- > 0;) {
      if (++ws.digits[d] < arities[static_cast<std::size_t>(targets[d])]) break;
      ws.digits[d] = 0;
    }
  }
  return Status::OK();
}

}  // namespace

Result<Vector> FactorConditionalJoint(
    const std::vector<Factor>& factors, const std::vector<int>& arities,
    const std::vector<int>& targets,
    const std::vector<std::pair<int, int>>& evidence, std::size_t limit,
    InferenceBackend backend, EliminationStats* stats) {
  Vector out;
  PF_RETURN_NOT_OK(FactorConditionalJointInto(factors, arities, targets,
                                              evidence, limit, backend, stats,
                                              &out));
  return out;
}

Status FactorConditionalJointInto(
    const std::vector<Factor>& factors, const std::vector<int>& arities,
    const std::vector<int>& targets,
    const std::vector<std::pair<int, int>>& evidence, std::size_t limit,
    InferenceBackend backend, EliminationStats* stats, Vector* out) {
  PF_RETURN_NOT_OK(ValidateQuery(arities, targets, evidence));
  if (backend == InferenceBackend::kEnumeration) {
    PF_ASSIGN_OR_RETURN(Vector mass,
                        EnumerationConditionalJoint(factors, arities, targets,
                                                    evidence, limit));
    *out = std::move(mass);
    return Status::OK();
  }
  return EliminationConditionalJointInto(factors, arities, targets, evidence,
                                         limit, stats, out);
}

std::size_t EliminationScratchRetainedBytes() {
  return TlsWorkspace().arena.retained_bytes();
}

}  // namespace pf
