"""lock-order: the global mutex acquisition graph must be acyclic.

The engine documents pairwise orders in comments (PrivacyEngine:
`model_mutex_ before prepared_mutex_`), but comments drift. This pass
derives the real order from the code:

  * Nodes are mutex members: every field whose type is a mutex capability
    (`pf::Mutex`, `Mutex`), named `Class::field`.
  * Acquisition sites are `MutexLock guard(m)` declarations (held to the
    end of the enclosing block), explicit `m.Lock()` / `m.Unlock()` pairs,
    and locks a function declares it runs under via `PF_REQUIRES(m)`.
  * An edge A -> B is recorded when B is acquired while A is held — either
    directly in one function, or through a call: if f holds A and calls g,
    every lock g (transitively) acquires is nested under A. Callee
    summaries are computed to a fixpoint over a name-resolved call graph;
    calls whose name matches several methods are skipped rather than
    over-approximated.
  * A cycle in the edge set is a potential deadlock: two threads taking
    the cycle from different entry points can each hold the lock the other
    wants. Each cycle yields one finding.

The derived graph is also emitted as `docs/LOCK_ORDER.md` (via
`--lock-order-doc`), giving the repo a generated, checked-in lock-order
reference that CI keeps fresh.
"""

from typing import Dict, List, Optional, Set, Tuple

from ..findings import Finding
from ..ir import Call, Function, SourceModel, Stmt

WHY = ("the mutex acquisition graph must stay acyclic — a cycle means two "
       "threads can deadlock by taking the cycle from different entries")

# Capability wrapper classes themselves are the primitives, not users.
_PRIMITIVE_CLASSES = {"Mutex", "MutexLock", "CondVar"}

_MUTEX_TYPE_WORDS = ("Mutex",)


def _is_mutex_field(type_text: str) -> bool:
    if "MutexLock" in type_text:
        return False
    return any(w in type_text for w in _MUTEX_TYPE_WORDS)


class LockGraph:
    """Nodes are 'Class::field' mutex names; edges carry witness sites."""

    def __init__(self):
        self.nodes: Set[str] = set()
        # (held, acquired) -> list of "file:line via Function" witnesses.
        self.edges: Dict[Tuple[str, str], List[str]] = {}

    def add_edge(self, held: str, acquired: str, site: str):
        if held == acquired:
            return  # Self-nesting is a recursive-lock bug, reported apart.
        self.nodes.add(held)
        self.nodes.add(acquired)
        self.edges.setdefault((held, acquired), [])
        if site not in self.edges[(held, acquired)]:
            self.edges[(held, acquired)].append(site)

    def successors(self, node: str) -> List[str]:
        return sorted(b for (a, b) in self.edges if a == node)

    def find_cycles(self) -> List[List[str]]:
        """Returns each elementary cycle once (rotated to min node first)."""
        cycles: Set[Tuple[str, ...]] = set()
        for start in sorted(self.nodes):
            stack = [(start, [start])]
            while stack:
                node, path = stack.pop()
                for nxt in self.successors(node):
                    if nxt == start:
                        i = path.index(min(path))
                        cycles.add(tuple(path[i:] + path[:i]))
                    elif nxt not in path and len(path) < 8:
                        stack.append((nxt, path + [nxt]))
        return [list(c) for c in sorted(cycles)]


def _resolve_lock(expr: str, fn: Function, model: SourceModel) -> Optional[str]:
    """Maps a lock expression ('mutex_', 'entry->mutex', '*mu') to its
    canonical 'Class::field' node name, or None when unresolvable."""
    expr = expr.strip().lstrip("*&")
    import re
    parts = re.split(r"->|\.", expr)
    leaf = parts[-1].strip()
    if not re.fullmatch(r"[A-Za-z_]\w*", leaf):
        return None
    f = model.find_field(leaf, fn.cls if len(parts) == 1 else "")
    if f is None or not _is_mutex_field(f.type_text):
        return None
    if f.cls in _PRIMITIVE_CLASSES:
        return None
    return f"{f.cls}::{f.name}" if f.cls else f.name


def _entry_locks(fn: Function, model: SourceModel) -> Set[str]:
    """Locks a function runs under per PF_REQUIRES on definition or decl."""
    reqs = list(fn.requires)
    for md in model.method_decls:
        if md.cls == fn.cls and md.name == fn.name:
            reqs.extend(md.requires)
    out = set()
    for r in reqs:
        node = _resolve_lock(r, fn, model)
        if node:
            out.add(node)
    return out


def _scan_function(fn: Function, model: SourceModel, graph: LockGraph,
                   callee_summary: Dict[str, Set[str]],
                   call_index: Dict[str, List[str]],
                   findings: List[Finding]) -> Set[str]:
    """Walks fn recording nesting edges. Returns every lock fn itself
    acquires (for the interprocedural summary)."""
    acquired_anywhere: Set[str] = set()
    entry = _entry_locks(fn, model)

    def site(line: int) -> str:
        return f"{fn.file}:{line} via {fn.qualified}"

    def walk(stmts: List[Stmt], held: Set[str]):
        held = set(held)
        for s in stmts:
            new_locks: List[str] = []
            for d in s.decls:
                if "MutexLock" in d.type_text:
                    node = _resolve_lock(d.init_text, fn, model)
                    if node:
                        new_locks.append((node, d.line))
            for c in s.calls:
                if c.name == "Lock" and c.receiver:
                    node = _resolve_lock(c.receiver, fn, model)
                    if node:
                        new_locks.append((node, c.line))
                elif c.name == "Unlock" and c.receiver:
                    node = _resolve_lock(c.receiver, fn, model)
                    if node:
                        held.discard(node)
            for node, line in new_locks:
                if node in held:
                    findings.append(Finding(
                        rule="lock-order", file=fn.file, line=line,
                        message=(f"`{node}` re-acquired in {fn.qualified} "
                                 f"while already held — pf::Mutex is not "
                                 f"recursive"),
                        why=WHY, function=fn.qualified,
                        snippet=f"relock {node} in {fn.qualified}"))
                    continue
                for h in held:
                    graph.add_edge(h, node, site(line))
                held.add(node)
                acquired_anywhere.add(node)
            # Calls made while holding locks: nest the callee's summary.
            if held:
                for c in s.calls:
                    if c.name in ("Lock", "Unlock", "TryLock"):
                        continue
                    targets = call_index.get(c.name, [])
                    if len(targets) != 1:
                        continue  # Ambiguous or unknown callee: skip.
                    for inner in callee_summary.get(targets[0], set()):
                        for h in held:
                            graph.add_edge(h, inner, site(c.line))
            walk(s.body, held)
            walk(s.orelse, held)

    walk(fn.body, entry)
    return acquired_anywhere


def build_graph(model: SourceModel, findings: List[Finding]) -> LockGraph:
    graph = LockGraph()
    # Seed the node set with every known mutex field so the doc lists
    # leaf mutexes that never nest.
    for f in model.fields:
        if _is_mutex_field(f.type_text) and f.cls not in _PRIMITIVE_CLASSES:
            name = f"{f.cls}::{f.name}" if f.cls else f.name
            graph.nodes.add(name)

    # Name-resolved call index: callee name -> qualified functions.
    call_index: Dict[str, List[str]] = {}
    for fn in model.functions:
        call_index.setdefault(fn.name, [])
        if fn.qualified not in call_index[fn.name]:
            call_index[fn.name].append(fn.qualified)

    # Fixpoint on transitive acquired-lock summaries.
    summary: Dict[str, Set[str]] = {fn.qualified: set() for fn in model.functions}
    direct: Dict[str, Set[str]] = {}
    scratch: List[Finding] = []
    for fn in model.functions:
        if fn.cls in _PRIMITIVE_CLASSES:
            direct[fn.qualified] = set()
            continue
        direct[fn.qualified] = _scan_function(
            fn, model, LockGraph(), {}, {}, scratch)
    changed = True
    while changed:
        changed = False
        for fn in model.functions:
            acc = set(direct.get(fn.qualified, set()))
            for s in (walk for st in fn.body for walk in _stmts(st)):
                for c in s.calls:
                    targets = call_index.get(c.name, [])
                    if len(targets) == 1:
                        acc |= summary.get(targets[0], set())
            if acc - summary[fn.qualified]:
                summary[fn.qualified] |= acc
                changed = True

    # Real pass: record edges, now with callee summaries available.
    for fn in model.functions:
        if fn.cls in _PRIMITIVE_CLASSES:
            continue
        _scan_function(fn, model, graph, summary, call_index, findings)
    return graph


def _stmts(stmt: Stmt):
    yield stmt
    for b in stmt.body:
        yield from _stmts(b)
    for b in stmt.orelse:
        yield from _stmts(b)


def run(model: SourceModel, config) -> List[Finding]:
    findings: List[Finding] = []
    graph = build_graph(model, findings)
    for cycle in graph.find_cycles():
        arrows = " -> ".join(cycle + [cycle[0]])
        witness_bits = []
        for a, b in zip(cycle, cycle[1:] + [cycle[0]]):
            sites = graph.edges.get((a, b), [])
            if sites:
                witness_bits.append(f"{a} -> {b} at {sites[0]}")
        anchor = graph.edges.get((cycle[0], cycle[1 % len(cycle)]), [""])
        line = 0
        file = ""
        if anchor and anchor[0]:
            loc = anchor[0].split(" via ")[0]
            file, _, ln = loc.rpartition(":")
            line = int(ln) if ln.isdigit() else 0
        findings.append(Finding(
            rule="lock-order", file=file or "(graph)", line=line,
            message=(f"lock acquisition cycle {arrows} "
                     f"({'; '.join(witness_bits)}) — a consistent global "
                     f"order must be chosen and enforced"),
            why=WHY, snippet=f"cycle {arrows}"))
    if config.lock_order_doc:
        write_doc(config.lock_order_doc, graph, model)
    return findings


def _topo_order(graph: LockGraph) -> List[str]:
    """Kahn's algorithm; on a cycle, remaining nodes append sorted."""
    indeg = {n: 0 for n in graph.nodes}
    for (_, b) in graph.edges:
        indeg[b] = indeg.get(b, 0) + 1
    ready = sorted(n for n, d in indeg.items() if d == 0)
    order: List[str] = []
    while ready:
        n = ready.pop(0)
        order.append(n)
        for m in graph.successors(n):
            indeg[m] -= 1
            if indeg[m] == 0:
                ready.append(m)
        ready.sort()
    order.extend(sorted(n for n in graph.nodes if n not in order))
    return order


def write_doc(path: str, graph: LockGraph, model: SourceModel) -> None:
    lines = [
        "# Lock order",
        "",
        "<!-- Generated by tools/pf_analyzer (lock-order pass). Do not edit",
        "     by hand: regenerate with",
        "     `python3 tools/pf_analyzer --rules lock-order "
        "--lock-order-doc docs/LOCK_ORDER.md`. -->",
        "",
        "Derived from `MutexLock` sites, explicit `Lock()/Unlock()` calls,",
        "and `PF_REQUIRES` annotations across the tree. An edge `A -> B`",
        "means B is acquired while A is held; the graph must stay acyclic.",
        "",
        "## Global acquisition order",
        "",
    ]
    for i, n in enumerate(_topo_order(graph), 1):
        lines.append(f"{i}. `{n}`")
    lines += ["", "## Nesting edges", ""]
    if graph.edges:
        lines.append("| held | acquired | witness |")
        lines.append("|---|---|---|")
        for (a, b) in sorted(graph.edges):
            w = graph.edges[(a, b)][0]
            lines.append(f"| `{a}` | `{b}` | {w} |")
    else:
        lines.append("(no nested acquisitions found)")
    lines += ["", "## Mutexes and what they guard", ""]
    lines.append("| mutex | guarded state |")
    lines.append("|---|---|")
    by_mutex: Dict[str, List[str]] = {}
    for f in model.fields:
        if not f.guarded_by:
            continue
        holder = model.find_field(f.guarded_by.strip().lstrip("*&"), f.cls)
        if holder is None:
            continue
        key = f"{holder.cls}::{holder.name}" if holder.cls else holder.name
        by_mutex.setdefault(key, []).append(f"`{f.name}`")
    for n in _topo_order(graph):
        guarded = ", ".join(sorted(by_mutex.get(n, []))) or "—"
        lines.append(f"| `{n}` | {guarded} |")
    for n in sorted(by_mutex):
        if n not in graph.nodes:
            guarded = ", ".join(sorted(by_mutex[n]))
            lines.append(f"| `{n}` | {guarded} |")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
