"""The frontend-neutral IR every pf_analyzer pass consumes.

Both frontends (clang_frontend via libclang, syntax_frontend via the
builtin tokenizer) lower C++ into this shape, so each semantic pass is
written exactly once and behaves identically whichever frontend parsed the
file. The IR is deliberately small: passes need function boundaries,
statement structure (for path/dominance reasoning), calls, declarations,
and lock/annotation sites — not a full AST.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional

# ---------------------------------------------------------------------------
# Statements. A function body is a list of Stmt; compound structure is kept
# only where it changes path reasoning (branches, loops, switches, returns).
# ---------------------------------------------------------------------------


@dataclass
class Call:
    """One call site: `name(args)` or `recv.name(args)` / `recv->name(args)`.

    `name` is the unqualified callee (`Charge`), `qualified` keeps any
    explicit qualifier chain (`Status::OK`, `engine_->executor().Submit`),
    and `receiver` the textual receiver (`engine_->executor()`), empty for
    free calls. `arg_text` is the flattened argument source text.
    """

    name: str
    qualified: str
    receiver: str
    arg_text: str
    line: int


@dataclass
class Decl:
    """One local declaration: `Type name(init)` / `Type name = init`."""

    name: str
    type_text: str
    init_text: str
    line: int


@dataclass
class Stmt:
    """One statement node.

    kind is one of:
      'simple'   flat statement; carries calls/decls and the raw text
      'block'    `{ ... }` — children in `body`
      'if'       cond in `head_text`, then-branch in `body`, else in `orelse`
      'loop'     for/while/do — body in `body`, header text in `head_text`
      'switch'   body in `body` (case structure flattened)
      'return'   carries calls in the returned expression
      'break' / 'continue' / 'goto'
    """

    kind: str
    line: int
    head_text: str = ""
    text: str = ""
    calls: List[Call] = field(default_factory=list)
    decls: List[Decl] = field(default_factory=list)
    body: List["Stmt"] = field(default_factory=list)
    orelse: List["Stmt"] = field(default_factory=list)


@dataclass
class Function:
    """One function definition with a body."""

    name: str  # Unqualified: 'Enqueue'.
    qualified: str  # 'pf::Session::Enqueue'.
    cls: str  # Enclosing class ('Session'), '' for free functions.
    file: str  # Repo-relative path.
    line: int
    body: List[Stmt] = field(default_factory=list)
    # Capabilities from PF_REQUIRES(...) on the definition or a matching
    # declaration; lock names as written ('mutex_').
    requires: List[str] = field(default_factory=list)
    # Raw parameter list text (for ticket/capability-style heuristics).
    params_text: str = ""
    return_type: str = ""
    is_public: bool = True


@dataclass
class FieldInfo:
    """One class member variable, as parsed from a header or class body."""

    cls: str
    name: str
    type_text: str
    file: str
    line: int
    guarded_by: str = ""  # PF_GUARDED_BY(x) argument, if any.


@dataclass
class MethodDecl:
    """A method *declaration* (no body) — carries annotations from headers."""

    cls: str
    name: str
    file: str
    line: int
    return_type: str = ""
    requires: List[str] = field(default_factory=list)
    excludes: List[str] = field(default_factory=list)
    is_public: bool = True


@dataclass
class SourceModel:
    """Everything the frontends extracted from one set of files."""

    functions: List[Function] = field(default_factory=list)
    fields: List[FieldInfo] = field(default_factory=list)
    method_decls: List[MethodDecl] = field(default_factory=list)
    # file -> {line -> set(rule names allowed)} from pf:allow markers.
    allows: Dict[str, Dict[int, set]] = field(default_factory=dict)
    # file -> raw text (for text rules and reporting).
    file_text: Dict[str, str] = field(default_factory=dict)
    # Which frontend produced each file's functions: 'clang' or 'syntax'.
    frontend: Dict[str, str] = field(default_factory=dict)

    def fields_of(self, cls: str) -> List[FieldInfo]:
        return [f for f in self.fields if f.cls == cls]

    def find_field(self, name: str, cls: str = "") -> Optional[FieldInfo]:
        """Resolves a member name, preferring the given class, else any
        unique match across all parsed classes."""
        if cls:
            for f in self.fields:
                if f.cls == cls and f.name == name:
                    return f
        matches = [f for f in self.fields if f.name == name]
        if len(matches) == 1:
            return matches[0]
        return None


def walk_stmts(stmts):
    """Yields every Stmt in a subtree, depth-first, pre-order."""
    for s in stmts:
        yield s
        yield from walk_stmts(s.body)
        yield from walk_stmts(s.orelse)


def stmt_calls(stmts):
    """Yields every Call in a subtree."""
    for s in walk_stmts(stmts):
        yield from s.calls
