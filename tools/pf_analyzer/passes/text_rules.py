"""The line-regex rules: unseeded-randomness, fast-math-fma,
naked-new-delete, value-or-die, raw-mutex, no-abort and noise-site.

These are line-regex rules over comment/string-stripped source — the
invariants that need no parse (and must keep working on hosts with no
libclang, via `--regex-only`). A `pf:allow(<rule>)` marker exempts a line.
"""

import os
import re
from typing import List

from ..findings import Finding
from ..ir import SourceModel

CXX_EXTENSIONS = (".cc", ".cpp", ".h", ".hpp")


def strip_code(line):
    """Removes string/char literals and // comments from one line."""
    out = []
    i = 0
    n = len(line)
    while i < n:
        c = line[i]
        if c == '"' or c == "'":
            quote = c
            out.append(" ")
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    i += 1
                    break
                i += 1
            continue
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break  # Rest of line is a comment.
        out.append(c)
        i += 1
    return "".join(out)


def code_lines(text):
    """Yields (lineno, raw_line, code_only_line) with comments/strings gone."""
    in_block_comment = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw
        if in_block_comment:
            end = line.find("*/")
            if end < 0:
                yield lineno, raw, ""
                continue
            line = " " * (end + 2) + line[end + 2:]
            in_block_comment = False
        line = strip_code(line)
        while True:
            start = line.find("/*")
            if start < 0:
                break
            end = line.find("*/", start + 2)
            if end < 0:
                line = line[:start]
                in_block_comment = True
                break
            line = line[:start] + " " * (end + 2 - start) + line[end + 2:]
        yield lineno, raw, line


class TextRule:
    def __init__(self, name, pattern, applies, why):
        self.name = name
        self.pattern = re.compile(pattern)
        self.applies = applies  # predicate over repo-relative path
        self.why = why


def in_src(path):
    return path.startswith("src/") and path.endswith(CXX_EXTENSIONS)


# The files that may draw Laplace noise: the sampler itself, the two release
# functions of the plan (ReleaseVector, ReleaseBatchColumnar), and the
# columnar noise kernel they call.
NOISE_SITES = ("src/common/random.h", "src/common/random.cc",
               "src/pufferfish/mechanism.cc", "src/engine/batch_kernels.cc")


TEXT_RULES = [
    TextRule(
        "unseeded-randomness",
        r"std::random_device|\b(?:std::)?s?rand\s*\(",
        in_src,
        "determinism: noise must come from explicitly seeded pf::Rng",
    ),
    TextRule(
        "fast-math-fma",
        r"-ffast-math|__builtin_fmaf?\b|std::fmaf?\b|_mm\d*_fn?m(?:add|sub)_|\bvfmaq?\b",
        lambda p: in_src(p) or os.path.basename(p) == "CMakeLists.txt",
        "pinned summation order: FMA contraction breaks SIMD/scalar "
        "bit-identity",
    ),
    TextRule(
        "naked-new-delete",
        r"(?<![\w.:])new\s+[A-Za-z_:(]|(?<![\w.:])delete(?:\s*\[\s*\])?\s+[A-Za-z_(*]",
        lambda p: in_src(p) and p != "src/common/arena.cc",
        "ownership goes through Arena / make_unique / make_shared",
    ),
    TextRule(
        "value-or-die",
        r"\.ValueOrDie\s*\(",
        in_src,
        "library paths reachable from user input must propagate "
        "Status/Result, not abort",
    ),
    TextRule(
        "raw-mutex",
        r"std::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|lock_guard|"
        r"unique_lock|shared_lock|scoped_lock|condition_variable(?:_any)?)\b"
        r"|#\s*include\s*<(?:mutex|shared_mutex|condition_variable)>",
        lambda p: in_src(p) and p != "src/common/thread_annotations.h",
        "locking goes through the capability-annotated pf::Mutex wrappers "
        "(common/thread_annotations.h) so -Wthread-safety sees it",
    ),
    TextRule(
        "no-abort",
        r"\b(?:std::)?(?:abort|_Exit|quick_exit)\s*\(|\b(?:std::)?exit\s*\(",
        in_src,
        "fallible serving paths return typed Status, never kill the process",
    ),
    TextRule(
        "noise-site",
        r"\bAddLaplaceNoise\s*\(|\bLaplaceInverseCdf\s*\("
        r"|(?:\.|->)Laplace\s*\(",
        lambda p: in_src(p) and p not in NOISE_SITES,
        "noise is added only by ReleaseVector / ReleaseBatchColumnar "
        "(pufferfish/mechanism.h), so every release is one audited primitive",
    ),
]


def run_rule(rule: TextRule, model: SourceModel, config) -> List[Finding]:
    findings: List[Finding] = []
    for relpath, text in sorted(model.file_text.items()):
        # Fixture mode widens the path scoping (but keeps the exemptions'
        # spirit: fixtures live outside src/, so only the flag admits them).
        if not rule.applies(relpath) and not (
                config.all_files_in_scope and relpath.endswith(CXX_EXTENSIONS)):
            continue
        for lineno, raw, code in code_lines(text):
            if rule.pattern.search(code):
                findings.append(Finding(
                    rule=rule.name, file=relpath, line=lineno,
                    message=raw.strip(),
                    why=rule.why,
                    snippet=raw.strip()))
    return findings


def make_runner(rule: TextRule):
    def run(model: SourceModel, config) -> List[Finding]:
        return run_rule(rule, model, config)
    return run
