"""pf_analyzer command line.

    python3 tools/pf_analyzer [FILE...]             # default: src/ + CMakeLists.txt
    python3 tools/pf_analyzer --compdb build/compile_commands.json
    python3 tools/pf_analyzer --regex-only          # text rules only (no parse)
    python3 tools/pf_analyzer --list-rules
    python3 tools/pf_analyzer --update-baseline     # re-justify current findings

Exit status: 0 clean, 1 findings, 2 usage/internal error.

Findings are filtered in order: inline `pf:allow(<rule>): why` markers,
then the checked-in baseline (tools/pf_analyzer/baseline.json). What
survives is an error.
"""

import argparse
import os
import sys

from . import clang_frontend, compdb, syntax_frontend
from .config import AnalyzerConfig
from .findings import Baseline, is_allowed
from .ir import SourceModel
from .lexer import ALLOW_RE
from .passes import REGISTRY, rule_names

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
DEFAULT_BASELINE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "baseline.json")


def build_model(files, file_args, args, root):
    """Parses every file with the syntax frontend, then (unless disabled)
    upgrades bodies with libclang where it loads and parses."""
    model = SourceModel()
    relpaths = []
    for f in files:
        abspath = f if os.path.isabs(f) else os.path.join(root, f)
        rel = os.path.relpath(os.path.abspath(abspath), root).replace(os.sep, "/")
        if not os.path.isfile(abspath):
            continue  # Changed-files mode may name deleted files.
        with open(abspath, "r", encoding="utf-8", errors="replace") as fh:
            text = fh.read()
        model.file_text[rel] = text
        relpaths.append(rel)
        # Allow markers are collected for every file regardless of mode, so
        # --regex-only honors the same pf:allow suppressions.
        for lineno, line in enumerate(text.splitlines(), start=1):
            for m in ALLOW_RE.finditer(line):
                model.allows.setdefault(rel, {}).setdefault(
                    lineno, set()).add(m.group(1))
        if args.regex_only or not rel.endswith(compdb.CXX_EXTENSIONS):
            continue
        syntax_frontend.parse_file(rel, text, model)
        model.frontend[rel] = "syntax"
    if not args.regex_only and not args.syntax_only and clang_frontend.available():
        for rel in relpaths:
            if not rel.endswith(compdb.CXX_EXTENSIONS):
                continue
            flags = file_args.get(rel, [])
            clang_frontend.parse_file(
                rel, os.path.join(root, rel), flags, model, root)
    return model


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="pf_analyzer", description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*",
                        help="files to analyze (default: src/ + CMakeLists.txt)")
    parser.add_argument("--compdb", metavar="PATH",
                        help="compile_commands.json; file list + clang flags")
    parser.add_argument("--regex-only", action="store_true",
                        help="run only the text rules (no C++ parse at all)")
    parser.add_argument("--syntax-only", action="store_true",
                        help="use the builtin frontend even if libclang loads")
    parser.add_argument("--rules", metavar="R1,R2",
                        help="comma-separated rule subset")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--baseline", metavar="PATH", default=DEFAULT_BASELINE)
    parser.add_argument("--update-baseline", action="store_true",
                        help="write current findings to the baseline and exit 0")
    parser.add_argument("--lock-order-doc", metavar="PATH",
                        help="write the generated lock-order doc here")
    parser.add_argument("--pin-files", metavar="FRAG1,FRAG2",
                        help="extra path fragments pinned for determinism")
    parser.add_argument("--all-files-in-scope", action="store_true",
                        help="fixture mode: ignore class/path scoping")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as JSON")
    parser.add_argument("--fingerprints", action="store_true",
                        help="show each finding's baseline fingerprint")
    args = parser.parse_args(argv)

    if args.list_rules:
        for name in sorted(REGISTRY):
            runner, why, semantic = REGISTRY[name]
            kind = "semantic" if semantic else "text"
            print(f"{name} ({kind}): {why}")
        return 0

    selected = sorted(REGISTRY)
    if args.rules:
        selected = [r.strip() for r in args.rules.split(",") if r.strip()]
        unknown = [r for r in selected if r not in REGISTRY]
        if unknown:
            print(f"error: unknown rule(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2
    if args.regex_only:
        semantic_dropped = [r for r in selected if REGISTRY[r][2]]
        selected = [r for r in selected if not REGISTRY[r][2]]
        if semantic_dropped and args.rules:
            print(f"note: --regex-only skips semantic rule(s): "
                  f"{', '.join(semantic_dropped)}", file=sys.stderr)

    config = AnalyzerConfig()
    if args.pin_files:
        config.pinned_files.extend(
            p.strip() for p in args.pin_files.split(",") if p.strip())
    config.all_files_in_scope = args.all_files_in_scope
    if args.lock_order_doc:
        config.lock_order_doc = args.lock_order_doc

    file_args = {}
    if args.compdb:
        try:
            files, file_args = compdb.load_compdb(args.compdb, REPO_ROOT)
        except (OSError, ValueError, KeyError) as e:
            print(f"error: cannot load compdb {args.compdb}: {e}",
                  file=sys.stderr)
            return 2
    elif args.files:
        files = args.files
    else:
        files = compdb.default_targets(REPO_ROOT)

    try:
        model = build_model(files, file_args, args, REPO_ROOT)
    except Exception as e:
        print(f"error: analysis failed: {e}", file=sys.stderr)
        return 2

    findings = []
    for name in selected:
        runner, _, _ = REGISTRY[name]
        findings.extend(runner(model, config))

    findings = [f for f in findings if not is_allowed(f, model.allows)]
    findings.sort(key=lambda f: (f.file, f.line, f.rule, f.fingerprint()))

    if args.update_baseline:
        Baseline.write(args.baseline, findings)
        print(f"pf_analyzer: baseline updated with {len(findings)} "
              f"finding(s) -> {args.baseline}")
        return 0

    baseline = Baseline.load(args.baseline)
    new = [f for f in findings if not baseline.contains(f)]

    if args.json:
        import json
        print(json.dumps([f.to_json() for f in new], indent=2))
        return 1 if new else 0

    frontends = sorted(set(model.frontend.values()))
    mode = ("regex" if args.regex_only else "+".join(frontends) or "regex")
    if new:
        print(f"pf_analyzer: {len(new)} finding(s) "
              f"({len(findings) - len(new)} baselined, frontend: {mode})\n")
        for f in new:
            print(f.format(show_fingerprint=args.fingerprints))
        print(
            "\nFix it, or suppress deliberately:\n"
            "  inline:   ... // pf:allow(<rule>): <why this is sound>\n"
            "  baseline: python3 tools/pf_analyzer --update-baseline "
            "(justify in review)")
        return 1
    print(f"pf_analyzer: clean ({len(model.file_text)} file(s), "
          f"{len(selected)} rule(s), frontend: {mode}, "
          f"{len(findings)} baselined)")
    return 0
