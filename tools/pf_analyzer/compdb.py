"""compile_commands.json handling and default target discovery.

With a compdb the analyzer sees exactly what the build compiles (and, in
clang mode, each file's real flags); without one it walks src/, so the
tool works on a bare checkout.
"""

import json
import os
import shlex
from typing import Dict, List, Tuple

CXX_EXTENSIONS = (".cc", ".cpp", ".h", ".hpp")


def load_compdb(path: str, repo_root: str) -> Tuple[List[str], Dict[str, List[str]]]:
    """Returns (repo-relative file list, file -> clang args)."""
    with open(path, "r", encoding="utf-8") as f:
        entries = json.load(f)
    files: List[str] = []
    args: Dict[str, List[str]] = {}
    for e in entries:
        src = os.path.normpath(os.path.join(e.get("directory", ""), e["file"]))
        rel = os.path.relpath(src, repo_root).replace(os.sep, "/")
        if rel.startswith(".."):
            continue  # Outside the repo (system/generated files).
        if not rel.startswith("src/"):
            # The invariants govern library code; tests/bench/examples may
            # use ValueOrDie, .at(), etc. freely.
            continue
        if rel not in args:
            files.append(rel)
        if "arguments" in e:
            argv = list(e["arguments"])
        else:
            argv = shlex.split(e.get("command", ""))
        # Strip compiler, -c/-o pairs, and the input file itself: libclang
        # wants just the flags.
        flags: List[str] = []
        skip = False
        for a in argv[1:]:
            if skip:
                skip = False
                continue
            if a in ("-c",):
                continue
            if a == "-o":
                skip = True
                continue
            if os.path.normpath(os.path.join(e.get("directory", ""), a)) == src:
                continue
            flags.append(a)
        args[rel] = flags
    # Headers never appear in a compdb; include the tree's headers (so
    # annotations and fields from .h files are always in the model) and
    # CMakeLists.txt (the fast-math-fma rule scans build flags too).
    for rel in default_targets(repo_root):
        if (rel.endswith((".h", ".hpp")) or rel == "CMakeLists.txt") \
                and rel not in args:
            files.append(rel)
            args[rel] = []
    return files, args


def default_targets(repo_root: str) -> List[str]:
    targets: List[str] = []
    src = os.path.join(repo_root, "src")
    for dirpath, _, filenames in os.walk(src):
        for name in sorted(filenames):
            if name.endswith(CXX_EXTENSIONS):
                full = os.path.join(dirpath, name)
                targets.append(
                    os.path.relpath(full, repo_root).replace(os.sep, "/"))
    cml = os.path.join(repo_root, "CMakeLists.txt")
    if os.path.isfile(cml):
        targets.append("CMakeLists.txt")
    return sorted(targets)
