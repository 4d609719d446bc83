#!/usr/bin/env python3
"""ctest driver for tools/pf_analyzer: proves every pass fires and stays
quiet, end to end through the real CLI.

  1. Fixture pairs: for each rule, the known-bad fixture MUST produce at
     least one finding of that rule (exit 1) and the clean twin MUST be
     clean (exit 0). This keeps the analyzer honest in both directions — a
     pass that stops firing or starts over-firing fails the suite.
  2. Tree-clean: the analyzer over the real tree (default targets, the
     checked-in baseline) must exit 0 — the repo holds its own invariants.
  3. Regex fallback: --regex-only must be clean too, so hosts without
     libclang keep a working linter.
  4. Lock-order doc freshness: docs/LOCK_ORDER.md must match what the
     lock-order pass generates from the current sources.
  5. Marker migration: no stale `lint:allow` markers remain under src/
     (pf:allow is the only spelling the analyzer honors).
"""

import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
ANALYZER = os.path.join(REPO, "tools", "pf_analyzer")
FIXTURES = os.path.join(HERE, "fixtures")

failures = []


def check(name, ok, detail=""):
    status = "ok" if ok else "FAIL"
    print(f"[{status}] {name}")
    if not ok:
        failures.append(name)
        if detail:
            print(detail)


def run(args):
    proc = subprocess.run(
        [sys.executable, ANALYZER] + args,
        cwd=REPO, capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def fixture(name):
    return os.path.join(FIXTURES, name)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        no_baseline = os.path.join(tmp, "absent_baseline.json")

        # 1. Fixture pairs: (label, rules, extra flags, bad file, good file,
        #    rule tags that must all appear in the bad output).
        pairs = [
            ("budget-flow", "budget-flow", ["--all-files-in-scope"],
             "budget_flow_bad.cc", "budget_flow_good.cc", ["[budget-flow]"]),
            ("budget-flow plan", "budget-flow", ["--all-files-in-scope"],
             "budget_flow_plan_bad.cc", "budget_flow_plan_good.cc",
             ["[budget-flow]"]),
            ("determinism", "determinism", ["--pin-files", "determinism_"],
             "determinism_bad.cc", "determinism_good.cc", ["[determinism]"]),
            ("lock-order", "lock-order", [],
             "lock_order_bad.cc", "lock_order_good.cc", ["[lock-order]"]),
            ("no-throw", "no-throw", ["--all-files-in-scope"],
             "no_throw_bad.cc", "no_throw_good.cc", ["[no-throw]"]),
            ("text-rules", ",".join([
                "unseeded-randomness", "fast-math-fma", "naked-new-delete",
                "value-or-die", "raw-mutex", "no-abort", "noise-site"]),
             ["--all-files-in-scope", "--regex-only"],
             "text_rules_bad.cc", "text_rules_good.cc",
             ["[unseeded-randomness]", "[fast-math-fma]",
              "[naked-new-delete]", "[value-or-die]", "[raw-mutex]",
              "[no-abort]", "[noise-site]"]),
        ]
        for label, rules, flags, bad, good, tags in pairs:
            base = ["--rules", rules, "--baseline", no_baseline] + flags
            code, out = run([fixture(bad)] + base)
            missing = [t for t in tags if t not in out]
            check(f"{label}: bad fixture trips",
                  code == 1 and not missing,
                  f"  exit={code} missing={missing}\n{out}")
            code, out = run([fixture(good)] + base)
            check(f"{label}: good twin stays clean", code == 0,
                  f"  exit={code}\n{out}")

        # Specific findings the bad fixtures must contain (sharper than
        # "some finding of the rule"): each models a real bug class.
        code, out = run([fixture("budget_flow_bad.cc"), "--rules",
                         "budget-flow", "--all-files-in-scope",
                         "--baseline", no_baseline])
        check("budget-flow: detects uncharged release",
              "ReleaseVector" in out and "not dominated" in out, out)
        check("budget-flow: detects charge-before-permit",
              "precedes admission" in out, out)
        code, out = run([fixture("budget_flow_plan_bad.cc"), "--rules",
                         "budget-flow", "--all-files-in-scope",
                         "--baseline", no_baseline])
        check("budget-flow: detects uncharged ExecuteBatchPlan",
              "ExecuteBatchPlan" in out and "not dominated" in out, out)
        code, out = run([fixture("lock_order_bad.cc"), "--rules",
                         "lock-order", "--baseline", no_baseline])
        check("lock-order: detects AB/BA cycle", "cycle" in out, out)
        check("lock-order: detects relock", "re-acquired" in out, out)
        code, out = run([fixture("no_throw_bad.cc"), "--rules", "no-throw",
                         "--all-files-in-scope", "--baseline", no_baseline])
        for marker in ("throw", "out_of_range", "ValueOrDie", "stoi",
                       "ParseHeader"):
            check(f"no-throw: detects {marker}", marker in out, out)

        # 2. The real tree holds its own invariants.
        code, out = run([])
        check("tree-clean: analyzer over src/ is clean", code == 0, out)

        # 3. Regex fallback path.
        code, out = run(["--regex-only"])
        check("regex-only over src/ is clean", code == 0, out)

        # 4. The checked-in lock-order doc matches the sources.
        doc = os.path.join(REPO, "docs", "LOCK_ORDER.md")
        regen = os.path.join(tmp, "LOCK_ORDER.md")
        code, out = run(["--rules", "lock-order", "--lock-order-doc", regen])
        ok = False
        detail = out
        if os.path.isfile(doc) and os.path.isfile(regen):
            with open(doc, encoding="utf-8") as f:
                want = f.read()
            with open(regen, encoding="utf-8") as f:
                got = f.read()
            ok = want == got
            if not ok:
                detail = ("docs/LOCK_ORDER.md is stale; regenerate with:\n"
                          "  python3 tools/pf_analyzer --rules lock-order "
                          "--lock-order-doc docs/LOCK_ORDER.md")
        check("lock-order doc is fresh", ok, detail)

        # 5. Marker migration: src/ uses the pf:allow spelling only.
        stale = []
        for dirpath, _, files in os.walk(os.path.join(REPO, "src")):
            for name in files:
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8", errors="replace") as f:
                    for i, line in enumerate(f, 1):
                        if re.search(r"lint:allow\(", line):
                            rel = os.path.relpath(path, REPO)
                            stale.append(f"{rel}:{i}")
        check("no stale lint:allow markers in src/", not stale,
              "  " + "\n  ".join(stale))

    if failures:
        print(f"\n{len(failures)} analyzer test(s) failed")
        return 1
    print("\nall analyzer tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
