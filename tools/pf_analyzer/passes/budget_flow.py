"""budget-flow: every release is dominated by a Theorem 4.4 budget charge,
and admission (permit acquisition) precedes the charge.

The serving contract (PR 2 pricing, PR 8 shed-before-charge ordering):

  1. On every path through Session/PrivacyEngine that reaches a release
     site — a noise release (`ReleaseVector`), the one execute body
     (`ExecuteBatchPlan`), or an executor enqueue (`executor().Submit`) — a
     budget charge (`Charge` / `RecordStrict` / `RecordReleaseStrict` /
     `RecordBatchStrict` / `ComposedBudgetAdmits`) must already have
     happened. An uncharged path
     is a privacy bug: noise goes out without the ledger recording it.

  2. In any function that acquires an executor permit (`TryAcquire`),
     every charge must be dominated by a permit acquisition: shedding
     happens BEFORE the ledger is touched, so a shed request never debits
     epsilon.

Escape: `// pf:allow(budget-flow): <why>` on the site, for release sites
whose charge is structurally upstream (e.g. a task body that only runs
with an already-charged ticket).
"""

from typing import List, Set

from ..findings import Finding
from ..ir import Function, SourceModel, Stmt
from . import dataflow

WHY = ("every release must be dominated by a Theorem 4.4 budget charge, "
       "and permit acquisition must precede the charge (shed-before-charge)")

RELEASE_CALLS = {"ExecuteBatchPlan", "ReleaseVector"}
ENQUEUE_CALL = "Submit"  # Only on a receiver mentioning the executor.
CHARGE_CALLS = {"Charge", "RecordStrict", "RecordReleaseStrict",
                "RecordBatchStrict", "ComposedBudgetAdmits"}
PERMIT_CALLS = {"TryAcquire"}


def _is_release_call(call) -> bool:
    if call.name in RELEASE_CALLS:
        return True
    return call.name == ENQUEUE_CALL and "executor" in call.receiver


def _facts(stmt: Stmt) -> Set[str]:
    out = set()
    for c in stmt.calls:
        if c.name in CHARGE_CALLS:
            out.add("charge")
        if c.name in PERMIT_CALLS:
            out.add("permit")
    return out


def _check_function(fn: Function, findings: List[Finding]):
    has_permit = any(
        c.name in PERMIT_CALLS
        for s in _all_stmts(fn.body) for c in s.calls)

    def visit(stmt: Stmt, facts: Set[str]):
        for c in stmt.calls:
            if _is_release_call(c) and "charge" not in facts:
                # The charge-call definitions themselves are not release
                # paths, and a release in the same statement as its charge
                # is ordered by the expression, which we cannot see — only
                # flag cross-statement violations.
                if any(cc.name in CHARGE_CALLS for cc in stmt.calls):
                    continue
                findings.append(Finding(
                    rule="budget-flow", file=fn.file, line=c.line,
                    message=(f"release/enqueue site `{c.qualified}(...)` in "
                             f"{fn.qualified} is not dominated by a budget "
                             f"charge ({'/'.join(sorted(CHARGE_CALLS))})"),
                    why=WHY, function=fn.qualified,
                    snippet=f"release {c.qualified} in {fn.qualified}"))
            if has_permit and c.name in CHARGE_CALLS and "permit" not in facts:
                findings.append(Finding(
                    rule="budget-flow", file=fn.file, line=c.line,
                    message=(f"budget charge `{c.qualified}(...)` in "
                             f"{fn.qualified} precedes admission — a permit "
                             f"({'/'.join(sorted(PERMIT_CALLS))}) must be "
                             f"acquired before the charge so shed requests "
                             f"never debit epsilon"),
                    why=WHY, function=fn.qualified,
                    snippet=f"charge-before-permit {c.qualified} in {fn.qualified}"))

    dataflow.scan(fn.body, set(), _facts, visit)


def _all_stmts(stmts):
    from ..ir import walk_stmts
    return list(walk_stmts(stmts))


def run(model: SourceModel, config) -> List[Finding]:
    findings: List[Finding] = []
    for fn in model.functions:
        in_scope = (fn.cls in config.budget_classes or
                    config.all_files_in_scope)
        if not in_scope:
            continue
        # The charge implementation itself prices-and-records; it contains
        # the charge calls but is not a release path.
        _check_function(fn, findings)
    return findings
