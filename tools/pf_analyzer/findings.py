"""Finding representation, pf:allow suppression, and the findings baseline.

One findings format serves every rule — semantic passes and the folded
text rules alike — so CI, the baseline, and humans all read one shape:

    src/engine/session.cc:207: [budget-flow] <message>
        invariant: <why the rule exists>

Suppression: an inline `// pf:allow(<rule>): <why>` marker on the
finding's line (or the line directly above, for markers that need a full
comment line) exempts that line from <rule>.

Baseline: a checked-in JSON list of finding fingerprints that are known
and justified. Fingerprints hash (rule, file, function, normalized
snippet) — NOT the line number — so unrelated edits above a baselined
finding do not invalidate it, while any change to the flagged code does.
"""

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Set


@dataclass
class Finding:
    rule: str
    file: str
    line: int
    message: str
    why: str = ""  # The invariant the rule enforces (rule-level).
    function: str = ""  # Qualified function, when the pass knows it.
    snippet: str = ""  # Normalized source fragment for fingerprinting.

    def fingerprint(self) -> str:
        basis = "|".join(
            (self.rule, self.file, self.function,
             " ".join(self.snippet.split())))
        return hashlib.sha256(basis.encode("utf-8")).hexdigest()[:16]

    def format(self, show_fingerprint: bool = False) -> str:
        head = f"{self.file}:{self.line}: [{self.rule}] {self.message}"
        lines = [head]
        if self.why:
            lines.append(f"    invariant: {self.why}")
        if show_fingerprint:
            lines.append(f"    fingerprint: {self.fingerprint()}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "file": self.file,
            "line": self.line,
            "function": self.function,
            "message": self.message,
            "fingerprint": self.fingerprint(),
        }


# Marker names that also suppress a semantic rule at the same site: the
# folded text rules keep their historical names, and a site annotated for
# the narrow text rule is by the same argument exempt from the broader
# semantic rule (e.g. `pf:allow(value-or-die)` on a checked ValueOrDie
# also answers the no-throw pass).
RULE_ALIASES: Dict[str, Set[str]] = {
    "no-throw": {"value-or-die", "naked-new-delete", "no-abort"},
    "determinism": {"unseeded-randomness", "fast-math-fma"},
}


def is_allowed(finding: Finding, allows: Dict[str, Dict[int, Set[str]]]) -> bool:
    """True when an inline pf:allow marker exempts the finding
    (same line, or the line directly above for standalone comment lines)."""
    per_file = allows.get(finding.file, {})
    accepted = {finding.rule} | RULE_ALIASES.get(finding.rule, set())
    for line in (finding.line, finding.line - 1):
        if accepted & per_file.get(line, set()):
            return True
    return False


class Baseline:
    """The checked-in set of known, justified findings."""

    def __init__(self, entries: List[dict]):
        self.entries = entries
        self._by_fp = {e["fingerprint"]: e for e in entries}

    @classmethod
    def load(cls, path: str) -> "Baseline":
        if not os.path.isfile(path):
            return cls([])
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
        return cls(data.get("findings", []))

    def contains(self, finding: Finding) -> bool:
        return finding.fingerprint() in self._by_fp

    @staticmethod
    def write(path: str, findings: List[Finding], note: str = "") -> None:
        data = {
            "comment": note or (
                "pf_analyzer findings baseline: each entry is a known, "
                "justified finding. Prefer fixing or an inline pf:allow "
                "marker; baseline only what needs neither."),
            "findings": sorted(
                (f.to_json() for f in findings),
                key=lambda e: (e["rule"], e["file"], e["fingerprint"])),
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(data, f, indent=2)
            f.write("\n")
