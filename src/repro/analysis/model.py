"""Core datatypes of the lint engine: findings, rules, pragmas.

A :class:`Finding` is one rule violation at one source location.  Its
:attr:`~Finding.fingerprint` deliberately excludes the line number, so
baseline entries survive unrelated edits above the flagged site: two
findings are "the same" when they are the same rule, in the same file,
inside the same enclosing function/class, on the same (whitespace-
normalized) source line.  Several identical lines in one scope fold
into one fingerprint with a count — the baseline stores counts, and a
*new* occurrence beyond the baselined count still fails.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator

__all__ = ["Finding", "Rule", "fingerprint_counts", "pragma_allows"]

#: Inline suppression pragma: ``# lint: allow[<rule>] why this is fine``,
#: either trailing the flagged line or as a standalone comment on the
#: line directly above it.  ``allow[*]`` suppresses every rule on the
#: line.  Pragmas are for *sanctioned* sites (reviewed, permanently
#: fine); temporary debt goes in the baseline instead, where it burns
#: down.
_PRAGMA = re.compile(r"#\s*lint:\s*allow\[([A-Z0-9*,\s]+)\]")


def pragma_allows(line: str) -> frozenset:
    """The rule IDs an inline pragma on ``line`` suppresses (may be ``*``)."""
    match = _PRAGMA.search(line)
    if not match:
        return frozenset()
    return frozenset(
        token.strip() for token in match.group(1).split(",") if token.strip()
    )


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str  # scan-root-relative posix path
    line: int  # 1-based
    col: int  # 0-based
    rule: str  # e.g. "DET001"
    message: str
    hint: str  # how to fix (or sanction) it
    context: str  # enclosing qualname, e.g. "ChannelShard.__init__"
    snippet: str  # the flagged source line, stripped

    @property
    def fingerprint(self) -> str:
        """Line-number-independent identity used by the baseline."""
        snippet = " ".join(self.snippet.split())
        return f"{self.path}::{self.rule}::{self.context}::{snippet}"

    def location(self) -> str:
        return f"{self.path}:{self.line}"


def fingerprint_counts(findings: Iterable[Finding]) -> Dict[str, int]:
    """Histogram of finding fingerprints (the baseline's payload)."""
    counts: Dict[str, int] = {}
    for finding in findings:
        counts[finding.fingerprint] = counts.get(finding.fingerprint, 0) + 1
    return counts


@dataclass
class Rule:
    """One checker: an ID, documentation, and a check function.

    ``check`` receives the whole :class:`~repro.analysis.visitor.Project`
    plus the :class:`~repro.analysis.rules.LintConfig` (even purely
    local rules — uniformity keeps the engine loop trivial) and yields
    :class:`Finding`\\ s.  Pragma suppression and baseline matching
    happen in the engine, not in rules.
    """

    rule_id: str
    title: str
    doc: str  # one-paragraph rationale for the catalog
    hint: str  # default fix hint
    check: "object" = field(repr=False, default=None)  # (project, config)

    def run(self, project, config) -> Iterator[Finding]:
        return self.check(project, config)
