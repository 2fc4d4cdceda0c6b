"""The per-file AST pass: run rules, honor suppressions.

Suppression comments (a reason string after ``--`` is mandatory)::

    foo = links[hash(dst) % n]  # repro-lint: allow=DET004 -- int hashes
    # repro-lint: allow-file=API001 -- CDF inversion, not event ordering

``allow`` applies to findings reported on the same line; ``allow-file``
applies to the whole module.  A malformed suppression (missing reason)
is itself a finding (LINT000), and a suppression that matched nothing
is a finding too (LINT001) so stale exemptions get cleaned up.  A
suppression is the only exemption: every finding left fails the CLI.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.rules import RULES, LoadSites, ModuleContext

# Suppression comment grammar: "allow=ID[,ID...] -- reason" (line scope)
# or "allow-file=..." (module scope), after the marker prefix.
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(?P<scope>allow|allow-file)\s*=\s*"
    r"(?P<rules>[A-Z][A-Z0-9_]*(?:\s*,\s*[A-Z][A-Z0-9_]*)*)"
    r"(?:\s*--\s*(?P<reason>\S.*?))?\s*$"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    snippet: str

    def format_text(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }


@dataclass
class Report:
    """Findings plus scan bookkeeping, across all analyzed files."""

    findings: List[Finding]
    checked_files: int

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for f in self.findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        return dict(sorted(counts.items()))

    def as_dict(self) -> Dict[str, object]:
        return {
            "version": 1,
            "checked_files": self.checked_files,
            "summary": self.counts_by_rule(),
            "findings": [f.as_dict() for f in self.findings],
        }


@dataclass
class _Suppressions:
    by_line: Dict[int, Set[str]]
    file_wide: Set[str]
    used: Set[Tuple[str, int]]  # (rule, line) for by_line; (rule, 0) file-wide
    problems: List[Tuple[int, str]]  # malformed suppressions -> LINT000

    @classmethod
    def parse(cls, source: str) -> "_Suppressions":
        sup = cls(by_line={}, file_wide=set(), used=set(), problems=[])
        # Only real comment tokens count: a docstring that *documents*
        # the suppression syntax must not register as a suppression.
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
        except (tokenize.TokenError, IndentationError):  # pragma: no cover
            return sup
        for tok in tokens:
            if tok.type != tokenize.COMMENT or "repro-lint" not in tok.string:
                continue
            lineno, text = tok.start[0], tok.string
            match = _SUPPRESS_RE.search(text)
            if match is None:
                sup.problems.append(
                    (lineno, "malformed repro-lint suppression comment")
                )
                continue
            if not match.group("reason"):
                sup.problems.append(
                    (
                        lineno,
                        "suppression without a reason; append "
                        "'-- <why this is safe>'",
                    )
                )
                continue
            rules = {r.strip() for r in match.group("rules").split(",")}
            if match.group("scope") == "allow-file":
                sup.file_wide |= rules
            else:
                sup.by_line.setdefault(lineno, set()).update(rules)
        return sup

    def covers(self, rule_id: str, line: int) -> bool:
        if rule_id in self.file_wide:
            self.used.add((rule_id, 0))
            return True
        if rule_id in self.by_line.get(line, set()):
            self.used.add((rule_id, line))
            return True
        return False

    def unused(self) -> List[Tuple[int, str]]:
        stale: List[Tuple[int, str]] = []
        for line, rules in sorted(self.by_line.items()):
            for rule_id in sorted(rules):
                if (rule_id, line) not in self.used:
                    stale.append((line, rule_id))
        for rule_id in sorted(self.file_wide):
            if (rule_id, 0) not in self.used:
                stale.append((1, rule_id))
        return stale


def _display_path(path: Path, root: Optional[Path]) -> str:
    if root is not None:
        try:
            return path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            pass
    return path.as_posix()


def analyze_file(
    path: Path,
    root: Optional[Path] = None,
    package_sites: Optional[Dict[Path, LoadSites]] = None,
) -> Tuple[List[Finding], int]:
    """Run every applicable rule over one file.

    Returns ``(findings, parsed)`` where ``parsed`` is 1 when the file
    was analyzable (0 on an unreadable file, which is itself a LINT002
    finding — an unparseable deterministic-zone file must not pass).
    ``package_sites`` carries the cross-module scans of one run (see
    :class:`~repro.lint.rules.ModuleContext`).
    """
    display = _display_path(path, root)

    def make(rule_id: str, line: int, col: int, message: str) -> Finding:
        snippet = lines[line - 1].rstrip() if 0 < line <= len(lines) else ""
        return Finding(
            rule=rule_id,
            path=display,
            line=line,
            col=col,
            message=message,
            snippet=snippet,
        )

    try:
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError, ValueError) as exc:
        lines = [""]
        return [make("LINT002", 1, 0, f"file could not be analyzed: {exc}")], 0

    sup = _Suppressions.parse(source)
    ctx = ModuleContext.build(str(path), tree, lines, package_sites)

    findings: List[Finding] = []
    for lineno, message in sup.problems:
        findings.append(make("LINT000", lineno, 0, message))
    for info in RULES.values():
        if not info.applies_to(ctx):
            continue
        for node, message in info.check(ctx):
            line = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0)
            if sup.covers(info.id, line):
                continue
            findings.append(make(info.id, line, col, message))
    for line, rule_id in sup.unused():
        findings.append(
            make(
                "LINT001",
                line,
                0,
                f"suppression for {rule_id} matched no finding; remove it",
            )
        )
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return findings, 1


def iter_python_files(paths: Iterable[Path]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated file list."""
    seen: Set[Path] = set()
    for entry in paths:
        if entry.is_dir():
            seen.update(p for p in entry.rglob("*.py") if p.is_file())
        elif entry.suffix == ".py":
            seen.add(entry)
    return sorted(seen)


def analyze_paths(
    paths: Sequence[Path], root: Optional[Path] = None
) -> Report:
    """Analyze every ``*.py`` under ``paths``; ``root`` relativizes output."""
    findings: List[Finding] = []
    checked = 0
    package_sites: Dict[Path, LoadSites] = {}
    for path in iter_python_files(paths):
        file_findings, parsed = analyze_file(path, root, package_sites)
        findings.extend(file_findings)
        checked += parsed
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return Report(findings=findings, checked_files=checked)
