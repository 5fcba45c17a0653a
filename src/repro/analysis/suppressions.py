"""Suppression comments: ``# repro: ignore[checker-id] -- reason``.

A suppression silences findings from the named checker(s) on the same
line, or — when the comment is alone on its line — on the next
non-comment line, so block statements (``while True:``) can carry the
comment above them without fighting line length.

Syntax::

    x = f(y)  # repro: ignore[digest-coverage] -- y cannot change a verdict
    # repro: ignore[deadline-discipline] -- bounded by the trail length
    while True:
        ...

Multiple ids separate with commas: ``ignore[a, b]``.  The reason (after
``--``) is optional for the parser but the engine reports reasonless
suppressions as warnings: exempting an invariant check without saying
why is how the next reader re-introduces the bug.
"""

from __future__ import annotations

import re
import tokenize
from dataclasses import dataclass
from io import StringIO

_PATTERN = re.compile(
    r"#\s*repro:\s*ignore\[(?P<ids>[^\]]+)\]\s*(?:--\s*(?P<reason>.*\S))?"
)


@dataclass(frozen=True)
class Suppression:
    line: int  # line the suppression applies to (after forwarding)
    comment_line: int  # line the comment physically sits on
    checker_ids: tuple[str, ...]
    reason: str


def parse_suppressions(source: str) -> list[Suppression]:
    """All suppressions in ``source``, with bare-comment lines forwarded
    to the next line that holds code."""
    raw: list[tuple[int, bool, tuple[str, ...], str]] = []
    code_lines: set[int] = set()
    try:
        tokens = list(tokenize.generate_tokens(StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return []
    for tok in tokens:
        if tok.type == tokenize.COMMENT:
            match = _PATTERN.search(tok.string)
            if match:
                ids = tuple(
                    part.strip() for part in match.group("ids").split(",") if part.strip()
                )
                standalone = tok.line.lstrip().startswith("#")
                raw.append((tok.start[0], standalone, ids, match.group("reason") or ""))
        elif tok.type not in (
            tokenize.NL,
            tokenize.NEWLINE,
            tokenize.INDENT,
            tokenize.DEDENT,
            tokenize.ENDMARKER,
            tokenize.ENCODING,
        ):
            code_lines.add(tok.start[0])

    suppressions: list[Suppression] = []
    for comment_line, standalone, ids, reason in raw:
        target = comment_line
        if standalone:
            later = [ln for ln in code_lines if ln > comment_line]
            if later:
                target = min(later)
        suppressions.append(
            Suppression(
                line=target, comment_line=comment_line, checker_ids=ids, reason=reason
            )
        )
    return suppressions


def suppression_index(source: str) -> dict[int, list[Suppression]]:
    """line -> suppressions applying to that line."""
    index: dict[int, list[Suppression]] = {}
    for supp in parse_suppressions(source):
        index.setdefault(supp.line, []).append(supp)
    return index


def is_suppressed(index: dict[int, list[Suppression]], line: int, checker_id: str) -> bool:
    return any(
        checker_id in supp.checker_ids or "*" in supp.checker_ids
        for supp in index.get(line, [])
    )
