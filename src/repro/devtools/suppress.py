"""Suppression comments: ``# simlint: disable=RULE[,RULE] -- reason``.

Two scopes:

- **line**: a ``# simlint: disable=...`` comment suppresses matching
  findings on its own physical line; a comment-only line additionally
  covers the line directly below it (for statements that do not fit an
  end-of-line comment).
- **file**: ``# simlint: disable-file=RULE[,RULE] -- reason`` anywhere
  in the file suppresses matching findings in the whole file
  (conventionally placed right under the module docstring).

A rule token matches a finding if it equals the finding's id
(``SL101``) or is a family prefix of it (``SL1`` matches every
``SL1xx`` rule).  Everything after ``--`` is the human reason; the
linter does not parse it but the review convention is that every
suppression carries one.  Suppressions that never fire are themselves
reported (rule ``SL001``) so stale ones cannot accumulate.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, List, Set

_DIRECTIVE = re.compile(
    r"#\s*simlint:\s*(?P<scope>disable(?:-file)?)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_,\s]+?)\s*(?:--\s*(?P<reason>.*))?$"
)


@dataclass
class Suppression:
    """One parsed directive."""

    line: int  #: line the comment sits on
    scope: str  #: ``"line"`` or ``"file"``
    rules: Set[str] = field(default_factory=set)
    reason: str = ""
    comment_only: bool = False  #: True when nothing but the comment is there
    used: bool = False


def matches(token: str, rule_id: str) -> bool:
    """Does a rule token (an id or a family prefix) cover *rule_id*?"""
    token = token.upper()
    return rule_id == token or (
        rule_id.startswith(token) and len(token) < len(rule_id)
    )


class SuppressionIndex:
    """All directives in one file, queryable by finding location."""

    def __init__(self, source: str) -> None:
        self.suppressions: List[Suppression] = []
        self._by_line: Dict[int, Suppression] = {}
        self._file_scope: List[Suppression] = []
        self._parse(source)

    def _parse(self, source: str) -> None:
        try:
            tokens = list(
                tokenize.generate_tokens(io.StringIO(source).readline)
            )
        except (tokenize.TokenError, IndentationError):
            return
        code_lines: Set[int] = set()
        comments: List[tokenize.TokenInfo] = []
        for tok in tokens:
            if tok.type == tokenize.COMMENT:
                comments.append(tok)
            elif tok.type not in (
                tokenize.NL,
                tokenize.NEWLINE,
                tokenize.INDENT,
                tokenize.DEDENT,
                tokenize.ENDMARKER,
            ):
                for lineno in range(tok.start[0], tok.end[0] + 1):
                    code_lines.add(lineno)
        for tok in comments:
            match = _DIRECTIVE.search(tok.string)
            if match is None:
                continue
            rules = {
                part.strip().upper()
                for part in match.group("rules").split(",")
                if part.strip()
            }
            if not rules:
                continue
            suppression = Suppression(
                line=tok.start[0],
                scope="file" if match.group("scope") == "disable-file" else "line",
                rules=rules,
                reason=(match.group("reason") or "").strip(),
                comment_only=tok.start[0] not in code_lines,
            )
            self.suppressions.append(suppression)
            if suppression.scope == "file":
                self._file_scope.append(suppression)
            else:
                self._by_line[suppression.line] = suppression

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        """True (and mark the directive used) if a directive covers it."""
        hit = False
        for suppression in self._file_scope:
            if any(matches(token, rule_id) for token in suppression.rules):
                suppression.used = True
                hit = True
        for candidate_line in (line, line - 1):
            suppression = self._by_line.get(candidate_line)
            if suppression is None:
                continue
            if candidate_line == line - 1 and not suppression.comment_only:
                continue
            if any(matches(token, rule_id) for token in suppression.rules):
                suppression.used = True
                hit = True
        return hit

    def unused(self) -> List[Suppression]:
        return [s for s in self.suppressions if not s.used]
