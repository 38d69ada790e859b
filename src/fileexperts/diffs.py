"""Line diffing, edit distance, change classification and conditional counting.

The line diff uses a longest-common-subsequence alignment with a fixed,
documented tie-breaking rule so that results are reproducible and can be
checked against an independent implementation:

1. the longest common prefix is matched first;
2. the longest common suffix of the remainders is matched next;
3. the middle is aligned by LCS dynamic programming, walking from the
   front: equal head lines are always matched, and otherwise a removal is
   emitted before an addition whenever the suffix LCS lengths tie or favor
   the removal (``L[i+1][j] >= L[i][j+1]``).

Any implementation following these three rules produces identical hunks.
Here the suffix LCS lengths of step 3 are kept as bit-vector rows, one
Python int per line of the before side, built from one match mask per
distinct line of the after side, keyed by the line's text (Allison & Dix
1986, "A bit-string LCS algorithm"; Hyyro 2004, "Bit-parallel LCS-length
computation revisited"), so the table takes n*m bits. The walk compares
lines directly, skips each run of equal lines in one tight loop, reads each
LCS length back with a popcount, and emits a hunk as two slices when its
run of unmatched steps ends.

A removed/added line pair within a hunk counts as a *modification* when the
edit distance between the two lines is below 40% of the removed line's
length (strict inequality, whitespace significant). Only that answer is
needed, so ``levenshtein`` computes the distance up to a budget: one
bit-vector pass over the longer line, which stops once the budget is
certainly exceeded (Myers 1999, "A fast bit-vector algorithm for
approximate string matching based on dynamic programming"; Hyyro 2001,
"Explaining and extending the bit-parallel approximate string matching
algorithm of Myers"). ``identities`` imports the same function for its 30%
alias rule.

Lines are counted as git counts them (``split_lines``): only ``\\n`` ends a
line, taking one ``\\r`` just before it along. Conditionals are counted on
each line after one regex per language table has blanked its line comment
and its string literals.

This is a text layer: it works on strings and line lists alone and imports
no pipeline module. ``features`` replays each lineage with these diffs and
hands ``classify_changes`` the lineage's ``LanguageSpec``, looked up once per
lineage, so this module loads no language table.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import InvalidThreshold
from .languages import LanguageSpec

MOD_THRESHOLD = 0.40


@dataclass(frozen=True)
class DiffHunk:
    """A maximal run of non-matching lines.

    ``before_start`` / ``after_start`` are the line indices where the hunk
    begins in each version, which makes hunks applicable in order.
    """

    before_start: int
    after_start: int
    removed: tuple[str, ...]
    added: tuple[str, ...]


@dataclass(frozen=True)
class ChangeStats:
    adds: int = 0
    dels: int = 0
    mods: int = 0
    conds: int = 0


def split_lines(text: str | None) -> list[str]:
    """A file's lines as git counts them: each ends at a ``\\n``, which it
    loses together with one ``\\r`` just before it, and a last line may lack
    its ``\\n``. No other character ends a line."""
    if not text:
        return []
    lines = text.replace("\r\n", "\n").split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def _common_ends(a: Sequence, b: Sequence) -> tuple[int, int]:
    """The lengths of the longest common prefix of ``a`` and ``b``, and of
    the longest common suffix of what the prefix leaves."""
    limit = min(len(a), len(b))
    prefix = 0
    while prefix < limit and a[prefix] == b[prefix]:
        prefix += 1
    suffix = 0
    while suffix < limit - prefix and a[-1 - suffix] == b[-1 - suffix]:
        suffix += 1
    return prefix, suffix


def diff_lines(before: Sequence[str], after: Sequence[str]) -> list[DiffHunk]:
    """Canonical LCS diff over already-split line sequences."""
    n, m = len(before), len(after)
    prefix, suffix = _common_ends(before, after)
    a = before[prefix : n - suffix]
    b = after[prefix : m - suffix]
    if not a and not b:
        return []
    nb, na = len(a), len(b)

    # Bit p of a row stands for b[na-1-p]; rows[i] holds a[i:] against all
    # of b, and L[i][j], the LCS length of a[i:] and b[j:], is the number
    # of zero bits among its low na-j bits.
    masks: dict[str, int] = {}
    for p, line in enumerate(reversed(b)):
        masks[line] = masks.get(line, 0) | 1 << p
    full = (1 << na) - 1
    rows = [full] * (nb + 1)
    v = full
    for i in range(nb - 1, -1, -1):
        u = v & masks.get(a[i], 0)
        if u:
            v = ((v + u) | (v - u)) & full
        rows[i] = v

    def lcs(i: int, j: int) -> int:
        width = na - j
        return width - (rows[i] & ((1 << width) - 1)).bit_count()

    hunks: list[DiffHunk] = []
    i = j = 0
    while i < nb or j < na:
        while i < nb and j < na and a[i] == b[j]:  # a run of equal lines
            i += 1
            j += 1
        start_i, start_j = i, j
        while i < nb or j < na:  # a hunk: the unmatched steps up to the next equal pair
            if i < nb and j < na and a[i] == b[j]:
                break
            if j == na or (i < nb and lcs(i + 1, j) >= lcs(i, j + 1)):
                i += 1
            else:
                j += 1
        if i > start_i or j > start_j:
            hunks.append(DiffHunk(
                before_start=prefix + start_i,
                after_start=prefix + start_j,
                removed=tuple(a[start_i:i]),
                added=tuple(b[start_j:j]),
            ))
    return hunks


def levenshtein(a: str, b: str, limit: int | None = None) -> int:
    """Minimum number of single-character edits turning a into b.

    With a ``limit``, the result is ``min(distance, limit + 1)``: exact up
    to the limit, and ``limit + 1`` for anything farther, so callers that
    only ask "within k edits?" compare against ``limit``. Without a limit
    the result is exact.

    The common prefix and suffix are trimmed first (they never change the
    distance). Then each column of the DP table is one pair of Python ints
    holding its vertical deltas, one bit per character of the shorter
    string, and is updated by a fixed number of word operations per
    character of the longer one (Myers 1999; in the global form of Hyyro
    2001). The pass stops as soon as the bottom cell, less the characters
    still to come, exceeds the limit. The cost no longer grows with the
    limit: two random 12,000-character lines take about 0.05 s at the 40%
    budget on a 2-vCPU x86 host, where a DP over the band ``|i - j| <=
    limit`` (Ukkonen 1985) takes 11 s.
    """
    if a == b:
        return 0
    start, end = _common_ends(a, b)
    a = a[start : len(a) - end]
    b = b[start : len(b) - end]
    if len(a) < len(b):
        a, b = b, a
    n, m = len(a), len(b)
    if limit is None or limit > n:
        limit = n  # the distance never exceeds the longer length
    if n - m > limit:
        return limit + 1  # the distance is at least the length difference
    if not m:
        return n
    # Column j of the DP table D[i][j] (distance of b[:i] and a[:j]) is kept
    # as its vertical deltas: bit i-1 of pv (mv) is set when D[i][j] -
    # D[i-1][j] is +1 (-1). score tracks the bottom cell D[m][j].
    masks: dict[str, int] = {}
    for i, ch in enumerate(b):
        masks[ch] = masks.get(ch, 0) | 1 << i
    full = (1 << m) - 1
    top = 1 << (m - 1)
    pv, mv, score = full, 0, m
    left = n
    for ch in a:
        eq = masks.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (full & ~(xh | pv))
        mh = pv & xh
        if ph & top:
            score += 1
        elif mh & top:
            score -= 1
        left -= 1
        # neighbouring cells of row m differ by at most 1, so the final
        # distance is at least score - left; after the last character that
        # is score itself, so a score that survives the loop is exact
        if score - left > limit:
            return limit + 1
        # row 0 is D[0][j] = j, so its horizontal delta is always +1
        ph = ph << 1 | 1
        mh <<= 1
        pv = mh | (full & ~(xv | ph))
        mv = ph & xv
    return score


def is_modification_pair(removed: str, added: str, mod_threshold: float = MOD_THRESHOLD) -> bool:
    """True when editing `removed` into `added` stays below the threshold
    fraction of the removed line's length. An empty removed line can never
    be modified (strict inequality against zero).

    For an integer distance d, ``d < x`` exactly when ``d <= ceil(x) - 1``,
    so the edit distance only has to be known up to that budget."""
    budget = math.ceil(mod_threshold * len(removed)) - 1
    return budget >= 0 and levenshtein(removed, added, budget) <= budget


def check_mod_threshold(mod_threshold: float) -> None:
    """Raise InvalidThreshold unless the modification threshold lies in
    [0, 1]; NaN lies nowhere."""
    if not 0.0 <= mod_threshold <= 1.0:
        raise InvalidThreshold(f"mod_threshold {mod_threshold} outside [0, 1]")


def classify_changes(
    hunks: Iterable[DiffHunk],
    mod_threshold: float = MOD_THRESHOLD,
    language: LanguageSpec | None = None,
) -> ChangeStats:
    """Classify hunk lines into adds, dels and mods, and count conditionals.

    Removed and added lines are paired positionally up to the shorter side
    of each hunk; a pair under the edit-distance threshold counts as one
    modification, otherwise as one delete plus one add. Leftover lines are
    pure adds or dels. Conditionals are counted over the lines classified
    as adds, when a language is given: a path with none, which only an
    unfiltered history holds, has no conditionals.
    """
    check_mod_threshold(mod_threshold)
    adds = dels = mods = 0
    added_lines: list[str] = []
    for hunk in hunks:
        paired = min(len(hunk.removed), len(hunk.added))
        for idx in range(paired):
            if is_modification_pair(hunk.removed[idx], hunk.added[idx], mod_threshold):
                mods += 1
            else:
                dels += 1
                adds += 1
                added_lines.append(hunk.added[idx])
        dels += len(hunk.removed) - paired
        adds += len(hunk.added) - paired
        added_lines.extend(hunk.added[paired:])
    conds = count_conditionals(added_lines, language) if language else 0
    return ChangeStats(adds=adds, dels=dels, mods=mods, conds=conds)


@lru_cache(maxsize=None)
def _patterns(spec: LanguageSpec) -> tuple[re.Pattern, re.Pattern]:
    """A language's keyword and lexeme patterns.

    The keyword pattern matches any keyword as a whole word; with none it
    matches nothing, where an empty alternation would match at every word
    boundary. The lexeme pattern matches a comment marker and the rest of
    the line, or a string literal: a one-character quote, then backslash
    escapes and other characters up to the closing quote, if the line has
    one. A comment marker wins over a quote at the same position, and a
    quote entry longer than one character is ignored.
    """
    keywords = "|".join(map(re.escape, spec.conditional_keywords))
    comments = "|".join(map(re.escape, spec.line_comments))
    lexemes = [f"(?:{comments}).*"] if spec.line_comments else []
    for quote in (re.escape(q) for q in spec.string_quotes if len(q) == 1):
        lexemes.append(rf"{quote}(?:\\.|[^{quote}\\])*{quote}?")
    return (
        re.compile(rf"\b(?:{keywords})\b" if spec.conditional_keywords else "(?!)"),
        re.compile("|".join(lexemes) or "(?!)", re.DOTALL),
    )


def count_conditionals(lines: Iterable[str], language: LanguageSpec) -> int:
    """Count conditional-statement occurrences across lines.

    Keywords come from the language's table; occurrences inside line
    comments and string literals are excluded, each line being blanked by
    one lexeme pattern per language table first. Languages with a ternary
    operator also count ``?`` occurrences.
    """
    keywords, lexemes = _patterns(language)
    total = 0
    for line in lines:
        code = lexemes.sub(" ", line)
        total += len(keywords.findall(code))
        if language.count_ternary:
            total += code.count("?")
    return total
