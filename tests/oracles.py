"""Independent reference implementations used to check the library.

Everything here is deliberately naive and written separately from the
production code: full-matrix dynamic programming, dictionary bookkeeping,
and high-precision arithmetic. These oracles follow the same documented
rules (canonical diff alignment, 40% modification budget, lineage
resolution, expert-set scoring) but share no code with the implementations
they check, apart from the fold split that the scoring oracles take as
given, the name normalization that the alias oracle takes as given, and
the logistic objective and gradient that the optimizer oracle minimizes
(the gradient is itself checked against finite differences).
"""

from __future__ import annotations

import fnmatch
import functools
import itertools
import math
import re
import subprocess
from dataclasses import replace
from decimal import Context, Decimal, getcontext, localcontext
from pathlib import Path

import numpy as np

from fileexperts.errors import EmptyOracle, TooFewSamples, UnscoredOraclePair
from fileexperts.expertise import THRESHOLD_GRID, ThresholdCurve, ThresholdPoint
from fileexperts.gitlog import resolve_lineages
from fileexperts.identities import normalize_name
from fileexperts.ml import logistic_gradient, logistic_loss
from fileexperts.validation import stratified_folds

getcontext().prec = 50


def lev_matrix(a: str, b: str) -> int:
    """Textbook full-matrix Levenshtein distance."""
    rows, cols = len(a) + 1, len(b) + 1
    d = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        d[i][0] = i
    for j in range(cols):
        d[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
    return d[-1][-1]


def group_pair_identities(identities, threshold: float, manual_aliases=None) -> dict:
    """Each identity's developer, as (canonical key, display name, emails,
    names), by alias unification over pairs of e-mail groups, each pair
    compared name set against name set. Identities merge first
    by e-mail key and by manual pairs, then whole groups merge when any of
    their non-empty normalized names lie within ``threshold`` of the longer
    one's length, by a full-matrix distance."""
    unique = sorted(set(identities), key=lambda ident: (ident.key(), ident.name))
    if not unique:
        return {}
    parent = list(range(len(unique)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        parent[max(ra, rb)] = min(ra, rb)

    def similar(a, b):
        if not a or not b:
            return False
        return lev_matrix(a, b) <= math.floor(threshold * max(len(a), len(b)))

    email_index = {}
    for i, ident in enumerate(unique):
        email_index.setdefault(ident.key(), i)
        union(email_index[ident.key()], i)
    for email_a, email_b in manual_aliases or []:
        ka, kb = email_a.strip().lower(), email_b.strip().lower()
        if ka in email_index and kb in email_index:
            union(email_index[ka], email_index[kb])

    groups = {}
    for i, ident in enumerate(unique):
        name = normalize_name(ident.name)
        if name:
            groups.setdefault(find(i), set()).add(name)
    roots = sorted(groups)
    for gi in range(len(roots)):
        for gj in range(gi + 1, len(roots)):
            a_root, b_root = roots[gi], roots[gj]
            if find(a_root) == find(b_root):
                continue
            if any(similar(na, nb) for na in groups[a_root] for nb in groups[b_root]):
                union(a_root, b_root)

    members = {}
    for i, ident in enumerate(unique):
        members.setdefault(find(i), []).append(ident)
    result = {}
    for group in members.values():
        emails = frozenset(ident.key() for ident in group)
        names = frozenset(ident.name for ident in group if ident.name)
        display = max(names, key=lambda n: (len(n), n)) if names else min(emails)
        for ident in group:
            result[ident] = (min(emails), display, emails, names)
    return result


def precise_doa(fa: int, dl: int, ac: int) -> float:
    """Authorship formula evaluated in 50-digit decimal arithmetic."""
    value = (
        Decimal("3.293")
        + Decimal("1.098") * fa
        + Decimal("0.164") * dl
        - Decimal("0.321") * Decimal(1 + ac).ln()
    )
    return float(value)


def _arctan(z: Decimal) -> Decimal:
    """arctan(z) for z >= 0 by its Taylor series, after halving the angle
    until z < 0.01 (arctan z = 2 arctan(z / (1 + sqrt(1 + z^2))))."""
    doublings = 0
    while z >= Decimal("0.01"):
        z /= 1 + (1 + z * z).sqrt()
        doublings += 1
    total = Decimal(0)
    for k in itertools.count():
        term = (-1) ** k * z ** (2 * k + 1) / (2 * k + 1)
        if total + term == total:
            return total * 2**doublings
        total += term


def _student_t_tail_at(rho: float, df: int) -> Decimal:
    """1 - A(t|df) by the finite sums of Abramowitz & Stegun 26.7.3 (odd df)
    and 26.7.4 (even df), at the current decimal precision. With
    t = rho sqrt(df/(1-rho^2)), theta = arctan(t/sqrt(df)) has sin theta =
    |rho| and cos^2 theta = 1 - rho^2."""
    sin = abs(Decimal(rho))
    cos2 = 1 - sin * sin
    total, coefficient = Decimal(0), Decimal(1)
    if df % 2 == 0:
        for k in range(df // 2):  # (1*3*...*(2k-1)) / (2*4*...*2k) cos^2k
            if k:
                coefficient *= Decimal(2 * k - 1) / (2 * k)
            total += coefficient * cos2**k
        return 1 - sin * total
    for k in range((df - 1) // 2):  # (2*4*...*2k) / (3*5*...*(2k+1)) cos^2k
        if k:
            coefficient *= Decimal(2 * k) / (2 * k + 1)
        total += coefficient * cos2**k
    pi = 4 * (4 * _arctan(Decimal(1) / 5) - _arctan(Decimal(1) / 239))  # Machin
    theta = _arctan(sin / cos2.sqrt())
    return 1 - 2 / pi * (theta + sin * cos2.sqrt() * total)


def student_t_tail(rho: float, df: int) -> Decimal:
    """The two-sided Student-t tail at t = rho sqrt(df/(1-rho^2)) with df
    degrees of freedom, for the float rho exactly, in decimal at 50 digits
    plus the decimal exponent of the tail: the sums subtract from 1, so a
    tail near 10**-e needs e more digits. The precision grows until the
    tail's own exponent asks for no more."""
    digits = 50
    while True:
        with localcontext(Context(prec=digits)):
            tail = _student_t_tail_at(rho, df)
        needed = 50 + max(0, -tail.adjusted()) if tail > 0 else 2 * digits
        if needed <= digits:
            return tail
        digits = needed


def spearman_no_ties(x, y) -> float:
    """Classic 1 - 6*sum(d^2)/(n(n^2-1)) formula; valid only without ties."""
    n = len(x)
    rank_x = {v: i + 1 for i, v in enumerate(sorted(x))}
    rank_y = {v: i + 1 for i, v in enumerate(sorted(y))}
    d2 = sum((rank_x[a] - rank_y[b]) ** 2 for a, b in zip(x, y))
    return 1.0 - 6.0 * d2 / (n * (n * n - 1))


def brute_force_ranks(values) -> list[float]:
    """Average ranks by explicit position enumeration."""
    indexed = sorted(range(len(values)), key=lambda i: (values[i], i))
    ranks = [0.0] * len(values)
    i = 0
    while i < len(indexed):
        j = i
        while j + 1 < len(indexed) and values[indexed[j + 1]] == values[indexed[i]]:
            j += 1
        mean_rank = sum(range(i + 1, j + 2)) / (j - i + 1)
        for pos in range(i, j + 1):
            ranks[indexed[pos]] = mean_rank
        i = j + 1
    return ranks


def _loop_rank_correlation(rx, ry) -> float:
    cx = rx - rx.mean()
    cy = ry - ry.mean()
    denom = np.sqrt((cx @ cx) * (cy @ cy))
    return float(np.clip((cx @ cy) / denom, -1.0, 1.0))


def permutation_p_loop(x, y, exact_limit: int = 8, samples: int = 20000, seed: int = 0) -> float:
    """Spearman permutation p-value for one column, one permutation at a
    time: all n! orderings of y's ranks up to ``exact_limit`` pairs,
    otherwise ``samples`` draws of a fresh ``default_rng(seed)`` with the
    add-one correction, recomputing the full rank correlation per draw."""
    rx, ry = np.array(brute_force_ranks(list(x))), np.array(brute_force_ranks(list(y)))
    observed = abs(_loop_rank_correlation(rx, ry))
    n = len(rx)
    if n <= exact_limit:
        perms = np.array(list(itertools.permutations(ry)))
        cx = rx - rx.mean()
        cp = perms - perms.mean(axis=1, keepdims=True)
        denom = np.sqrt((cx @ cx) * (cp * cp).sum(axis=1))
        rhos = np.abs(cp @ cx / denom)
        return int((rhos >= observed - 1e-12).sum()) / len(perms)
    rng = np.random.default_rng(seed)
    count = 0
    for _ in range(samples):
        permuted = rng.permutation(ry)
        if abs(_loop_rank_correlation(rx, permuted)) >= observed - 1e-12:
            count += 1
    return (count + 1) / (samples + 1)


# -- canonical diff, implemented naively ----------------------------------------

def naive_diff(before: list[str], after: list[str]):
    """The documented three-step alignment: common prefix, common suffix,
    then a full LCS matrix walk preferring removals on ties.

    Returns (before_start, after_start, removed, added) tuples.
    """
    n, m = len(before), len(after)
    prefix = 0
    while prefix < min(n, m) and before[prefix] == after[prefix]:
        prefix += 1
    suffix = 0
    while (
        suffix < min(n, m) - prefix
        and before[n - 1 - suffix] == after[m - 1 - suffix]
    ):
        suffix += 1
    a = before[prefix : n - suffix]
    b = after[prefix : m - suffix]

    # L[i][j] = LCS length of a[i:], b[j:]
    la, lb = len(a), len(b)
    L = [[0] * (lb + 1) for _ in range(la + 1)]
    for i in reversed(range(la)):
        for j in reversed(range(lb)):
            if a[i] == b[j]:
                L[i][j] = L[i + 1][j + 1] + 1
            else:
                L[i][j] = max(L[i + 1][j], L[i][j + 1])

    hunks = []
    removed: list[str] = []
    added: list[str] = []
    hunk_i = hunk_j = 0
    i = j = 0
    while i < la or j < lb:
        if i < la and j < lb and a[i] == b[j]:
            if removed or added:
                hunks.append((prefix + hunk_i, prefix + hunk_j, removed, added))
                removed, added = [], []
            i += 1
            j += 1
            continue
        if not removed and not added:
            hunk_i, hunk_j = i, j
        if j >= lb or (i < la and L[i + 1][j] >= L[i][j + 1]):
            removed.append(a[i])
            i += 1
        else:
            added.append(b[j])
            j += 1
    if removed or added:
        hunks.append((prefix + hunk_i, prefix + hunk_j, removed, added))
    return hunks


def apply_hunks(before: list[str], hunks) -> list[str]:
    """The after-version lines that ``hunks`` (anything with before_start,
    removed and added) make of the before-version lines."""
    out: list[str] = []
    cursor = 0
    for hunk in hunks:
        out.extend(before[cursor : hunk.before_start])
        out.extend(hunk.added)
        cursor = hunk.before_start + len(hunk.removed)
    out.extend(before[cursor:])
    return out


# -- naive feature replay ---------------------------------------------------------

_ORACLE_LANGUAGES = {
    ".py": ("python", ["if", "elif"], False, ["#"], ['"', "'"]),
    ".js": ("javascript", ["if", "case"], True, ["//"], ['"', "'", "`"]),
    ".rb": ("ruby", ["if", "elsif", "unless", "when"], True, ["#"], ['"', "'"]),
}


def _oracle_count_conditionals(
    lines: list[str], keywords, ternary: bool, comment_markers, quotes
) -> int:
    """Keyword (and, with ``ternary``, ``?``) occurrences outside comments
    and string literals, scanning each line one character at a time. Only
    one-character entries of ``quotes`` open a string; inside one, a
    backslash hides the character after it."""
    openers = {quote for quote in quotes if len(quote) == 1}
    total = 0
    for line in lines:
        code_chars = []
        in_quote = None
        k = 0
        while k < len(line):
            c = line[k]
            if in_quote:
                if c == "\\":
                    k += 2
                    code_chars.append("  ")
                    continue
                if c == in_quote:
                    in_quote = None
                code_chars.append(" ")
                k += 1
                continue
            if any(line.startswith(marker, k) for marker in comment_markers):
                break
            if c in openers:
                in_quote = c
                code_chars.append(" ")
                k += 1
                continue
            code_chars.append(c)
            k += 1
        code = "".join(code_chars)
        for kw in set(keywords):
            total += len(re.findall(rf"\b{re.escape(kw)}\b", code))
        if ternary:
            total += code.count("?")
    return total


def _oracle_file_conditionals(lines: list[str], ext: str) -> int:
    """Conditionals in lines of a file with extension ``ext``, by the
    oracle's own language table; other extensions count none."""
    info = _ORACLE_LANGUAGES.get(ext)
    return 0 if info is None else _oracle_count_conditionals(lines, *info[1:])


def _split(text) -> list[str]:
    """git's lines: the text before each newline, less one carriage return
    just before it, then any unterminated rest. No other character ends a
    line."""
    if not text:
        return []
    return ["".join(pair) for pair in re.findall(r"([^\n]*?)\r?\n|([^\n]+)\Z", text)]


def naive_filter_source_files(history, extensions, vendor_globs):
    """The source filter, deciding every event and present path afresh:
    kept when the lower-cased extension is configured and no vendor glob
    (``**`` read as ``*``) matches the whole path."""

    def keep(path: str) -> bool:
        return Path(path).suffix.lower() in extensions and not any(
            fnmatch.fnmatch(path, glob.replace("**", "*")) for glob in vendor_globs
        )

    commits = []
    for commit in history.commits:
        kept = tuple(event for event in commit.changes if keep(event.path))
        if kept:
            commits.append(replace(commit, changes=kept))
    return replace(
        history,
        commits=tuple(commits),
        present_paths=frozenset(p for p in history.present_paths if keep(p)),
        metadata=dict(history.metadata),
    )


@functools.lru_cache(maxsize=None)
def _blob_text(repository, sha: str) -> str:
    """A blob's text, read with its own ``git cat-file blob``."""
    data = subprocess.run(["git", "-C", str(repository), "cat-file", "blob", sha],
                          capture_output=True, check=True).stdout
    return data.decode("utf-8", "replace")


def _version(history, content, blob):
    """An event side's text: inline, or else its blob in the history's repository."""
    return content if content is not None or blob is None else _blob_text(history.repository, blob)


def naive_feature_table(history) -> dict[tuple[str, str], dict]:
    """Recompute all twelve variables per (developer, file) from scratch.

    Consumes the same extracted CommitHistory but re-derives lineages,
    diffs, blame, and every counter with independent code, reading each
    blob with its own ``git cat-file``.
    """
    # lineage resolution: renames move, additions attach or start
    live: dict[str, list] = {}
    chains: dict[str, list[str]] = {}
    for commit in history.commits:
        for event in commit.changes:
            if event.change_kind == "rename" and event.old_path:
                bucket = live.pop(event.old_path, None)
                chain = chains.pop(event.old_path, None)
                if bucket is None:
                    bucket, chain = [], [event.old_path]
            else:
                bucket = live.get(event.path)
                chain = chains.get(event.path)
                if bucket is None:
                    bucket, chain = [], [event.path]
            bucket.append((commit, event))
            if chain[-1] != event.path:
                chain.append(event.path)
            live[event.path] = bucket
            chains[event.path] = chain

    table: dict[tuple[str, str], dict] = {}
    reference = history.reference_time
    for path, events in live.items():
        if path not in history.present_paths:
            continue
        ext = Path(path).suffix.lower()

        counters: dict[str, dict] = {}
        sequence = []
        blame_lines: list[str] = []
        blame_authors: list[str] = []
        for commit, event in events:
            author = commit.author.email.strip().lower()
            sequence.append((author, commit.timestamp))
            acc = counters.setdefault(
                author, {"adds": 0, "dels": 0, "mods": 0, "conds": 0, "stamps": []}
            )
            acc["stamps"].append(commit.timestamp)

            before = _split(_version(history, event.before_content, event.before_blob))
            after = _split(_version(history, event.after_content, event.after_blob))
            added_as_add = []
            for _bs, _as, removed, added in naive_diff(before, after):
                paired = min(len(removed), len(added))
                for idx in range(paired):
                    if lev_matrix(removed[idx], added[idx]) < 0.4 * len(removed[idx]):
                        acc["mods"] += 1
                    else:
                        acc["dels"] += 1
                        acc["adds"] += 1
                        added_as_add.append(added[idx])
                acc["dels"] += len(removed) - paired
                acc["adds"] += len(added) - paired
                added_as_add.extend(added[paired:])
            acc["conds"] += _oracle_file_conditionals(added_as_add, ext)

            # blame replay
            if event.change_kind == "addition" or not blame_authors:
                blame_lines = list(after)
                blame_authors = [author] * len(after)
            else:
                new_lines: list[str] = []
                new_authors: list[str] = []
                cursor = 0
                for bs, _as, removed, added in naive_diff(blame_lines, after):
                    new_lines.extend(blame_lines[cursor:bs])
                    new_authors.extend(blame_authors[cursor:bs])
                    new_lines.extend(added)
                    new_authors.extend([author] * len(added))
                    cursor = bs + len(removed)
                new_lines.extend(blame_lines[cursor:])
                new_authors.extend(blame_authors[cursor:])
                blame_lines, blame_authors = new_lines, new_authors

        creator = sequence[0][0]
        size = len(blame_lines)
        for author, acc in counters.items():
            stamps = sorted(acc["stamps"])
            gaps = [
                (later - earlier).total_seconds() / 86400.0
                for earlier, later in zip(stamps, stamps[1:])
            ]
            last_position = max(i for i, (a, _t) in enumerate(sequence) if a == author)
            table[(author, path)] = {
                "adds": acc["adds"],
                "dels": acc["dels"],
                "mods": acc["mods"],
                "conds": acc["conds"],
                "amount": acc["adds"] + acc["dels"],
                "fa": 1 if author == creator else 0,
                "blame": sum(1 for a in blame_authors if a == author),
                "num_commits": len(stamps),
                "num_days": int((reference - stamps[-1]).total_seconds() // 86400.0),
                "num_mod_devs": len(
                    {a for a, _t in sequence[last_position + 1 :] if a != author}
                ),
                "size": size,
                "avg_days_commits": sum(gaps) / len(gaps) if gaps else 0.0,
            }
    return table


def lineage_sample(history, file_limit: int = 5, seed: int = 0) -> list[tuple[str, str]]:
    """The survey draw computed from the history's lineages rather than a
    feature table: every file present at the reference version, with the
    authors of its lineage's events as its developers."""
    if file_limit < 1:
        raise ValueError(f"file_limit must be >= 1, got {file_limit}")
    lineages = resolve_lineages(history)
    files = sorted(path for path in lineages if path in history.present_paths)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(files))
    assigned: dict[str, int] = {}
    pairs: list[tuple[str, str]] = []
    for index in order:
        file = files[index]
        developers = sorted({commit.author.key() for commit, _ev in lineages[file].events})
        if all(assigned.get(dev, 0) < file_limit for dev in developers):
            for dev in developers:
                assigned[dev] = assigned.get(dev, 0) + 1
                pairs.append((dev, file))
    return pairs


# -- random forest tree, grown with per-node numpy calls --------------------------

class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "probability")

    def __init__(self, probability: float):
        self.feature = None
        self.threshold = 0.0
        self.left = None
        self.right = None
        self.probability = probability


def _numpy_best_split(X: np.ndarray, y: np.ndarray, features: np.ndarray):
    """Best (feature, threshold) by weighted Gini impurity, or None."""
    n = len(y)
    best_gini = np.inf
    best = None
    for feature in features:
        values = X[:, feature]
        order = np.argsort(values, kind="stable")
        sorted_vals = values[order]
        sorted_y = y[order].astype(float)
        pos_left = np.cumsum(sorted_y)[:-1]
        counts_left = np.arange(1, n)
        boundaries = sorted_vals[1:] != sorted_vals[:-1]
        if not boundaries.any():
            continue
        pos_right = sorted_y.sum() - pos_left
        counts_right = n - counts_left
        p_left = pos_left / counts_left
        p_right = pos_right / counts_right
        gini = (
            counts_left * 2.0 * p_left * (1.0 - p_left)
            + counts_right * 2.0 * p_right * (1.0 - p_right)
        ) / n
        gini = np.where(boundaries, gini, np.inf)
        idx = int(np.argmin(gini))
        if gini[idx] < best_gini:
            best_gini = float(gini[idx])
            best = (int(feature), float((sorted_vals[idx] + sorted_vals[idx + 1]) / 2.0))
    return best


def numpy_grow_tree(X, y, max_depth, max_features, rng):
    """One forest tree, re-sorting every candidate feature at every node
    with vectorized numpy scans. Splits at the plain midpoint, so it never
    returns when two adjacent floats are the only boundary."""
    root = _Node(probability=float(y.mean()))
    stack = [(root, X, y, 0)]
    while stack:
        node, Xn, yn, depth = stack.pop()
        if (
            len(yn) < 2
            or yn.all()
            or not yn.any()
            or (max_depth is not None and depth >= max_depth)
        ):
            continue
        candidates = rng.choice(
            Xn.shape[1], size=min(max_features, Xn.shape[1]), replace=False
        )
        split = _numpy_best_split(Xn, yn, candidates)
        if split is None:
            continue
        feature, threshold = split
        mask = Xn[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = _Node(probability=float(yn[mask].mean()))
        node.right = _Node(probability=float(yn[~mask].mean()))
        stack.append((node.left, Xn[mask], yn[mask], depth + 1))
        stack.append((node.right, Xn[~mask], yn[~mask], depth + 1))
    return root


# -- logistic regression, fitted by gradient descent ------------------------------

def gradient_descent_logistic(X, y, l2: float, tol: float, max_iter: int) -> np.ndarray:
    """Weights then bias minimizing ``logistic_loss``, by gradient descent
    with a backtracking line search whose step doubles after each accepted
    step; stops once every gradient entry is within ``tol``."""
    params = np.zeros(X.shape[1] + 1)
    loss = logistic_loss(params, X, y, l2)
    step = 1.0
    for _ in range(max_iter):
        grad = logistic_gradient(params, X, y, l2)
        if np.abs(grad).max() <= tol:
            break
        g2 = float(grad @ grad)
        while True:
            candidate = params - step * grad
            new_loss = logistic_loss(candidate, X, y, l2)
            if new_loss <= loss - 0.5 * step * g2 or step < 1e-12:
                break
            step *= 0.5
        params, loss = candidate, new_loss
        step = min(step * 2.0, 1e6)
    return params


# -- expert-set scoring, by set algebra over (developer, file) pairs -------------

def counts_prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """Precision, recall and F-measure from counts; a metric with an empty
    denominator is 0."""
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return precision, recall, 0.0
    return precision, recall, 2.0 * precision * recall / (precision + recall)


def set_classify(scores, k: float) -> set:
    """Expert pairs at threshold k: normalized > 0 at k = 0, >= k otherwise."""
    if k == 0.0:
        return {(s.developer, s.file) for s in scores if s.normalized > 0.0}
    return {(s.developer, s.file) for s in scores if s.normalized >= k}


def set_calibrate(scores, oracle, folds: int = 10, seed: int = 0) -> ThresholdCurve:
    """The threshold sweep with one set of pairs per fold. The folds come
    from the library's stratified_folds, so only the scoring is checked."""
    if not oracle.declared_experts:
        raise EmptyOracle("no declared experts; calibration is undefined")
    score_map = {(s.developer, s.file): s.normalized for s in scores}
    missing = oracle.labeled - set(score_map)
    if missing:
        raise UnscoredOraclePair(
            f"{len(missing)} labeled pairs have no score, e.g. {sorted(missing)[:3]}"
        )
    labeled = sorted(oracle.labeled)
    if len(labeled) < folds:
        raise TooFewSamples(f"{len(labeled)} labeled pairs < {folds} folds")
    fold_indices = stratified_folds(
        [pair in oracle.declared_experts for pair in labeled], folds, seed
    )
    technique = scores[0].technique if scores else ""

    points = []
    for k in THRESHOLD_GRID:
        predicted = set_classify(scores, k)
        fold_metrics = []
        for idx in fold_indices:
            fold_pairs = {labeled[i] for i in idx}
            experts = fold_pairs & oracle.declared_experts
            predicted_fold = predicted & fold_pairs
            tp = len(predicted_fold & experts)
            fold_metrics.append(
                counts_prf(tp, len(predicted_fold) - tp, len(experts) - tp)
            )
        points.append(
            ThresholdPoint(
                k=k,
                precision=sum(m[0] for m in fold_metrics) / folds,
                recall=sum(m[1] for m in fold_metrics) / folds,
                f_measure=sum(m[2] for m in fold_metrics) / folds,
            )
        )
    best = max(points, key=lambda p: (p.f_measure, -p.k))
    return ThresholdCurve(technique=technique, points=tuple(points), best_k=best.k)
