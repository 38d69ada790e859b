"""Alias unification: edit distance, merging rules, canonicalization."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fileexperts import identities
from fileexperts.errors import CorruptHistory, InvalidThreshold
from fileexperts.gitlog import RawIdentity
from fileexperts.identities import (
    canonicalize_history,
    developer_ids,
    levenshtein,
    normalize_name,
    resolve_identities,
)
from conftest import MALFORMED_IDENTITIES, add, make_history, mod
from oracles import group_pair_identities, lev_matrix

short_text = st.text(alphabet="abcdef ", max_size=12)


@st.composite
def long_pairs(draw):
    """Two strings of about 60-200 characters over a 1- to 3-letter alphabet
    that may hold non-BMP characters, so the bit masks span several machine
    words. The second string is either drawn on its own or the first with up
    to 40 substitutions, insertions and deletions, so small distances occur."""
    letters = draw(
        st.lists(st.sampled_from("ab\u00e9\U0001F600\U00010348"), min_size=1, max_size=3, unique=True)
    )
    text = st.text(alphabet=st.sampled_from(letters), min_size=60, max_size=200)
    a = draw(text)
    if draw(st.booleans()):
        return a, draw(text)
    b = a
    edits = st.tuples(st.integers(0, 200), st.sampled_from(["", *letters]), st.integers(0, 1))
    for position, letter, width in draw(st.lists(edits, max_size=40)):
        position %= len(b) + 1
        b = b[:position] + letter + b[position + width :]
    return a, b


class TestLevenshtein:
    def test_identity(self):
        assert levenshtein("abc", "abc") == 0

    def test_pure_insertions(self):
        assert levenshtein("", "abc") == 3

    def test_kitten_sitting(self):
        assert levenshtein("kitten", "sitting") == 3
        assert lev_matrix("kitten", "sitting") == 3

    @given(short_text, short_text)
    def test_matches_full_matrix_oracle(self, a, b):
        assert levenshtein(a, b) == lev_matrix(a, b)

    @given(short_text, short_text)
    def test_symmetry_and_bounds(self, a, b):
        d = levenshtein(a, b)
        assert d == levenshtein(b, a)
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b), 0)

    @given(short_text, short_text, short_text)
    @settings(max_examples=50)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @given(short_text, short_text, st.integers(0, 14))
    @settings(max_examples=300)
    def test_limit_caps_at_one_past_the_limit(self, a, b, k):
        assert levenshtein(a, b, k) == min(lev_matrix(a, b), k + 1)

    @given(long_pairs(), st.none() | st.integers(0, 30))
    @settings(max_examples=150, deadline=None)
    def test_long_strings_match_full_matrix_oracle(self, pair, k):
        a, b = pair
        expected = lev_matrix(a, b)
        assert levenshtein(a, b, k) == (expected if k is None else min(expected, k + 1))


class TestResolveIdentities:
    def test_same_email_merges(self):
        ids = [RawIdentity("Ana S.", "ana@x.com"), RawIdentity("Ana Silva", "ana@x.com")]
        resolved = resolve_identities(ids)
        assert resolved[ids[0]] is resolved[ids[1]]
        assert resolved[ids[0]].display_name == "Ana Silva"

    def test_email_comparison_is_case_insensitive(self):
        ids = [RawIdentity("Ana", "Ana@X.com"), RawIdentity("Ana Silva", "ana@x.com")]
        resolved = resolve_identities(ids)
        assert len(set(resolved.values())) == 1

    def test_similar_names_merge(self):
        # distance("jsmith", "j smith") = 1 <= 0.3 * 7 = 2.1
        ids = [RawIdentity("jsmith", "a@x.com"), RawIdentity("j smith", "b@y.com")]
        resolved = resolve_identities(ids)
        assert len(set(resolved.values())) == 1
        merged = resolved[ids[0]]
        assert merged.emails == {"a@x.com", "b@y.com"}

    def test_dissimilar_developers_stay_apart(self):
        ids = [RawIdentity("Alice", "a@x.com"), RawIdentity("Bob", "b@y.com")]
        resolved = resolve_identities(ids)
        assert resolved[ids[0]] != resolved[ids[1]]

    def test_manual_alias_map(self):
        ids = [RawIdentity("X Person", "a@x.com"), RawIdentity("Unrelated", "b@y.com")]
        resolved = resolve_identities(ids, manual_aliases=[("a@x.com", "b@y.com")])
        assert len(set(resolved.values())) == 1

    def test_accents_and_punctuation_normalize(self):
        assert normalize_name("José  Álvarez-Núñez") == "jose alvareznunez"
        ids = [RawIdentity("José Silva", "a@x.com"), RawIdentity("Jose Silva", "b@y.com")]
        assert len(set(resolve_identities(ids).values())) == 1

    def test_empty_names_never_merge_by_name(self):
        ids = [RawIdentity("??", "a@x.com"), RawIdentity("!!", "b@y.com")]
        assert len(set(resolve_identities(ids).values())) == 2

    def test_idempotent(self):
        ids = [
            RawIdentity("jsmith", "a@x.com"),
            RawIdentity("j smith", "b@y.com"),
            RawIdentity("Carol Chen", "carol@z.com"),
        ]
        first = resolve_identities(ids)
        canonical = sorted(
            {RawIdentity(d.display_name, d.canonical_key) for d in first.values()},
            key=lambda i: i.email,
        )
        second = resolve_identities(canonical)
        assert len(set(second.values())) == len(set(first.values()))
        assert {d.canonical_key for d in second.values()} == {
            d.canonical_key for d in first.values()
        }

    def test_order_independent(self):
        ids = [
            RawIdentity("jsmith", "a@x.com"),
            RawIdentity("j smith", "b@y.com"),
            RawIdentity("Ana Silva", "ana@x.com"),
            RawIdentity("Ana S.", "ana@x.com"),
            RawIdentity("Carol", "carol@z.com"),
        ]
        reference = resolve_identities(ids)

        def partition(mapping):
            groups = {}
            for ident, dev in mapping.items():
                groups.setdefault(dev.canonical_key, set()).add(ident)
            return {frozenset(v) for v in groups.values()}

        for seed in range(5):
            shuffled = ids[:]
            random.Random(seed).shuffle(shuffled)
            assert partition(resolve_identities(shuffled)) == partition(reference)

    def test_transitive_merging_through_chain(self):
        # a~b and b~c but a and c are farther apart than the threshold
        a, b, c = "abcdefghij", "abcdefgh", "abcdef"
        assert levenshtein(a, b) <= 0.3 * len(a)
        assert levenshtein(b, c) <= 0.3 * len(b)
        assert levenshtein(a, c) > 0.3 * len(a)
        ids = [RawIdentity(a, "1@x.com"), RawIdentity(b, "2@x.com"), RawIdentity(c, "3@x.com")]
        resolved = resolve_identities(ids)
        assert len(set(resolved.values())) == 1


_EMAILS = ("a@x.org", "A@x.org ", "b@y.org", "c@z.org", "d@w.org", "", " ")


@st.composite
def alias_cases(draw):
    """Identities whose names come from a small alphabet with accents,
    punctuation and spaces, so equal, near and empty normalized names are
    common, under e-mails that are often shared or empty; manual pairs that
    may name e-mails no identity has; and a threshold that may be 0 or 1."""
    names = st.text(alphabet="abé É.- ", max_size=7)
    ids = draw(st.lists(st.builds(RawIdentity, names, st.sampled_from(_EMAILS)), max_size=12))
    pairs = draw(st.lists(st.tuples(st.sampled_from(_EMAILS), st.sampled_from(_EMAILS)),
                          max_size=3))
    threshold = draw(st.sampled_from([0.0, 0.3, 1.0]) | st.floats(0.0, 1.0))
    return ids, threshold, pairs


def _developers(mapping):
    return {ident: (dev.canonical_key, dev.display_name, dev.emails, dev.names)
            for ident, dev in mapping.items()}


@given(alias_cases())
@settings(max_examples=400, deadline=None)
def test_resolution_matches_the_group_pair_oracle(case):
    ids, threshold, pairs = case
    assert _developers(resolve_identities(ids, threshold, pairs)) == group_pair_identities(
        ids, threshold, pairs
    )


def test_each_pair_of_distinct_names_is_compared_once(monkeypatch):
    """D distinct normalized names cost at most D(D-1)/2 distances, however
    many e-mails hold them, and identical names under different e-mails
    merge with none."""
    calls = []

    def counted(a, b, limit=None):
        calls.append((a, b))
        return levenshtein(a, b, limit)

    monkeypatch.setattr(identities, "levenshtein", counted)
    same = [RawIdentity("Ana Silva", "ana@x.org"), RawIdentity("ana  silvá", "silva@y.org")]
    assert len(set(resolve_identities(same).values())) == 1
    assert calls == []

    names = ["Ana Silva", "Bo Berg", "Cy Chen", "Dee Dunn", "Ed Eyre", "Flo Ford"]
    ids = [RawIdentity(name, f"{name[:2]}{copy}@x.org") for name in names for copy in range(5)]
    resolved = resolve_identities(ids)
    assert len(set(resolved.values())) == len(names)
    assert len(calls) <= len(names) * (len(names) - 1) // 2
    assert len(set(map(frozenset, calls))) == len(calls)


class TestCanonicalizeHistory:
    def test_planted_aliases_collapse(self):
        history = make_history(
            [
                ("ana@x.com", 0, [add("a.py", "x = 1\n")]),
                ("ANA@x.com", 1, [mod("a.py", "x = 1\n", "x = 2\n")]),
                ("ana@x.com", 2, [mod("a.py", "x = 2\n", "x = 3\n")]),
                ("bo@y.com", 3, [add("b.py", "y = 1\n")]),
                ("ana@x.com", 4, [mod("a.py", "x = 3\n", "x = 4\n")]),
            ]
        )
        canonical = canonicalize_history(history)
        authors = {c.author.email for c in canonical.commits}
        assert authors == {"ana@x.com", "bo@y.com"}
        assert [c.changes for c in canonical.commits] == [c.changes for c in history.commits]

    def test_one_developer_s_commits_share_one_author(self):
        history = make_history(
            [
                ("ana@x.com", 0, [add("a.py", "x = 1\n")]),
                ("ANA@x.com", 1, [mod("a.py", "x = 1\n", "x = 2\n")]),
                ("bo@y.com", 2, [add("b.py", "y = 1\n")]),
                ("ana@x.com", 3, [mod("a.py", "x = 2\n", "x = 3\n")]),
                ("bo@y.com", 4, [mod("b.py", "y = 1\n", "y = 2\n")]),
            ]
        )
        ana, ana_upper, bo, ana_again, bo_again = canonicalize_history(history).commits
        assert ana.author is ana_upper.author is ana_again.author
        assert bo.author is bo_again.author
        assert ana.author != bo.author

    def test_no_aliases_is_fixed_point(self):
        history = make_history(
            [
                ("ana@x.com", 0, [add("a.py", "x = 1\n")]),
                ("bo@y.com", 1, [add("b.py", "y = 1\n")]),
            ]
        )
        canonical = canonicalize_history(history)
        assert [c.author.email for c in canonical.commits] == ["ana@x.com", "bo@y.com"]

    def test_empty_history(self):
        history = make_history([])
        canonical = canonicalize_history(history)
        assert canonical.commits == ()

    def test_developer_ids_read_back_the_resolved_records(self):
        history = make_history(
            [
                ("ana@x.com", 0, [add("a.py", "x = 1\n")]),
                ("ANA@x.com", 1, [mod("a.py", "x = 1\n", "x = 2\n")]),
                ("bo@y.com", 2, [add("b.py", "y = 1\n")]),
            ]
        )
        resolved = resolve_identities([c.author for c in history.commits])
        assert developer_ids(canonicalize_history(history)) == {
            dev.canonical_key: dev for dev in resolved.values()
        }
        assert developer_ids(history) == {}


@pytest.mark.parametrize("malform", MALFORMED_IDENTITIES.values(), ids=MALFORMED_IDENTITIES.keys())
def test_malformed_identity_metadata_is_corrupt(malform):
    history = canonicalize_history(make_history([("ana@x.com", 0, [add("a.py", "x = 1\n")])]))
    assert set(developer_ids(history)) == {"ana@x.com"}
    with pytest.raises(CorruptHistory, match="^the history"):
        developer_ids(replace(history, metadata=malform(dict(history.metadata))))


def test_resolve_requires_no_crash_on_single(demo_history):
    # the demo repo plants one alias pair by email case and one by name
    authors = {c.author.email for c in demo_history.commits}
    assert authors == {"alice@dev.example.com", "bob@example.com", "carol@example.com"}


def test_alias_budget_is_inclusive_at_an_exact_product():
    # 0.3 * 10 == 3.0: three edits still merge, four do not
    assert lev_matrix("abcdefghij", "abcdefgxyz") == 3
    merged = resolve_identities(
        [RawIdentity("abcdefghij", "a@x.com"), RawIdentity("abcdefgxyz", "b@y.com")]
    )
    assert len(set(merged.values())) == 1
    assert lev_matrix("abcdefghij", "abcdefwxyz") == 4
    apart = resolve_identities(
        [RawIdentity("abcdefghij", "a@x.com"), RawIdentity("abcdefwxyz", "b@y.com")]
    )
    assert len(set(apart.values())) == 2


@pytest.mark.parametrize("threshold", [-0.2, 1.5, float("nan")])
def test_alias_threshold_outside_unit_interval_is_an_error(threshold):
    ids = [RawIdentity("jsmith", "a@x.com"), RawIdentity("j smith", "b@y.com")]
    with pytest.raises(InvalidThreshold, match="outside"):
        resolve_identities(ids, threshold=threshold)
    with pytest.raises(InvalidThreshold):
        resolve_identities([], threshold=threshold)


def test_alias_threshold_zero_disables_name_merging():
    ids = [RawIdentity("jsmith", "a@x.com"), RawIdentity("j smith", "b@y.com")]
    resolved = resolve_identities(ids, threshold=0.0)
    assert len(set(resolved.values())) == 2


@pytest.mark.parametrize(
    "a,b,expected",
    [("abc", "", 3), ("", "", 0), ("ab", "ba", 2), ("flaw", "lawn", 2)],
)
def test_levenshtein_cases(a, b, expected):
    assert levenshtein(a, b) == expected
