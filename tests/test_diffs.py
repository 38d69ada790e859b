"""Diff alignment, change classification, conditionals, and blame replay."""

import random
import subprocess
import time
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fileexperts.diffs import (
    classify_changes,
    count_conditionals,
    diff_lines,
    is_modification_pair,
    split_lines,
)
from fileexperts.errors import InvalidThreshold
from fileexperts.features import compute_all
from fileexperts.fixtures import RepoBuilder
from fileexperts.gitlog import extract_history
from fileexperts.languages import LanguageSpec, default_language_config
from conftest import add, blame_authors, make_history, mod
from oracles import (
    _oracle_count_conditionals,
    _oracle_file_conditionals,
    apply_hunks,
    lev_matrix,
    naive_diff,
)

LANGUAGES = default_language_config().languages

# small alphabets force collisions, which is where alignments get interesting
line_strategy = st.lists(
    st.sampled_from(["alpha", "beta", "gamma", "x", "y", ""]), max_size=20
)


@st.composite
def long_line_pairs(draw):
    """Two sequences of up to 300 lines over one shared 3-6 line alphabet,
    so bit rows span many int digits and walks cross many hunks."""
    alphabet = ["alpha", "beta", "gamma", "x", "y", ""][: draw(st.integers(3, 6))]

    def lines():
        size = draw(st.integers(0, 300))
        return draw(st.lists(st.sampled_from(alphabet), min_size=size, max_size=size))

    return lines(), lines()


def block_rewrite(n: int, block: int = 50) -> tuple[list[str], list[str]]:
    """n unique lines, with every other block of lines rewritten."""
    before = [f"value_{i} = compute({i})" for i in range(n)]
    after = [
        f"rewritten_{i} = other({i})" if (i // block) % 2 else line
        for i, line in enumerate(before)
    ]
    return before, after


def diff_texts(before, after):
    """The hunks between two file contents; empty content is zero lines."""
    return diff_lines(split_lines(before), split_lines(after))


def as_tuples(hunks):
    return [(h.before_start, h.after_start, list(h.removed), list(h.added)) for h in hunks]


class TestLineDiff:
    def test_identical_texts(self):
        assert diff_texts("a\nb\nc", "a\nb\nc") == []

    def test_pure_addition(self):
        hunks = diff_texts("", "one\ntwo\nthree\n")
        assert len(hunks) == 1
        assert hunks[0].removed == ()
        assert hunks[0].added == ("one", "two", "three")

    def test_single_line_replacement(self):
        before = "l1\nl2\nl3\nl4\nl5\n"
        after = "l1\nl2\nCHANGED\nl4\nl5\n"
        hunks = diff_texts(before, after)
        assert len(hunks) == 1
        assert hunks[0].removed == ("l3",)
        assert hunks[0].added == ("CHANGED",)
        assert hunks[0].before_start == 2

    @given(line_strategy, line_strategy)
    def test_reconstruction(self, before, after):
        hunks = diff_texts("\n".join(before), "\n".join(after))
        rebuilt = apply_hunks(split_lines("\n".join(before)), hunks)
        assert rebuilt == split_lines("\n".join(after))

    @given(line_strategy, line_strategy)
    def test_matches_naive_oracle(self, before, after):
        ours = diff_texts("\n".join(before), "\n".join(after))
        theirs = naive_diff(split_lines("\n".join(before)), split_lines("\n".join(after)))
        assert [
            (h.before_start, h.after_start, list(h.removed), list(h.added)) for h in ours
        ] == theirs

    @settings(max_examples=100, deadline=None)
    @given(long_line_pairs())
    def test_long_sequences_match_naive_oracle(self, pair):
        before, after = pair
        ours = diff_texts("\n".join(before), "\n".join(after))
        theirs = naive_diff(split_lines("\n".join(before)), split_lines("\n".join(after)))
        assert as_tuples(ours) == theirs

    def test_big_rewrite_matches_naive_oracle(self):
        before, after = block_rewrite(1000)
        after = [line + "  # touched" if i % 10 == 0 else line for i, line in enumerate(after)]
        assert as_tuples(diff_lines(before, after)) == naive_diff(before, after)

    def test_large_rewrite_memory_is_bounded(self):
        # a full table of list cells would need about 512 MB here
        before, after = block_rewrite(8000)
        tracemalloc.start()
        try:
            hunks = diff_lines(before, after)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(hunks) == 80
        assert peak < 64 * 1024 * 1024

    def test_no_empty_hunks(self):
        for hunk in diff_texts("a\nb\nc\nd", "a\nx\nc\ny"):
            assert hunk.removed or hunk.added


class TestClassifyChanges:
    def test_small_edit_is_modification(self):
        hunks = diff_texts("int x = 0;", "int x = 1;")
        stats = classify_changes(hunks)
        # distance 1 < 0.4 * 10
        assert lev_matrix("int x = 0;", "int x = 1;") == 1
        assert (stats.adds, stats.dels, stats.mods) == (0, 0, 1)

    def test_rewrite_is_delete_plus_add(self):
        hunks = diff_texts("alpha", "zzzzz")
        stats = classify_changes(hunks)
        # distance 5 >= 0.4 * 5
        assert lev_matrix("alpha", "zzzzz") == 5
        assert (stats.adds, stats.dels, stats.mods) == (1, 1, 0)

    def test_unpaired_lines_are_pure_adds(self):
        hunks = diff_texts("", "a\nb")
        stats = classify_changes(hunks)
        assert (stats.adds, stats.dels, stats.mods) == (2, 0, 0)

    def test_empty_removed_line_never_modified(self):
        hunks = diff_texts("keep\n\nkeep2", "keep\nfilled\nkeep2")
        stats = classify_changes(hunks)
        assert stats.mods == 0
        assert stats.adds == 1 and stats.dels == 1

    def test_invalid_threshold(self):
        with pytest.raises(InvalidThreshold):
            classify_changes([], mod_threshold=1.5)

    def test_budget_boundary_at_exact_product(self):
        # 0.4 * 5 == 2.0: distance 1 is under the budget, distance 2 is not
        assert is_modification_pair("abcde", "abcdX")
        assert not is_modification_pair("abcde", "abcXY")

    def test_budget_boundary_at_fractional_product(self):
        # 0.4 * 6 == 2.4: distance 2 is under the budget, distance 3 is not
        assert is_modification_pair("abcdef", "abcdXY")
        assert not is_modification_pair("abcdef", "abcXYZ")

    def test_budget_boundary_on_a_long_line(self):
        # 0.4 * 1000 == 400: 399 edits are under the budget, 400 are not.
        # Each edit writes a character the line lacks, so k edits are
        # exactly distance k.
        rng = random.Random(0)
        line = "".join(rng.choice("abcdefghij") for _ in range(1000))
        positions = rng.sample(range(1000), 400)

        def edited(count):
            chars = list(line)
            for position in positions[:count]:
                chars[position] = "#"
            return "".join(chars)

        assert is_modification_pair(line, edited(399))
        assert not is_modification_pair(line, edited(400))

    def test_zero_threshold_is_never_a_modification(self):
        assert not is_modification_pair("abcdef", "abcdef", mod_threshold=0.0)
        assert not is_modification_pair("abcdef", "abcdeX", mod_threshold=0.0)

    def test_empty_removed_line_is_never_a_modification(self):
        assert not is_modification_pair("", "")
        assert not is_modification_pair("", "x", mod_threshold=1.0)

    @given(st.text(alphabet="ab c", max_size=14), st.text(alphabet="ab c", max_size=14),
           st.sampled_from([0.0, 0.1, 0.25, 0.4, 0.5, 1.0]))
    def test_matches_unbounded_rule(self, removed, added, threshold):
        expected = lev_matrix(removed, added) < threshold * len(removed)
        assert is_modification_pair(removed, added, threshold) == expected

    @given(line_strategy, line_strategy)
    @settings(max_examples=60)
    def test_conservation(self, before, after):
        hunks = diff_texts("\n".join(before), "\n".join(after))
        stats = classify_changes(hunks)
        total_hunk_lines = sum(len(h.removed) + len(h.added) for h in hunks)
        assert stats.adds + stats.dels + 2 * stats.mods == total_hunk_lines


# entries a language table may hold that a lexer could mistake: markers
# longer than one character, an empty entry, a backslash, and characters
# that are special inside a regex character class
_ODD_ENTRIES = ["#", "//", "--", "'", '"', "`", "''", "", "\\", "]", "^", "-"]


@st.composite
def language_tables(draw):
    """A language table with any mix of keywords, comment markers and
    quotes, a quote possibly also being a comment marker."""
    return LanguageSpec(
        name="odd",
        extensions=(".odd",),
        conditional_keywords=tuple(
            draw(st.lists(st.sampled_from(["if", "elif", "case", "when", "x"]), max_size=3))
        ),
        count_ternary=draw(st.booleans()),
        line_comments=tuple(draw(st.lists(st.sampled_from(_ODD_ENTRIES), max_size=3))),
        string_quotes=tuple(draw(st.lists(st.sampled_from(_ODD_ENTRIES), max_size=4))),
    )


class TestCountConditionals:
    def test_c_family_if(self):
        assert count_conditionals(["if (x > 0) {"], LANGUAGES["java"]) == 1

    def test_comment_excluded(self):
        assert count_conditionals(["// if disabled"], LANGUAGES["java"]) == 0

    def test_python_elif_counts_else_does_not(self):
        assert count_conditionals(["elif x:", "else:"], LANGUAGES["python"]) == 1

    def test_string_literal_excluded(self):
        assert count_conditionals(['print("if x")'], LANGUAGES["python"]) == 0
        assert count_conditionals(["msg = 'case one'"], LANGUAGES["java"]) == 0

    def test_ternary_counts_where_configured(self):
        assert count_conditionals(["return x > 0 ? a : b;"], LANGUAGES["javascript"]) == 1
        assert count_conditionals(["maybe = '?'"], LANGUAGES["python"]) == 0

    def test_ruby_keywords(self):
        lines = ["return 1 unless ready", "when :x then 2"]
        assert count_conditionals(lines, LANGUAGES["ruby"]) == 2

    def test_keyword_inside_identifier_ignored(self):
        assert count_conditionals(["verify(x)", "lowercase = 1"], LANGUAGES["java"]) == 0

    def test_comment_marker_mid_line_without_quote(self):
        assert count_conditionals(["x = 1  # if y"], LANGUAGES["python"]) == 0
        assert count_conditionals(["if x:  # if y"], LANGUAGES["python"]) == 1

    def test_ternary_after_line_comment(self):
        assert count_conditionals(["x = 1; // a ? b : c"], LANGUAGES["javascript"]) == 0
        assert count_conditionals(["x = a ? b : c; // d ? e"], LANGUAGES["javascript"]) == 1

    def test_quote_without_keyword(self):
        assert count_conditionals(["name = 'value'"], LANGUAGES["python"]) == 0
        assert count_conditionals(['if name == "x":'], LANGUAGES["python"]) == 1

    def test_no_keywords_count_only_ternaries(self):
        plain = LanguageSpec(name="plain", extensions=(".pl",), conditional_keywords=(),
                             count_ternary=False, line_comments=("#",), string_quotes=('"',))
        ternary = replace(plain, name="ternary", extensions=(".tn",), count_ternary=True)
        lines = ["total = price * qty", "x = 1", 'if y: z = "?"']
        assert count_conditionals(lines, plain) == 0
        assert count_conditionals(lines + ["w = a ? b : c  # ?"], ternary) == 1

    @given(
        st.lists(
            st.lists(
                st.sampled_from(["if ", "elif", "case", "when", "x", " ", "?", "'", '"', "`",
                                 "#", "/", "\\"]),
                max_size=12,
            ).map("".join),
            max_size=6,
        ),
        st.sampled_from([(".py", "python"), (".js", "javascript"), (".rb", "ruby")]),
    )
    def test_matches_oracle(self, lines, language):
        ext, name = language
        assert count_conditionals(lines, LANGUAGES[name]) == _oracle_file_conditionals(lines, ext)

    @given(language_tables(), st.data())
    def test_matches_oracle_on_any_table(self, spec, data):
        pieces = ["if ", "x", " ", "?", "\\", *spec.conditional_keywords, *spec.line_comments,
                  *spec.string_quotes]
        lines = data.draw(
            st.lists(st.lists(st.sampled_from(pieces), max_size=12).map("".join), max_size=6)
        )
        expected = _oracle_count_conditionals(
            lines, spec.conditional_keywords, spec.count_ternary, spec.line_comments,
            spec.string_quotes,
        )
        assert count_conditionals(lines, spec) == expected

    @pytest.mark.parametrize("language, ext", [("python", ".py"), ("javascript", ".js")])
    def test_long_line_of_quotes_and_backslashes_costs_linear_time(self, language, ext):
        # a lexeme pattern that backtracked would take minutes on this line
        line = "'\\\"`\\" * 6_000
        assert len(line) == 30_000
        started = time.perf_counter()
        counted = count_conditionals([line], LANGUAGES[language])
        assert time.perf_counter() - started < 1.0
        assert counted == _oracle_file_conditionals([line], ext)


class TestReplayBlame:
    def test_single_author_owns_everything(self):
        history = make_history([("d1@x.com", 0, [add("a.py", "l1\nl2\nl3\n")])])
        assert Counter(blame_authors(history, "a.py")) == {"d1@x.com": 3}

    def test_modification_transfers_authorship(self):
        before = "\n".join(f"line_{i} = {i}" for i in range(10)) + "\n"
        after = before.replace("line_3 = 3", "line_3 = 30")
        history = make_history(
            [
                ("d1@x.com", 0, [add("a.py", before)]),
                ("d2@x.com", 1, [mod("a.py", before, after)]),
            ]
        )
        authors = blame_authors(history, "a.py")
        assert Counter(authors) == {"d1@x.com": 9, "d2@x.com": 1}
        assert dict(zip(split_lines(after), authors, strict=True))["line_3 = 30"] == "d2@x.com"

    def test_deleted_file_raises(self):
        history = make_history(
            [("d1@x.com", 0, [add("a.py", "x\n")])], present=set()
        )
        assert compute_all(history).rows == ()
        with pytest.raises(KeyError):
            blame_authors(history, "a.py")
        with pytest.raises(KeyError):
            blame_authors(history, "never_existed.py")

    def test_totals_equal_size(self):
        v1 = "a = 1\nb = 2\n"
        v2 = "a = 1\nb = 2\nc = 3\nd = 4\n"
        v3 = "a = 9\nb = 2\nc = 3\nd = 4\n"
        history = make_history(
            [
                ("d1@x.com", 0, [add("a.py", v1)]),
                ("d2@x.com", 1, [mod("a.py", v1, v2)]),
                ("d3@x.com", 2, [mod("a.py", v2, v3)]),
            ]
        )
        assert len(blame_authors(history, "a.py")) == len(split_lines(v3)) == 4
        vectors = compute_all(history).pair_map().values()
        assert sum(v.blame for v in vectors) == 4
        assert {v.size for v in vectors} == {4}

    def test_agrees_with_git_blame_without_modifications(self, tmp_path):
        # pure insertions with unique lines: any LCS-equivalent tool must
        # attribute identically
        repo = RepoBuilder(tmp_path / "repo")
        v1 = "u_one = 1\nu_two = 2\nu_three = 3\n"
        v2 = "u_zero = 0\nu_one = 1\nu_two = 2\nu_three = 3\n"
        v3 = "u_zero = 0\nu_one = 1\nu_mid = 9\nu_two = 2\nu_three = 3\nu_tail = 4\n"
        repo.commit("Ana", "ana@x.com", 1_600_000_000, writes={"a.py": v1})
        repo.commit("Bo", "bo@y.com", 1_600_100_000, writes={"a.py": v2})
        repo.commit("Cy", "cy@z.com", 1_600_200_000, writes={"a.py": v3})
        path = repo.finish()

        history = extract_history(path, "main")
        ours = blame_authors(history, "a.py")

        out = subprocess.run(
            ["git", "-C", str(path), "blame", "--line-porcelain", "main", "--", "a.py"],
            capture_output=True,
            text=True,
        ).stdout
        theirs = [
            line.removeprefix("author-mail <").removesuffix(">")
            for line in out.splitlines()
            if line.startswith("author-mail ")
        ]
        assert ours == theirs


def test_rename_only_event_keeps_blame():
    content = "x = 1\ny = 2\n"
    history = make_history(
        [
            ("d1@x.com", 0, [add("a.py", content)]),
            ("d2@x.com", 1, [("rename", "b.py", "a.py", content, content)]),
        ]
    )
    assert Counter(blame_authors(history, "b.py")) == {"d1@x.com": 2}
