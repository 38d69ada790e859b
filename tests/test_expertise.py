"""Scoring, normalization, threshold classification and calibration."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fileexperts.errors import (
    EmptyOracle,
    InvalidThreshold,
    NegativeInput,
    TooFewSamples,
    UnscoredOraclePair,
)
from fileexperts.expertise import (
    BLAME,
    DOA,
    NUM_COMMITS,
    ExpertiseScore,
    OracleSets,
    calibrate,
    classify,
    doa,
    technique_scores,
    threshold_curve_to_csv,
)
from fileexperts.features import compute_all
from conftest import add, make_history, mod
from oracles import precise_doa, set_calibrate, set_classify


def _blame_scores(values: dict[str, float], file: str = "f.py") -> list[ExpertiseScore]:
    max_raw = max(values.values())
    return [
        ExpertiseScore(
            developer=dev,
            file=file,
            technique=BLAME,
            raw=raw,
            normalized=(max(raw, 0.0) / max_raw if max_raw > 0 else 0.0),
        )
        for dev, raw in values.items()
    ]


class TestDoa:
    def test_first_author_only(self):
        assert doa(1, 0, 0) == pytest.approx(4.391, abs=1e-12)

    def test_intercept_only(self):
        assert doa(0, 0, 0) == pytest.approx(3.293, abs=1e-12)

    def test_against_high_precision_oracle(self):
        assert doa(1, 10, 5) == pytest.approx(precise_doa(1, 10, 5), abs=1e-9)
        assert doa(1, 10, 5) == pytest.approx(
            3.293 + 1.098 + 1.64 - 0.321 * math.log(6), abs=1e-12
        )

    def test_negative_inputs(self):
        with pytest.raises(NegativeInput):
            doa(1, -1, 0)
        with pytest.raises(NegativeInput):
            doa(0, 0, -2)

    def test_monotone_in_dl_and_ac(self):
        for dl in range(0, 30, 3):
            assert doa(0, dl + 1, 5) > doa(0, dl, 5)
        for ac in range(0, 30, 3):
            assert doa(0, 5, ac + 1) < doa(0, 5, ac)


class TestNormalization:
    def test_worked_example(self):
        # blame 10, 15, 20 normalizes to 0.5, 0.75, 1.0
        history = make_history(
            [
                ("d1@x.com", 0, [add("f.py", "\n".join(f"a{i} = {i}" for i in range(10)) + "\n")]),
                (
                    "d2@x.com",
                    1,
                    [
                        mod(
                            "f.py",
                            "\n".join(f"a{i} = {i}" for i in range(10)) + "\n",
                            "\n".join(f"a{i} = {i}" for i in range(10))
                            + "\n"
                            + "\n".join(f"b{i} = {i}" for i in range(15))
                            + "\n",
                        )
                    ],
                ),
                (
                    "d3@x.com",
                    2,
                    [
                        mod(
                            "f.py",
                            "\n".join(f"a{i} = {i}" for i in range(10))
                            + "\n"
                            + "\n".join(f"b{i} = {i}" for i in range(15))
                            + "\n",
                            "\n".join(f"a{i} = {i}" for i in range(10))
                            + "\n"
                            + "\n".join(f"b{i} = {i}" for i in range(15))
                            + "\n"
                            + "\n".join(f"c{i} = {i}" for i in range(20))
                            + "\n",
                        )
                    ],
                ),
            ]
        )
        table = compute_all(history)
        scores = {s.developer: s for s in technique_scores(table, BLAME)}
        assert scores["d1@x.com"].raw == 10
        assert scores["d2@x.com"].raw == 15
        assert scores["d3@x.com"].raw == 20
        assert scores["d1@x.com"].normalized == 0.5
        assert scores["d2@x.com"].normalized == 0.75
        assert scores["d3@x.com"].normalized == 1.0

    def test_single_developer_normalizes_to_one(self):
        scores = _blame_scores({"d1": 7.0})
        assert scores[0].normalized == 1.0

    def test_all_zero_raw_normalizes_to_zero(self):
        scores = _blame_scores({"d1": 0.0, "d2": 0.0})
        assert all(s.normalized == 0.0 for s in scores)

    def test_scale_invariance(self):
        base = {"d1": 4.0, "d2": 6.0, "d3": 12.0}
        for c in (0.5, 3.0, 100.0):
            scaled = {d: c * v for d, v in base.items()}
            a = {s.developer: s.normalized for s in _blame_scores(base)}
            b = {s.developer: s.normalized for s in _blame_scores(scaled)}
            assert a == b

    def test_doa_scores_from_table(self):
        history = make_history(
            [
                ("d1@x.com", 0, [add("f.py", "x = 1\n")]),
                ("d2@x.com", 1, [mod("f.py", "x = 1\n", "x = 2\n")]),
            ]
        )
        table = compute_all(history)
        scores = {s.developer: s for s in technique_scores(table, DOA)}
        assert scores["d1@x.com"].raw == pytest.approx(doa(1, 1, 1))
        assert scores["d2@x.com"].raw == pytest.approx(doa(0, 1, 1))


class TestClassify:
    def test_worked_example_k_07(self):
        scores = _blame_scores({"d1": 10, "d2": 15, "d3": 20})
        experts = classify(scores, 0.7)
        assert experts == {("d2", "f.py"), ("d3", "f.py")}

    def test_zero_threshold_requires_positive(self):
        scores = _blame_scores({"d1": 0.0, "d2": 1.0})
        experts = classify(scores, 0.0)
        assert experts == {("d2", "f.py")}

    def test_boundary_k_one(self):
        scores = _blame_scores({"d1": 5.0, "d2": 10.0})
        assert classify(scores, 1.0) == {("d2", "f.py")}

    def test_exact_boundary_inclusion(self):
        scores = _blame_scores({"d1": 1.0, "d2": 10.0})
        assert scores[0].normalized == 0.1
        assert ("d1", "f.py") in classify(scores, 0.1)

    def test_invalid_threshold(self):
        with pytest.raises(InvalidThreshold):
            classify([], -0.1)
        with pytest.raises(InvalidThreshold):
            classify([], 1.5)


def test_oracle_orders_and_labels_its_pairs_outside_equality():
    experts, non_experts = frozenset({("b", "f"), ("a", "g")}), frozenset({("a", "f")})
    oracle = OracleSets(declared_experts=experts, declared_non_experts=non_experts)
    assert oracle.pairs == (("a", "f"), ("a", "g"), ("b", "f"))
    assert oracle.labels == (False, True, True)
    twin = OracleSets(declared_experts=set(experts), declared_non_experts=set(non_experts))
    assert oracle == twin and hash(oracle) == hash(OracleSets(experts, non_experts))
    assert repr(oracle) == (
        f"OracleSets(declared_experts={experts!r}, declared_non_experts={non_experts!r})"
    )
    with pytest.raises(TypeError):
        OracleSets(experts, non_experts, pairs=())


class TestEvaluate:
    """The oracle checks that evaluation against the declared sets makes."""

    def test_empty_oracle(self):
        oracle = OracleSets(declared_experts=frozenset(), declared_non_experts=frozenset({("c", "f")}))
        with pytest.raises(EmptyOracle, match="recall is undefined"):
            calibrate(_blame_scores({"c": 1.0}), oracle)

    def test_unscored_pair(self):
        oracle = OracleSets(
            declared_experts=frozenset({("a", "f.py")}),
            declared_non_experts=frozenset({("b", "f.py")}),
        )
        with pytest.raises(UnscoredOraclePair, match=r"1 labeled pairs.*\('b', 'f.py'\)"):
            calibrate(_blame_scores({"a": 1.0}), oracle, folds=2)

    def test_oracle_sets_must_be_disjoint(self):
        with pytest.raises(ValueError):
            OracleSets(
                declared_experts=frozenset({("a", "f")}),
                declared_non_experts=frozenset({("a", "f")}),
            )


def _synthetic_calibration_setup(n_per_level: int = 4):
    """Scores on a 0.05..0.95 lattice with experts exactly at >= 0.5."""
    scores = []
    experts = set()
    non_experts = set()
    for level in range(10):
        normalized = level / 10 + 0.05
        for i in range(n_per_level):
            dev, file = f"d{level}_{i}", f"f{level}_{i}.py"
            scores.append(
                ExpertiseScore(dev, file, BLAME, raw=normalized * 100, normalized=normalized)
            )
            (experts if normalized >= 0.5 else non_experts).add((dev, file))
    oracle = OracleSets(
        declared_experts=frozenset(experts), declared_non_experts=frozenset(non_experts)
    )
    return scores, oracle


class TestCalibrate:
    def test_recovers_planted_threshold(self):
        scores, oracle = _synthetic_calibration_setup()
        curve = calibrate(scores, oracle, folds=10, seed=0)
        assert curve.best_k == 0.5
        best_point = next(p for p in curve.points if p.k == 0.5)
        assert best_point.f_measure == 1.0
        assert len(curve.points) == 11

    def test_recall_non_increasing_in_k(self):
        scores, oracle = _synthetic_calibration_setup()
        curve = calibrate(scores, oracle, folds=5, seed=3)
        recalls = [p.recall for p in curve.points if p.k > 0]
        assert all(a >= b for a, b in zip(recalls, recalls[1:]))

    def test_all_experts_ties_break_to_smallest_k(self):
        scores = []
        experts = set()
        for i in range(12):
            dev, file = f"d{i}", f"f{i}.py"
            scores.append(ExpertiseScore(dev, file, NUM_COMMITS, raw=3.0, normalized=1.0))
            experts.add((dev, file))
        oracle = OracleSets(declared_experts=frozenset(experts), declared_non_experts=frozenset())
        curve = calibrate(scores, oracle, folds=10, seed=0)
        assert curve.best_k == 0.0
        assert all(p.f_measure == 1.0 for p in curve.points)

    def test_too_few_samples(self):
        scores, oracle = _synthetic_calibration_setup(n_per_level=1)
        few_experts = frozenset(list(oracle.declared_experts)[:4])
        few_non = frozenset(list(oracle.declared_non_experts)[:5])
        small = OracleSets(declared_experts=few_experts, declared_non_experts=few_non)
        with pytest.raises(TooFewSamples):
            calibrate(scores, small, folds=10)

    def test_unscored_oracle_pair(self):
        scores, oracle = _synthetic_calibration_setup()
        extra = OracleSets(
            declared_experts=oracle.declared_experts | {("ghost", "g.py")},
            declared_non_experts=oracle.declared_non_experts,
        )
        with pytest.raises(UnscoredOraclePair):
            calibrate(scores, extra)

    def test_curve_csv(self):
        scores, oracle = _synthetic_calibration_setup()
        curve = calibrate(scores, oracle)
        lines = threshold_curve_to_csv(curve).splitlines()
        assert lines[0] == "k,precision,recall,f_measure"
        assert len(lines) == 12


@st.composite
def scored_oracles(draw):
    """Per-file normalized scores from small raw counts, so ties, zeros,
    all-zero files and scores exactly on a threshold all occur, with each
    scored pair an expert, a non-expert or unlabeled."""
    scores, experts, non_experts = [], set(), set()
    for f in range(draw(st.integers(1, 8))):
        raws = draw(st.lists(st.integers(0, 10), min_size=1, max_size=6))
        values = {f"d{i}": float(raw) for i, raw in enumerate(raws)}
        file_scores = _blame_scores(values, f"f{f}.py")
        for score in file_scores:
            label = draw(st.sampled_from(["expert", "non_expert", "unlabeled"]))
            pair = (score.developer, score.file)
            if label == "expert":
                experts.add(pair)
            elif label == "non_expert":
                non_experts.add(pair)
        scores += file_scores
    oracle = OracleSets(
        declared_experts=frozenset(experts), declared_non_experts=frozenset(non_experts)
    )
    return scores, oracle


@settings(max_examples=300, deadline=None)
@given(scored_oracles(), st.integers(2, 10), st.integers(0, 50), st.sampled_from(range(11)))
def test_scoring_equals_set_algebra_oracle(scored, folds, seed, tenths):
    scores, oracle = scored
    k = tenths / 10
    assert classify(scores, k) == set_classify(scores, k)
    if not oracle.declared_experts:
        with pytest.raises(EmptyOracle, match="recall is undefined"):
            calibrate(scores, oracle, folds=folds, seed=seed)
        return
    if len(oracle.labeled) < folds:
        with pytest.raises(TooFewSamples):
            calibrate(scores, oracle, folds=folds, seed=seed)
        return
    assert calibrate(scores, oracle, folds=folds, seed=seed) == set_calibrate(
        scores, oracle, folds=folds, seed=seed
    )
