"""Spearman correlation: coefficients, p-values, ties, and the matrix."""

import math
import os
import subprocess
import sys
import time
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fileexperts
from fileexperts.errors import ConstantInput, LengthMismatch, TooFewSamples
from fileexperts.features import FeatureRow, FeatureTable, FeatureVector
from fileexperts.stats import (
    _beta_half,
    _t_approximation_p,
    average_ranks,
    correlation_matrix,
    knowledge_correlations,
    spearman,
    spearman_permutation_p,
)
from conftest import BASE_TIME
from oracles import brute_force_ranks, permutation_p_loop, spearman_no_ties, student_t_tail


class TestSpearman:
    def test_perfect_monotone(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]).rho == pytest.approx(1.0, abs=1e-12)

    def test_perfect_inverse(self):
        assert spearman([1, 2, 3, 4], [40, 30, 20, 10]).rho == pytest.approx(-1.0, abs=1e-12)

    def test_rank_formula_worked_example(self):
        # 1 - 6*sum(d^2)/(n(n^2-1)) with d^2 = 4, n = 5 gives 0.8
        x, y = [1, 2, 3, 4, 5], [2, 1, 4, 3, 5]
        expected = spearman_no_ties(x, y)
        assert expected == pytest.approx(0.8, abs=1e-15)
        assert spearman(x, y).rho == pytest.approx(expected, abs=1e-12)

    def test_matches_formula_on_random_permutations(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(3, 30))
            x = rng.permutation(n) + 1.0
            y = rng.permutation(n) + 1.0
            assert spearman(x, y).rho == pytest.approx(
                spearman_no_ties(list(x), list(y)), abs=1e-12
            )

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            spearman([1, 2, 3], [1, 2])
        with pytest.raises(TooFewSamples):
            spearman([1, 2], [3, 4])
        with pytest.raises(ConstantInput):
            spearman([1, 1, 1], [1, 2, 3])
        with pytest.raises(ConstantInput):
            spearman([1, 2, 3], [5, 5, 5])

    @given(
        st.one_of(
            st.lists(st.integers(min_value=0, max_value=5), min_size=3, max_size=10),
            st.lists(st.sampled_from([0.0, -0.0, 0.5, -2.25, 1e300]), min_size=0, max_size=10),
        )
    )
    @settings(max_examples=200)
    def test_tie_ranks_match_brute_force(self, values):
        assert average_ranks(values).tolist() == brute_force_ranks(values)

    def test_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=20)
        y = rng.normal(size=20) + 0.5 * x
        base = spearman(x, y).rho
        for transform in (np.exp, lambda v: 3 * v + 7, lambda v: v**3):
            assert spearman(transform(x), y).rho == pytest.approx(base, abs=1e-12)
            assert spearman(x, transform(y)).rho == pytest.approx(base, abs=1e-12)

    def test_p_value_decreases_with_rho_at_fixed_n(self):
        n = 12
        base = np.arange(n, dtype=float)
        previous_p = 1.1
        for noise in (2.0, 1.0, 0.5, 0.1):
            rng = np.random.default_rng(4)
            y = base + rng.normal(scale=noise, size=n)
            result = spearman(base, y)
            assert result.p_value <= previous_p + 1e-12
            previous_p = result.p_value

    def test_extreme_rho_p_is_zero(self):
        assert spearman([1, 2, 3, 4, 5], [1, 2, 3, 4, 5]).p_value == 0.0


class TestPermutationP:
    def test_agrees_with_t_approximation_n8(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.permutation(8) + rng.uniform(0, 0.01, 8)
            y = rng.permutation(8) + rng.uniform(0, 0.01, 8)
            approx = spearman(x, y).p_value
            exact = spearman_permutation_p(x, y)
            assert abs(approx - exact) <= 0.05

    def test_exact_for_tiny_samples(self):
        # perfectly monotone n=4: only the 2 extreme orderings of 24 match
        p = spearman_permutation_p([1, 2, 3, 4], [1, 2, 3, 4])
        assert p == pytest.approx(2 / 24)

    def test_monte_carlo_path_is_seeded(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=12)
        y = rng.normal(size=12)
        a = spearman_permutation_p(x, y, samples=2000, seed=5)
        b = spearman_permutation_p(x, y, samples=2000, seed=5)
        assert a == b

    @staticmethod
    def _tied(rng, n, low=1, high=6):
        """Knowledge-like values on a small scale, never constant."""
        values = rng.integers(low, high, n).astype(float)
        values[0], values[1] = low, high - 1
        return rng.permutation(values)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_exact_path_equals_loop_oracle(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            x, y = self._tied(rng, n, 0, 4), self._tied(rng, n)
            assert spearman_permutation_p(x, y) == permutation_p_loop(x, y)
        x = rng.permutation(n) + 1.0
        assert spearman_permutation_p(x, x) == permutation_p_loop(x, x)

    @pytest.mark.parametrize("n", [9, 40, 400])
    @pytest.mark.parametrize("samples", [1, 2500])
    def test_monte_carlo_path_equals_loop_oracle(self, n, samples):
        rng = np.random.default_rng(n + samples)
        y = self._tied(rng, n)
        correlated = y * 3 + rng.integers(0, 4, n)
        for seed in (0, 1, 29):
            for x in (self._tied(rng, n, 0, 3), correlated, -correlated):
                got = spearman_permutation_p(x, y, samples=samples, seed=seed)
                assert got == permutation_p_loop(x, y, samples=samples, seed=seed)

    @pytest.mark.parametrize("n", [6, 40])
    def test_stack_equals_single_columns(self, n):
        rng = np.random.default_rng(7)
        y = self._tied(rng, n)
        stack = np.array([self._tied(rng, n, 0, 2 + k) for k in range(5)])
        got = spearman_permutation_p(stack, y, samples=2500, seed=3)
        assert isinstance(got, list) and len(got) == 5
        assert got == [spearman_permutation_p(x, y, samples=2500, seed=3) for x in stack]
        assert got == [permutation_p_loop(x, y, samples=2500, seed=3) for x in stack]
        assert isinstance(spearman_permutation_p(stack[0], y), float)

    def test_constant_column_raises(self):
        y = [1, 2, 3, 4, 5, 1, 2, 3, 4, 5]
        with pytest.raises(ConstantInput):
            spearman_permutation_p([2] * 10, y)
        with pytest.raises(ConstantInput):
            spearman_permutation_p([list(range(10)), [2] * 10], y)
        with pytest.raises(ConstantInput):
            spearman_permutation_p([list(range(10))], [3] * 10)

    def test_memory_is_bounded_by_the_block(self):
        """Twelve columns at n = 5,000 with 20,000 draws would need 800 MB
        of permutations at once; blocks of 2**20 values keep it small."""
        rng = np.random.default_rng(11)
        n = 5000
        y = self._tied(rng, n)
        stack = rng.integers(0, 200, size=(12, n)).astype(float)
        tracemalloc.start()
        try:
            spearman_permutation_p(stack, y, samples=20000)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


def _table(rows_spec):
    """rows_spec: list of (dev, file, dict of feature overrides)."""
    rows = []
    for dev, file, overrides in rows_spec:
        fields = dict(
            adds=0, dels=0, mods=0, conds=0, amount=0, fa=0, blame=0,
            num_commits=1, num_days=0, num_mod_devs=0, size=1, avg_days_commits=0.0,
        )
        fields.update(overrides)
        rows.append(
            FeatureRow(
                developer=dev,
                file=file,
                features=FeatureVector(**fields),
            )
        )
    return FeatureTable(rows=tuple(rows), reference_time=BASE_TIME)


class TestCorrelationMatrix:
    def _synthetic(self):
        rng = np.random.default_rng(9)
        spec = []
        for i in range(25):
            adds = int(rng.integers(1, 100))
            spec.append(
                (
                    f"d{i}",
                    f"f{i}.py",
                    dict(
                        adds=adds,
                        dels=0,
                        amount=adds,  # dels == 0 so amount == adds
                        blame=int(rng.integers(0, 50)),
                        num_commits=int(rng.integers(1, 20)),
                        num_days=int(rng.integers(0, 400)),
                        size=int(rng.integers(1, 900)),
                        avg_days_commits=float(rng.uniform(0, 30)),
                        num_mod_devs=int(rng.integers(0, 6)),
                        mods=int(rng.integers(0, 10)),
                        conds=int(rng.integers(0, 10)),
                        fa=int(rng.integers(0, 2)),
                    ),
                )
            )
        return _table(spec)

    def test_symmetry_and_diagonal(self):
        matrix = correlation_matrix(self._synthetic())
        for a in matrix.variables:
            for b in matrix.variables:
                cell_ab, cell_ba = matrix.cell(a, b), matrix.cell(b, a)
                assert (cell_ab is None) == (cell_ba is None)
                if cell_ab is not None:
                    assert cell_ab.rho == cell_ba.rho
        for name in matrix.variables:
            diag = matrix.cell(name, name)
            if diag is not None:
                assert diag.rho == pytest.approx(1.0, abs=1e-12)

    def test_identity_between_adds_and_amount(self):
        matrix = correlation_matrix(self._synthetic())
        assert matrix.cell("adds", "amount").rho == pytest.approx(1.0, abs=1e-12)

    def test_constant_variable_recorded_as_error(self):
        matrix = correlation_matrix(self._synthetic())
        # dels is identically 0 in this table
        assert ("dels", "adds") in matrix.errors
        assert matrix.cell("dels", "adds") is None

    def test_knowledge_column_joins(self):
        table = self._synthetic()
        knowledge = {
            (row.developer, row.file): (i % 5) + 1
            for i, row in enumerate(table.rows)
        }
        matrix = correlation_matrix(table, knowledge)
        assert "knowledge" in matrix.variables


def _knowledge_table():
    rng = np.random.default_rng(12)
    spec = []
    knowledge = {}
    for i in range(40):
        k = int(rng.integers(1, 6))
        spec.append(
            (
                f"d{i}",
                f"f{i}.py",
                dict(
                    adds=int(10 * k + rng.integers(0, 5)),  # positively related
                    num_days=int(500 - 90 * k + rng.integers(0, 20)),  # negatively related
                    dels=int(rng.integers(0, 40)),
                    amount=0,
                    blame=int(rng.integers(0, 50)),
                    size=int(rng.integers(1, 900)),
                ),
            )
        )
        knowledge[(f"d{i}", f"f{i}.py")] = k
    return _table(spec), knowledge


def test_knowledge_correlations_sorted_ascending():
    results, errors = knowledge_correlations(*_knowledge_table())
    rhos = [r.rho for r in results]
    assert rhos == sorted(rhos)
    by_name = {r.variable: r.rho for r in results}
    assert by_name["adds"] > 0.8
    assert by_name["num_days"] < -0.8


def test_matrix_knowledge_cells_equal_knowledge_correlations():
    """Both modes rank one join of the same columns: each variable's cell
    against knowledge is its knowledge correlation, and the variables whose
    diagonal is undefined are the ones knowledge_correlations reports."""
    table, knowledge = _knowledge_table()
    results, errors = knowledge_correlations(table, knowledge)
    matrix = correlation_matrix(table, knowledge)
    assert matrix.variables[-1] == "knowledge"
    for result in results:
        cell = matrix.cell(result.variable, "knowledge")
        assert (cell.rho, cell.p_value, cell.n) == (result.rho, result.p_value, result.n)
    undefined = {a: message for (a, b), message in matrix.errors.items() if a == b}
    assert undefined == errors
    assert errors["amount"] == "rho is undefined for a constant input"
    assert len(results) + len(errors) == len(matrix.variables) - 1


def test_knowledge_correlations_permutation_p_equals_loop_oracle():
    table, knowledge = _knowledge_table()
    plain, plain_errors = knowledge_correlations(table, knowledge)
    results, errors = knowledge_correlations(table, knowledge, permutation_p=True, seed=4)
    assert errors == plain_errors and "amount" in errors
    assert [(r.variable, r.rho, r.n) for r in results] == [(r.variable, r.rho, r.n) for r in plain]
    know = [knowledge[(row.developer, row.file)] for row in table.rows]
    for result in results:
        values = [getattr(row.features, result.variable) for row in table.rows]
        assert result.p_value == permutation_p_loop(values, know, seed=4)


# df and |t| of the t-approximation accuracy grid, fixed before it was run
def test_cli_import_leaves_scipy_unloaded():
    """No command needs scipy, and the commands that compute with numpy
    import it themselves, so the CLI module loads neither."""
    env = dict(os.environ, PYTHONPATH=str(Path(fileexperts.__file__).parents[1]))
    probe = "import sys, fileexperts.cli; print('scipy' in sys.modules, 'numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False False"


def test_spearman_leaves_scipy_stats_unloaded():
    """spearman's p-value is evaluated in decimal, so it loads no part of
    scipy, scipy.stats included."""
    env = dict(os.environ, PYTHONPATH=str(Path(fileexperts.__file__).parents[1]))
    probe = (
        "import sys; from fileexperts.stats import spearman; "
        "spearman([1, 2, 3, 4], [2, 1, 4, 3]); "
        "print('scipy' in sys.modules, 'scipy.stats' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False False"


_TAIL_DFS = (*range(1, 13), 31, 100, 398, 999, 4998)
_TAIL_TS = (1e-6, 1e-4, 0.01, 0.1, 0.3, 0.5, 0.8, 1.0, 1.3, 1.7, 2.0, 2.5, 3.0, 4.0, 5.0, 7.0,
            10.0, 14.0, 20.0, 28.0, 40.0)


def _tail_grid():
    """(rho, df, exact p) at each grid point whose exact p is at least
    1e-300, for both signs of t, with rho = t / sqrt(df + t^2) in float."""
    for df in _TAIL_DFS:
        for t in _TAIL_TS:
            rho = t / math.sqrt(df + t * t)
            exact = student_t_tail(rho, df)
            if exact >= Decimal("1e-300"):
                yield rho, df, exact
                yield -rho, df, exact


def test_t_approximation_p_is_within_2e_13_of_the_finite_sums():
    points = list(_tail_grid())
    assert len(points) > 600
    worst = max(abs(Decimal(_t_approximation_p(rho, df + 2)) - exact) / exact
                for rho, df, exact in points)
    assert worst <= Decimal("2e-13")


def test_t_approximation_p_agrees_with_scipy_stdtr():
    """A cross-check against ``scipy.special.stdtr`` on the accuracy grid,
    where scipy is installed: within 1e-12 relative, unless stdtr is itself
    more than 1e-12 off the finite sums there (scipy 1.17.1 is, at df 1 and
    |t| = 1e-6) while the package's tail is within 2e-13 of them."""
    special = pytest.importorskip("scipy.special")
    for rho, df, exact in _tail_grid():
        t = rho * math.sqrt(df / (1.0 - rho * rho))
        scipy_p = Decimal(float(2.0 * special.stdtr(df, -abs(t))))
        p = Decimal(_t_approximation_p(rho, df + 2))
        if abs(p - scipy_p) > Decimal("1e-12") * p:
            assert abs(scipy_p - exact) > Decimal("1e-12") * exact, (rho, df)
            assert abs(p - exact) <= Decimal("2e-13") * exact, (rho, df)


def test_t_approximation_p_edge_values():
    assert _t_approximation_p(0.0, 3) == _t_approximation_p(-0.0, 1000) == 1.0
    assert _t_approximation_p(1.0 - 1e-16, 10) == _t_approximation_p(-1.0, 10) == 0.0
    assert _t_approximation_p(0.5, 4) == 1.0 - 0.5  # df 2: the tail is 1 - |rho|


_PINNED_RHOS = (-0.3, 0.01, 0.05, 0.2, 0.5, 0.9)
# float.hex of the tail at each rho above, recorded when B(df/2, 1/2) came
# from the Stirling series of ln Gamma at df 200 and beyond
_PINNED_TAILS = {
    1: ("0x1.9caf85cfef4f5p-1", "0x1.fcbd8e4a7e149p-1", "0x1.efb21bb9dd2c4p-1",
        "0x1.be5e15eb156c3p-1", "0x1.5555555555555p-1", "0x1.260615ae5dae7p-2"),
    2: ("0x1.6666666666666p-1", "0x1.fae147ae147aep-1", "0x1.e666666666666p-1",
        "0x1.999999999999ap-1", "0x1.0000000000000p-1", "0x1.9999999999998p-4"),
    16: ("0x1.cfcb72391f539p-3", "0x1.efea8f8fbd6e4p-1", "0x1.b00794c0b7834p-1",
         "0x1.b46f70ffe1f02p-2", "0x1.1b70c80000000p-5", "0x1.88e5dc354be2ep-22"),
    198: ("0x1.0ab579ea11b65p-16", "0x1.c6c6af17db28bp-1", "0x1.ed8d4f6f5056bp-2",
          "0x1.282c1a22e80afp-8", "0x1.adfc9aef8a17cp-45", "0x1.c12c6a994b396p-242"),
    199: ("0x1.fbacdf3c8ad64p-17", "0x1.c6a1e36677edep-1", "0x1.ec6b15e1d2ab2p-2",
          "0x1.219349e3cd403p-8", "0x1.73788ad021c82p-45", "0x1.86999a99c462cp-243"),
    200: ("0x1.e32e26645e2fap-17", "0x1.c67d2fdfc8f2cp-1", "0x1.eb49f3ef506f0p-2",
          "0x1.1b20c23afbc14p-8", "0x1.40ec0ebc260f5p-45", "0x1.53ab3e9696a0bp-244"),
    201: ("0x1.cbdf3c170d3d6p-17", "0x1.c6589455a4b09p-1", "0x1.ea29e79c13ba7p-2",
          "0x1.14d39fc6a332dp-8", "0x1.154150d10bb15p-45", "0x1.2761eb0f4b3e2p-245"),
    398: ("0x1.f96ae5d44f85bp-31", "0x1.af163245561e8p-1", "0x1.462b4ba69033fp-2",
          "0x1.d7610e3ecb949p-15", "0x1.af1eb4a5ce017p-87", "0x1.a49f93a4addbbp-482"),
    999: ("0x1.5e1f93e939dbfp-72", "0x1.8106a116d3e78p-1", "0x1.d27fcc58b1c4ep-4",
          "0x1.7a55b87694516p-33", "0x1.4c4442ea746a4p-212", "0x0.0p+0"),
    4998: ("0x1.2fc6927fd3207p-345", "0x1.eb1c006d6e451p-2", "0x1.a89478921e487p-12",
           "0x1.976b2068f529fp-152", "0x0.00000a342d699p-1022", "0x0.0p+0"),
    99998: ("0x0.0p+0", "0x1.9a4e1b126fe2cp-10", "0x1.177b071898ae9p-185", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0"),
}


def test_t_approximation_p_bits_are_pinned_across_df_200():
    """Bit-identical tails on both sides of df 200, where B(df/2, 1/2) once
    switched from the exact product to the Stirling series of ln Gamma."""
    for df, tails in _PINNED_TAILS.items():
        assert tuple(_t_approximation_p(rho, df + 2).hex() for rho in _PINNED_RHOS) == tails, df


def test_one_p_value_at_df_99998_takes_under_0_2_s():
    _beta_half.cache_clear()
    start = time.perf_counter()
    p = _t_approximation_p(0.01, 100_000)
    assert time.perf_counter() - start < 0.2
    assert abs(Decimal(p) - student_t_tail(0.01, 99_998)) <= Decimal("2e-13") * Decimal(p)


def test_the_beta_function_is_computed_once_per_df():
    table, knowledge = _knowledge_table()
    _beta_half.cache_clear()
    matrix = correlation_matrix(table, knowledge)
    results, _ = knowledge_correlations(table, knowledge)
    assert len(matrix.cells) > len(results) > 1
    assert _beta_half.cache_info().misses == 1
