"""Parameter learning: consistency, smoothing, degenerate inputs."""

import numpy as np
import pytest

from repro.bn.cpd import TabularCPD
from repro.bn.data import Dataset
from repro.bn.learning.mle import (
    fit_gaussian_network,
    fit_linear_gaussian,
    fit_tabular,
)
from repro.exceptions import LearningError


def test_fit_lg_root_node(rng):
    x = rng.normal(3.0, 2.0, size=50_000)
    cpd = fit_linear_gaussian(Dataset({"x": x}), "x")
    assert cpd.intercept == pytest.approx(3.0, abs=0.05)
    assert cpd.variance == pytest.approx(4.0, rel=0.05)


def test_fit_lg_recovers_regression(rng):
    a = rng.normal(size=50_000)
    b = rng.normal(size=50_000)
    x = 1.0 + 2.0 * a - 3.0 * b + rng.normal(0, 0.5, size=50_000)
    cpd = fit_linear_gaussian(Dataset({"x": x, "a": a, "b": b}), "x", ("a", "b"))
    assert cpd.intercept == pytest.approx(1.0, abs=0.02)
    np.testing.assert_allclose(cpd.coefficients, [2.0, -3.0], atol=0.02)
    assert cpd.variance == pytest.approx(0.25, rel=0.05)


def test_fit_lg_collinear_parents_survives(rng):
    a = rng.normal(size=1000)
    data = Dataset({"x": 2 * a, "a": a, "b": a.copy()})  # b == a exactly
    cpd = fit_linear_gaussian(data, "x", ("a", "b"))
    # Ridge keeps it solvable; combined effect must still be ≈ 2.
    assert cpd.coefficients.sum() == pytest.approx(2.0, abs=1e-3)


def test_fit_lg_constant_column_gets_floor_variance():
    data = Dataset({"x": np.full(100, 5.0)})
    cpd = fit_linear_gaussian(data, "x")
    assert cpd.variance > 0


def test_fit_lg_empty_data_raises():
    with pytest.raises(LearningError):
        fit_linear_gaussian(Dataset({"x": np.array([])}), "x")


def test_fit_tabular_mle_counts():
    data = Dataset({"x": np.array([0, 0, 1, 1, 1, 1])})
    cpd = fit_tabular(data, "x", 2, alpha=0.0)
    np.testing.assert_allclose(cpd.values, [1 / 3, 2 / 3])


def test_fit_tabular_laplace_smoothing():
    data = Dataset({"x": np.array([0, 0])})
    cpd = fit_tabular(data, "x", 2, alpha=1.0)
    np.testing.assert_allclose(cpd.values, [3 / 4, 1 / 4])


def test_fit_tabular_with_parents_recovers_truth(rng):
    truth = TabularCPD(
        "x", 2, np.array([[0.8, 0.3], [0.2, 0.7]]), ("p",), (2,)
    )
    p = rng.integers(0, 2, size=100_000)
    x = truth.sample({"p": p}, 100_000, rng)
    cpd = fit_tabular(
        Dataset({"x": x, "p": p}), "x", 2, ("p",), (2,), alpha=0.0
    )
    np.testing.assert_allclose(cpd.values, truth.values, atol=0.01)


def test_fit_tabular_unseen_config_uniform():
    data = Dataset({"x": np.array([0, 1]), "p": np.array([0, 0])})
    cpd = fit_tabular(data, "x", 2, ("p",), (2,), alpha=0.0)
    np.testing.assert_allclose(cpd.values[:, 1], [0.5, 0.5])


def test_fit_tabular_out_of_range_state():
    with pytest.raises(LearningError):
        fit_tabular(Dataset({"x": np.array([0, 5])}), "x", 2)
    with pytest.raises(LearningError):
        fit_tabular(
            Dataset({"x": np.array([0]), "p": np.array([7])}), "x", 2, ("p",), (2,)
        )


def test_fit_gaussian_network_end_to_end(chain_gaussian_net, rng):
    data = chain_gaussian_net.sample(50_000, rng)
    fitted = fit_gaussian_network(chain_gaussian_net.dag, data)
    for node in ("a", "b", "c"):
        truth = chain_gaussian_net.cpd(node)
        est = fitted.cpd(node)
        assert est.intercept == pytest.approx(truth.intercept, abs=0.05)
        np.testing.assert_allclose(est.coefficients, truth.coefficients, atol=0.05)
        assert est.variance == pytest.approx(truth.variance, rel=0.1)


def test_mle_maximizes_likelihood_property(rng):
    """The MLE fit must out-score any perturbed parameterization."""
    x = rng.normal(1.0, 1.0, size=2000)
    data = Dataset({"x": x})
    mle = fit_linear_gaussian(data, "x")
    best = mle.log_likelihood(data).sum()
    for _ in range(10):
        from repro.bn.cpd import LinearGaussianCPD

        perturbed = LinearGaussianCPD(
            "x",
            mle.intercept + rng.normal(0, 0.2),
            (),
            mle.variance * np.exp(rng.normal(0, 0.3)),
        )
        assert perturbed.log_likelihood(data).sum() <= best + 1e-9


# --------------------------------------------------------------------- #
# Moment-block fits against least squares on explicit design matrices
# --------------------------------------------------------------------- #


def _lstsq_cpd(columns, variable, parents, min_variance=1e-9, floor_share=1e-3):
    """Reference fit: ``np.linalg.lstsq`` on ``[1, parents]`` and the
    residual variance floored as the fitters document."""
    y = columns[variable]
    design = np.column_stack([np.ones(y.size)] + [columns[p] for p in parents])
    beta = np.linalg.lstsq(design, y, rcond=None)[0]
    resid = y - design @ beta
    if not parents:
        return beta, max(float(np.var(y)), min_variance), design
    floor = max(min_variance, floor_share * float(np.var(y)))
    return beta, max(float(np.mean(resid**2)), floor), design


def _block_fit(columns, variable, parents, **kwargs):
    """The block fit from one window's moments over *every* column."""
    from repro.bn.learning.mle import DesignMoments

    names = list(columns)
    window = DesignMoments([columns[c] for c in names])
    block = [0] + [names.index(p) + 1 for p in parents] + [names.index(variable) + 1]
    return window.fit(np.array(block), variable, tuple(parents), **kwargs)


def _both_paths(columns, variable, parents, **kwargs):
    """The window's block fit and the local fit from the child's and
    parents' columns only."""
    return [
        _block_fit(columns, variable, parents, **kwargs),
        fit_linear_gaussian(Dataset(columns), variable, parents, **kwargs),
    ]


def _window(rng, n=120):
    a = rng.gamma(2.0, 0.5, size=n)
    b = 0.3 + 0.8 * a + rng.normal(0, 0.2, size=n)
    zero = np.zeros(n)
    c = np.where(rng.random(n) < 0.4, 0.0, 1.0 + 0.5 * b + rng.normal(0, 0.1, size=n))
    return {"a": a, "b": b, "zero": zero, "c": c, "dup": 2.0 * a}


@pytest.mark.parametrize(
    "variable, parents",
    [("a", ()), ("b", ("a",)), ("c", ("b", "a")), ("c", ("zero", "b"))],
)
def test_block_fit_matches_lstsq(variable, parents):
    columns = _window(np.random.default_rng(11))
    beta, var, _ = _lstsq_cpd(columns, variable, parents)
    for cpd in _both_paths(columns, variable, parents):
        np.testing.assert_allclose(cpd.intercept, beta[0], rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(cpd.coefficients, beta[1:], rtol=1e-9, atol=1e-12)
        assert cpd.variance == pytest.approx(var, rel=1e-9, abs=0)
        assert cpd.parents == tuple(parents)


def test_block_fit_all_zero_column():
    """68 of 80 mixed80 columns carry a point mass at 0; an all-zero
    column is the limit: a zero coefficient as a parent, the absolute
    floor as a child."""
    columns = _window(np.random.default_rng(12))
    for cpd in _both_paths(columns, "c", ("zero", "b")):
        assert cpd.coefficients[0] == 0.0
    for parents in [(), ("a",)]:
        for cpd in _both_paths(columns, "zero", parents):
            assert cpd.intercept == 0.0
            assert cpd.variance == 1e-9


def test_block_fit_collinear_parents_takes_the_ridge_path():
    """``dup == 2a`` makes ``[1, a, dup]`` rank-deficient: the ridge picks
    one of the solutions, which must reproduce the least-squares
    predictions and residual variance."""
    columns = _window(np.random.default_rng(13))
    beta, var, design = _lstsq_cpd(columns, "b", ("a", "dup"))
    for cpd in _both_paths(columns, "b", ("a", "dup")):
        fitted = design @ np.r_[cpd.intercept, cpd.coefficients]
        np.testing.assert_allclose(fitted, design @ beta, rtol=1e-6)
        combined = beta[1] + 2 * beta[2]
        assert cpd.coefficients @ [1.0, 2.0] == pytest.approx(combined, rel=1e-6, abs=0)
        assert cpd.variance == pytest.approx(var, rel=1e-6, abs=0)


def test_block_fit_near_constant_column_hits_relative_floor():
    """A near-constant child explained almost exactly by its parent: the
    residual variance falls under 1e-3 of the child's own variance, and
    the floor must come from that variance computed without cancellation
    against the child's large mean."""
    rng = np.random.default_rng(14)
    columns = _window(rng)
    columns["flat"] = 5.0 + 1e-6 * columns["a"] + 1e-12 * rng.normal(size=120)
    floor = 1e-3 * float(np.var(columns["flat"]))
    beta, var, _ = _lstsq_cpd(columns, "flat", ("a",), min_variance=1e-30)
    assert var == floor
    for cpd in _both_paths(columns, "flat", ("a",), min_variance=1e-30):
        assert cpd.variance == pytest.approx(floor, rel=1e-9, abs=0)
        assert cpd.coefficients[0] == pytest.approx(beta[1], rel=1e-3, abs=0)


def test_block_fit_nan_window_behaves_like_per_cpd_fit():
    """A NaN poisons exactly the CPDs whose columns hold it, which raise
    ``CPDError`` on the NaN variance; the other blocks of the same window
    fit as if the NaN were not there."""
    from repro.exceptions import CPDError

    columns = _window(np.random.default_rng(15))
    clean = {k: v.copy() for k, v in columns.items()}
    columns["b"][7] = np.nan
    for variable, parents in [("b", ()), ("b", ("a",)), ("c", ("b",))]:
        with pytest.raises(CPDError, match=repr(variable)):
            _block_fit(columns, variable, parents)
        with pytest.raises(CPDError, match=repr(variable)):
            fit_linear_gaussian(Dataset(columns), variable, parents)
    poisoned = _block_fit(columns, "c", ("a",))
    reference = _block_fit(clean, "c", ("a",))
    assert poisoned.intercept == reference.intercept
    np.testing.assert_array_equal(poisoned.coefficients, reference.coefficients)
    assert poisoned.variance == reference.variance


# --------------------------------------------------------------------- #
# Group solves against the per-block algorithm they replaced
# --------------------------------------------------------------------- #


def _per_block_oracle(columns, block, min_variance=1e-9, ridge=1e-10, share=1e-3):
    """The per-CPD algorithm, restated independently: slice one block of
    ``ZᵀZ``, ridge its diagonal, one ``np.linalg.solve`` per block and the
    mean square of the explicit residuals, floored.  ``columns`` are the
    design columns after the intercept; returns
    ``(intercept, coefficients, variance)``."""
    n = len(columns[0])
    design = np.column_stack([np.ones(n), *columns])
    gram = design.T @ design
    centered = design - gram[0] / n
    child = block[-1]
    marginal = float(np.einsum("ij,ij->j", centered, centered)[child] / n)
    if len(block) == 2:
        return float(gram[0, child]) / n, np.empty(0), max(marginal, min_variance)
    rows = block[:-1]
    g = gram[rows[:, None], block]
    g.flat[:: len(rows) + 2] += ridge
    beta = np.linalg.solve(g[:, :-1], g[:, -1])
    resid = design[:, child] - design[:, rows] @ beta
    floor = max(min_variance, share * marginal)
    return float(beta[0]), beta[1:], max(float(resid @ resid) / n, floor)


def _assert_bitwise(cpd, expected):
    intercept, coefficients, variance = expected
    assert cpd.intercept == intercept
    assert cpd.coefficients.shape == coefficients.shape
    np.testing.assert_array_equal(cpd.coefficients, coefficients)
    assert cpd.variance == variance


def _corpus_env(shape, n_services):
    from repro.corpus.generate import build_scenario
    from repro.corpus.spec import ScenarioSpec

    if (shape, n_services) == ("mixed", 80):  # the perfbench cell
        spec = ScenarioSpec(
            "mixed", 80, "gg1", arrivals="diurnal", failure_storm=True
        )
        return build_scenario(spec, seed=20260808).env
    return build_scenario(ScenarioSpec(shape, n_services, "gg1"), seed=7).env


def _assert_build_matches_per_block(env, window):
    from repro.core.kertbn import build_continuous_kertbn, derive_knowledge

    knowledge = derive_knowledge(env.workflow, env.response)
    model = build_continuous_kertbn(knowledge, window)
    columns = [np.asarray(window[c], dtype=float) for c in knowledge.columns]
    for (node, _), block in zip(knowledge.families, knowledge.blocks):
        if block is not None:
            _assert_bitwise(model.network.cpd(node), _per_block_oracle(columns, block))
    return knowledge


def test_group_solves_match_per_block_solves_on_mixed80_windows():
    """Every service CPD of six mixed80 windows, bit for bit; the cell's
    groups are 17 roots and 54 / 5 / 1 / 3 CPDs with 1-4 parents."""
    env = _corpus_env("mixed", 80)
    for seed in range(6):
        knowledge = _assert_build_matches_per_block(env, env.simulate(120, rng=seed))
    sizes = {len(stack[0]) - 2: len(members) for stack, members in knowledge.groups}
    assert sizes == {0: 17, 1: 54, 2: 5, 3: 1, 4: 3}


def test_group_solves_match_per_block_solves_on_ediamond(
    ediamond_env, ediamond_data
):
    train, test = ediamond_data
    for window in (train, test):
        _assert_build_matches_per_block(ediamond_env, window)


@pytest.mark.parametrize("shape", ["sequence", "parallel", "mixed"])
@pytest.mark.parametrize("n_services", [40, 80])
def test_group_solves_match_per_block_solves_on_corpus_cells(shape, n_services):
    env = _corpus_env(shape, n_services)
    _assert_build_matches_per_block(env, env.simulate(120, rng=3))


# The fixture window's families by parent count: all-zero, collinear and
# near-constant columns share their stacks with ordinary ones.
_FIXTURE_GROUPS = {
    0: [("a", ()), ("zero", ()), ("flat", ())],
    1: [("b", ("a",)), ("zero", ("a",)), ("flat", ("a",)), ("c", ("b",))],
    2: [("c", ("b", "a")), ("c", ("zero", "b")), ("b", ("a", "dup"))],
}


def _fixture_moments(columns):
    from repro.bn.learning.mle import DesignMoments

    names = list(columns)
    window = DesignMoments([columns[c] for c in names])

    def block(variable, parents):
        index = [names.index(c) + 1 for c in (*parents, variable)]
        return np.array([0, *index])

    return window, [columns[c] for c in names], block


def _fixture_window(seed):
    rng = np.random.default_rng(seed)
    columns = _window(rng)
    columns["flat"] = 5.0 + 1e-6 * columns["a"] + 1e-12 * rng.normal(size=120)
    return columns


@pytest.mark.parametrize("k", sorted(_FIXTURE_GROUPS))
def test_group_solve_matches_per_block_on_degenerate_columns(k):
    window, design_columns, block = _fixture_moments(_fixture_window(16))
    families = _FIXTURE_GROUPS[k]
    stack = np.stack([block(v, p) for v, p in families])
    betas, mean_squares = window.solve(stack)
    assert betas.shape == (len(families), k + 1)
    for (variable, parents), b, beta, mean_square in zip(
        families, stack, betas, mean_squares
    ):
        cpd = window.cpd(variable, parents, b[-1], beta, mean_square)
        _assert_bitwise(cpd, _per_block_oracle(design_columns, b))
        single = window.fit(b, variable, parents)
        _assert_bitwise(single, _per_block_oracle(design_columns, b))


def test_group_solve_nan_poisons_only_its_own_members():
    """A NaN in ``b`` poisons the stack members whose blocks read ``b``;
    the other members of the same stack equal their clean-window fits."""
    from repro.exceptions import CPDError

    clean = _fixture_window(17)
    columns = {k: v.copy() for k, v in clean.items()}
    columns["b"][7] = np.nan
    window, design_columns, block = _fixture_moments(columns)
    clean_columns = [clean[c] for c in columns]
    for families in _FIXTURE_GROUPS.values():
        stack = np.stack([block(v, p) for v, p in families])
        betas, mean_squares = window.solve(stack)
        for (variable, parents), b, beta, mean_square in zip(
            families, stack, betas, mean_squares
        ):
            if "b" in (variable, *parents):
                with pytest.raises(CPDError, match=repr(variable)):
                    window.cpd(variable, parents, b[-1], beta, mean_square)
            else:
                cpd = window.cpd(variable, parents, b[-1], beta, mean_square)
                _assert_bitwise(cpd, _per_block_oracle(clean_columns, b))


def test_nan_build_names_the_first_poisoned_cpd_in_family_order():
    """A NaN in one mixed80 service column fails the refit with the
    ``CPDError`` of the first family, in DAG node order, whose block
    reads that column — the CPD the per-block path failed on first.
    ``X5`` (2 parents) and ``X14`` (3 parents) each feed a 1-parent
    child whose group is solved before their own."""
    from repro.core.kertbn import build_continuous_kertbn, derive_knowledge
    from repro.exceptions import CPDError

    env = _corpus_env("mixed", 80)
    knowledge = derive_knowledge(env.workflow, env.response)
    window = env.simulate(120, rng=2)
    for poisoned in ("X5", "X14"):
        index = knowledge.columns.index(poisoned) + 1
        first = next(
            name
            for (name, _), b in zip(knowledge.families, knowledge.blocks)
            if b is not None and index in b
        )
        cols = {c: np.array(window[c], dtype=float) for c in window.columns}
        cols[poisoned][5] = np.nan
        with pytest.raises(CPDError, match=f"^{first!r}: variance"):
            build_continuous_kertbn(knowledge, Dataset(cols))
