"""ModelServer: guarded queries, deadlines, breakers, registry refresh."""

import numpy as np
import pytest

from repro import obs
from repro.serving.breaker import CLOSED
from repro.serving.fallback import TIER_COMPILED, TIER_PRIOR, TIER_SWEEP
from repro.serving.registry import ModelRegistry
from repro.exceptions import ServingError
from repro.serving.server import STATUS_REJECTED, ModelServer


def _svc(model, k=0):
    return [n for n in model.network.nodes if n != model.response][k]


def _mean(data, name):
    return float(np.mean(data[name]))


def _counter(name):
    """The ``serving.<name>`` counter's total so far (0 if never written)."""
    return obs.snapshot()["metrics"]["counters"].get(f"serving.{name}", 0)


def _tiers():
    """The tiers that answered rows, from the ``serving.tier.*`` counters."""
    counters = obs.snapshot()["metrics"]["counters"]
    prefix = "serving.tier."
    return {
        k[len(prefix):]: v for k, v in counters.items() if v and k.startswith(prefix)
    }


# --------------------------------------------------------------------- #
# Single queries
# --------------------------------------------------------------------- #


def test_query_matches_engine_when_healthy(
    fresh_discrete_model, ediamond_data, obs_on
):
    train, _ = ediamond_data
    model = fresh_discrete_model
    srv = ModelServer(model, rng=0)
    svc = _svc(model)
    r = srv.query([model.response], {svc: _mean(train, svc)})
    assert r.ok and r.tier == TIER_COMPILED
    disc = model.discretizer
    expected = model.network.compiled().query(
        [model.response], {svc: disc.state_of(svc, _mean(train, svc))}
    ).values
    np.testing.assert_allclose(r.value, expected)
    assert _counter("status.ok") == 1
    assert _counter(f"tier.{TIER_COMPILED}") == 1


def test_compiled_answer_is_read_only(fresh_discrete_model, ediamond_data):
    """A compiled-tier answer is a view of the plan's stored row: a
    caller's write raises and cannot change the next identical answer."""
    train, _ = ediamond_data
    model = fresh_discrete_model
    srv = ModelServer(model, rng=0)
    svc = _svc(model)
    evidence = {svc: _mean(train, svc)}
    srv.query([model.response], evidence)  # compile the plan
    r = srv.query([model.response], evidence)
    assert r.ok and r.tier == TIER_COMPILED
    before = r.value.copy()
    with pytest.raises(ValueError):
        r.value[0] = 1.0
    with pytest.raises(ValueError):
        r.value /= 2.0
    again = srv.query([model.response], evidence)
    np.testing.assert_array_equal(again.value, before)


def test_bad_evidence_rejected_with_reasons_not_crash(
    fresh_discrete_model, obs_on
):
    model = fresh_discrete_model
    srv = ModelServer(model, rng=0)
    r = srv.query([model.response], {"martian": 1.0})
    assert r.status == STATUS_REJECTED and "'martian'" in r.reasons[0]
    r = srv.query([model.response], {_svc(model): float("nan")})
    assert r.status == STATUS_REJECTED and any("NaN" in x for x in r.reasons)
    # querying a variable that is also evidence is refused, not undefined
    r = srv.query([model.response], {model.response: 1.0})
    assert r.status == STATUS_REJECTED
    # unknown query variable
    r = srv.query(["martian"], {})
    assert r.status == STATUS_REJECTED
    assert _counter("status.rejected") == 4 and _counter("queries") == 4


def test_binned_evidence_validated_against_cardinalities(fresh_discrete_model):
    model = fresh_discrete_model
    srv = ModelServer(model, rng=0)
    svc = _svc(model)
    ok = srv.query([model.response], {svc: 2}, binned=True)
    assert ok.ok
    bad = srv.query([model.response], {svc: 99}, binned=True)
    assert bad.status == STATUS_REJECTED
    assert any("out of range" in r for r in bad.reasons)


def test_engine_fault_answers_through_fallback(fresh_discrete_model, ediamond_data):
    train, _ = ediamond_data
    model = fresh_discrete_model
    srv = ModelServer(model, rng=0)
    svc = _svc(model)

    def boom(*a):
        raise RuntimeError("injected")

    srv.chain.engine.failure_hook = boom
    r = srv.query([model.response], {svc: _mean(train, svc)})
    assert r.ok and r.tier == TIER_SWEEP
    assert TIER_COMPILED in r.tier_errors


def test_expired_deadline_degrades_to_prior(
    fresh_discrete_model, ediamond_data, obs_on
):
    train, _ = ediamond_data
    model = fresh_discrete_model
    srv = ModelServer(model, deadline_seconds=1e-9, rng=0)
    svc = _svc(model)
    r = srv.query([model.response], {svc: _mean(train, svc)})
    assert r.ok and r.tier == TIER_PRIOR and r.approximate
    assert r.deadline_exceeded
    assert _counter("deadline_misses") == 1


def test_expired_deadline_on_project_is_counted(
    fresh_discrete_model, ediamond_data, obs_on
):
    """A discrete projection answered from the prior after an overrun
    reports the overrun, like ``query`` and ``violation_prob``: in the
    result and in the ``serving.*`` counters."""
    train, _ = ediamond_data
    model = fresh_discrete_model
    srv = ModelServer(model, deadline_seconds=1e-9, rng=0)
    svc = _svc(model)
    r = srv.project({svc: _mean(train, svc)})
    assert r.ok and r.tier == TIER_PRIOR
    assert r.deadline_exceeded
    assert _counter("deadline_misses") == 1


def test_expired_deadline_on_columns_is_not_an_open_circuit(
    fresh_discrete_model, obs_on
):
    """A batch whose deadline has passed says so while the breaker stays
    closed, and the counters count each row as an overrun."""
    model = fresh_discrete_model
    srv = ModelServer(model, deadline_seconds=1e-9, rng=0)
    cr = srv.query_batch_columns([model.response], _columns(model, 3))
    assert cr.ok and cr.n_valid == 3 and cr.tier == TIER_PRIOR
    assert cr.tier_errors[TIER_COMPILED] == "deadline exceeded"
    assert srv.breakers[TIER_COMPILED].state == CLOSED
    assert cr.deadline_exceeded
    assert _counter("deadline_misses") == 3


# --------------------------------------------------------------------- #
# Columnar lane
# --------------------------------------------------------------------- #


def _columns(model, n, seed=0):
    """``n`` in-range binned rows over two services, as int columns."""
    rng = np.random.default_rng(seed)
    cards = model.network.cardinalities
    return {
        v: rng.integers(0, cards[v], size=n)
        for v in (_svc(model, 0), _svc(model, 1))
    }


def test_columns_match_query_batch_row_by_row(fresh_discrete_model):
    model = fresh_discrete_model
    srv = ModelServer(model, rng=0)
    cols = _columns(model, 40)
    cr = srv.query_batch_columns([model.response], cols)
    assert cr.ok and cr.tier == TIER_COMPILED
    assert cr.n_rows == cr.n_valid == 40 and cr.valid is None
    for i, pmf in enumerate(cr.pmfs):
        row = {v: int(c[i]) for v, c in cols.items()}
        r = srv.query([model.response], row, binned=True)
        assert r.ok
        np.testing.assert_allclose(pmf, r.value, rtol=0, atol=1e-12)


def test_columns_mask_out_of_range_rows(fresh_discrete_model, obs_on):
    model = fresh_discrete_model
    srv = ModelServer(model, rng=0)
    cols = _columns(model, 12, seed=1)
    a, b = cols
    clean = srv.query_batch_columns([model.response], cols)
    cols[a][[2, 7]] = -1
    cols[b][9] = model.network.cardinalities[b]
    cr = srv.query_batch_columns([model.response], cols)
    expected_valid = np.ones(12, dtype=bool)
    expected_valid[[2, 7, 9]] = False
    assert cr.ok and cr.n_rows == 12 and cr.n_valid == 9
    np.testing.assert_array_equal(cr.valid, expected_valid)
    # The clean rows answer exactly as they did before the bad rows joined.
    np.testing.assert_allclose(
        cr.pmfs, clean.pmfs[expected_valid], rtol=0, atol=1e-12
    )
    # The second call added 9 answered rows and 3 rejected ones.
    assert _counter("status.ok") == 12 + 9
    assert _counter("status.rejected") == _counter("rows_rejected") == 3


def test_columns_reject_non_integer_column(fresh_discrete_model, obs_on):
    model = fresh_discrete_model
    srv = ModelServer(model, rng=0)
    calls = []
    srv.chain.engine.failure_hook = lambda *a: calls.append(a)
    a = _svc(model)
    floats = {a: np.array([0.0, 1.0, 2.0])}
    cr = srv.query_batch_columns([model.response], floats)
    assert cr.status == STATUS_REJECTED and cr.pmfs is None
    assert any("not integer-typed" in r for r in cr.reasons)
    assert calls == []  # rejected before the kernel
    assert _counter("queries") == _counter("status.rejected") == 3

    # A longer float column beside an int column: the length mismatch is
    # reported with every column's size, and the call counts the longest.
    b = _svc(model, 1)
    mixed = {a: np.zeros(5), b: np.zeros(3, dtype=int)}
    cr = srv.query_batch_columns([model.response], mixed)
    assert cr.status == STATUS_REJECTED and cr.n_rows == 5
    assert f"evidence columns have mismatched lengths {({a: 5, b: 3})}" in (
        cr.reasons
    )
    assert _counter("queries") == _counter("status.rejected") == 3 + 5


def test_columns_stats_count_every_row_once(fresh_discrete_model, obs_on):
    model = fresh_discrete_model
    srv = ModelServer(model, rng=0)
    resp = model.response
    a = _svc(model)
    srv.query_batch_columns([resp], _columns(model, 6))  # 6 ok
    masked = _columns(model, 5, seed=2)
    masked[a][:2] = 99
    srv.query_batch_columns([resp], masked)  # 3 ok, 2 rejected
    srv.query_batch_columns([resp], {a: np.zeros(4)})  # 4 rejected (float)
    srv.query_batch_columns([resp], {a: np.full(3, -1)})  # 3 rejected (range)

    def boom(*args):
        raise RuntimeError("injected")

    srv.chain.engine.failure_hook = boom
    degraded = srv.query_batch_columns([resp], _columns(model, 2, seed=3))
    assert degraded.ok and degraded.tier == TIER_SWEEP  # 2 ok via the chain

    assert _counter("queries") == 6 + 5 + 4 + 3 + 2
    assert _counter("status.ok") == 6 + 3 + 2
    assert _counter("status.rejected") == 2 + 4 + 3
    assert _tiers() == {TIER_COMPILED: 9, TIER_SWEEP: 2}


def test_columns_kernel_failure_runs_the_batch_kernel_once(
    fresh_discrete_model,
):
    model = fresh_discrete_model
    srv = ModelServer(model, rng=0)
    calls = []

    def batch_only(kind, *args):
        calls.append(kind)
        if kind == "batch":
            raise RuntimeError("injected batch fault")

    srv.chain.engine.failure_hook = batch_only
    cr = srv.query_batch_columns([model.response], _columns(model, 5))
    # The failed batch kernel is not retried: each row walks the chain.
    assert calls == ["batch"] + ["query"] * 5
    assert cr.ok and cr.n_valid == 5
    assert cr.tier == TIER_COMPILED  # the single-row compiled tier
    assert srv.breakers[TIER_COMPILED].state == CLOSED


def test_deadline_passing_during_a_degraded_batch_is_counted(
    fresh_discrete_model, obs_on
):
    """The batch kernel fails after the deadline has passed, so every
    row answers from the prior: the batch reports the kernel's error and
    the deadline the rows met, and counts each row as an overrun."""
    import time

    model = fresh_discrete_model
    srv = ModelServer(model, deadline_seconds=0.02, rng=0)

    def slow_batch(kind, *args):
        if kind == "batch":
            time.sleep(0.05)
            raise RuntimeError("injected batch fault")

    srv.chain.engine.failure_hook = slow_batch
    cr = srv.query_batch_columns([model.response], _columns(model, 4))
    assert cr.ok and cr.n_valid == 4 and cr.tier == TIER_PRIOR
    assert "injected batch fault" in cr.tier_errors[TIER_COMPILED]
    assert cr.tier_errors[TIER_SWEEP] == "deadline exceeded"
    assert cr.deadline_exceeded
    assert _counter("deadline_misses") == 4


def _slow_first_row_batch(model):
    """A 4-row batch whose kernel fails and whose first row's compiled
    query runs past the 0.05 s deadline: that row answers from the
    compiled tier, the other three from the prior."""
    import time

    srv = ModelServer(model, deadline_seconds=0.05, rng=0)
    row_queries = []

    def fail_batch_slow_first_row(kind, *args):
        if kind == "batch":
            raise RuntimeError("injected batch fault")
        row_queries.append(args)
        if len(row_queries) == 1:
            time.sleep(0.06)

    srv.chain.engine.failure_hook = fail_batch_slow_first_row
    cr = srv.query_batch_columns([model.response], _columns(model, 4))
    assert cr.ok and cr.n_valid == 4
    assert len(row_queries) == 1  # the deadline skipped the other rows
    return srv, cr


def test_degraded_batch_counts_each_row_under_its_own_tier(
    fresh_discrete_model, obs_on
):
    """Each row of a degraded batch is counted where it answered, in the
    ``serving.tier.*`` counters."""
    _, cr = _slow_first_row_batch(fresh_discrete_model)
    assert _tiers() == {TIER_COMPILED: 1, TIER_PRIOR: 3}
    assert cr.tier_rows == {TIER_COMPILED: 1, TIER_PRIOR: 3}


def test_degraded_batch_tier_is_the_deepest_row_tier(fresh_discrete_model):
    """``tier`` names the deepest tier any row fell to, never the first
    row's better one."""
    _, cr = _slow_first_row_batch(fresh_discrete_model)
    assert cr.tier == TIER_PRIOR and cr.approximate
    assert cr.tier_rows == {TIER_COMPILED: 1, TIER_PRIOR: 3}


# --------------------------------------------------------------------- #
# Assessment surface
# --------------------------------------------------------------------- #


def test_violation_prob_discrete_goes_through_chain(
    fresh_discrete_model, ediamond_data
):
    train, _ = ediamond_data
    model = fresh_discrete_model
    srv = ModelServer(model, rng=0)
    h = float(np.percentile(train[model.response], 80))
    r = srv.violation_prob(h)
    assert r.ok and r.tier == TIER_COMPILED
    assert 0.0 <= r.value <= 1.0
    from repro.apps.paccel import PAccel

    expected = PAccel(model).baseline(rng=0).violation_probability(h)
    assert r.value == pytest.approx(expected)
    bad = srv.violation_prob(float("nan"))
    assert bad.status == STATUS_REJECTED


def test_continuous_model_is_refused_and_the_served_version_stays(
    tmp_path, fresh_discrete_model, ediamond_continuous_model, ediamond_data
):
    """A continuous model is answered by its assessor, not served: the
    constructor refuses it, and a refresh onto a continuous active
    version is refused while the previous discrete version keeps
    answering."""
    with pytest.raises(ServingError, match="'kert-bn/continuous'.*assessor"):
        ModelServer(ediamond_continuous_model, rng=0)

    train, _ = ediamond_data
    reg = ModelRegistry(str(tmp_path / "reg"))
    reg.publish(fresh_discrete_model)
    srv = ModelServer(reg, rng=0)
    h = float(np.percentile(train[fresh_discrete_model.response], 80))
    served, before = srv.model, srv.violation_prob(h)
    reg.publish(ediamond_continuous_model)
    with pytest.raises(ServingError, match="'kert-bn/continuous'"):
        srv.refresh()
    assert srv.version == 1 and srv.model is served
    after = srv.violation_prob(h)
    assert after.ok and after.tier == TIER_COMPILED
    assert after.value == before.value


def test_project_discrete(fresh_discrete_model, ediamond_data):
    train, _ = ediamond_data
    model = fresh_discrete_model
    srv = ModelServer(model, rng=0)
    svc = _svc(model)
    r = srv.project({svc: _mean(train, svc) * 0.5})
    assert r.ok
    assert np.isfinite(r.value.mean) and r.value.pmf.sum() == pytest.approx(1.0)
    from repro.apps.paccel import PAccel

    expected = PAccel(model).project({svc: _mean(train, svc) * 0.5})
    assert r.value.mean == pytest.approx(expected.mean)


def test_every_entry_point_rejects_raw_evidence_without_a_discretizer(
    fresh_discrete_model, ediamond_data, obs_on
):
    """A discrete model without a discretizer cannot bin raw means:
    ``project`` refuses the call like ``query`` and ``violation_prob``,
    and each refusal is counted."""
    import dataclasses

    train, _ = ediamond_data
    model = dataclasses.replace(fresh_discrete_model, discretizer=None)
    srv = ModelServer(model, rng=0)
    svc = _svc(model)
    ev = {svc: _mean(train, svc)}
    results = [
        srv.query([model.response], ev),
        srv.violation_prob(float(np.mean(train[model.response])), ev),
        srv.project(ev),
    ]
    for r in results:
        assert r.status == STATUS_REJECTED
        assert any("discretizer" in reason for reason in r.reasons)
    assert _counter("status.rejected") == _counter("queries") == 3
    # Binned evidence needs no discretizer.
    assert srv.query([model.response], {svc: 1}, binned=True).ok


def test_raw_evidence_needs_bin_edges_for_every_node(
    fresh_discrete_model, ediamond_data
):
    """A discretizer that misses a node cannot bin every raw row, so
    raw evidence is refused with a reason instead of raising on the
    missing column; binned evidence still answers."""
    import dataclasses

    from repro.bn.discretize import Discretizer

    train, _ = ediamond_data
    full = fresh_discrete_model.discretizer
    svc = _svc(fresh_discrete_model)
    partial = Discretizer.from_edges({c: full.edges(c) for c in full.columns if c != svc})
    model = dataclasses.replace(fresh_discrete_model, discretizer=partial)
    srv = ModelServer(model, rng=0)
    other = _svc(model, 1)
    r = srv.query([model.response], {other: _mean(train, other)})
    assert r.status == STATUS_REJECTED
    assert r.reasons == ("query requires the model's discretizer for raw evidence",)
    assert srv.query([model.response], {svc: 1}, binned=True).ok


# --------------------------------------------------------------------- #
# Registry-backed serving
# --------------------------------------------------------------------- #


def test_refresh_follows_rollback(
    tmp_path, fresh_discrete_model, ediamond_env, ediamond_data
):
    from repro.core.kertbn import build_discrete_kertbn

    train, _ = ediamond_data
    reg = ModelRegistry(str(tmp_path / "reg"))
    reg.publish(fresh_discrete_model)
    srv = ModelServer(reg, rng=0)
    assert srv.version == 1
    other = build_discrete_kertbn(ediamond_env.workflow, train, n_bins=3)
    reg.publish(other)
    assert srv.refresh() == 2
    assert srv.model.network.cardinalities[srv.model.response] == 3
    reg.rollback(reason="operator")
    assert srv.refresh() == 1
    r = srv.query([srv.model.response], {})
    assert r.ok and r.value.shape == (4,)


def test_refresh_during_a_query_answers_from_one_version(
    tmp_path, ediamond_env, ediamond_data
):
    from repro.core.kertbn import build_discrete_kertbn

    train, _ = ediamond_data
    reg = ModelRegistry(str(tmp_path / "reg"))
    reg.publish(build_discrete_kertbn(ediamond_env.workflow, train, n_bins=4))
    srv = ModelServer(reg, rng=0)
    v1 = srv.model
    reg.publish(build_discrete_kertbn(ediamond_env.workflow, train, n_bins=6))
    svc = _svc(v1)

    # The swap lands mid-query: after v1's evidence is checked and
    # binned, while v1's engine answers.
    state = v1.discretizer.state_of(svc, _mean(train, svc))
    expected = v1.network.compiled().query([v1.response], {svc: state}).values
    engine = v1.network.compiled()
    pmf = engine.pmf

    def refreshing_pmf(variables, evidence):
        srv.refresh()
        return pmf(variables, evidence)

    engine.pmf = refreshing_pmf
    try:
        r = srv.query([v1.response], {svc: _mean(train, svc)})
    finally:
        del engine.pmf
    assert srv.version == 2
    assert r.ok and r.value.shape == (4,)
    np.testing.assert_allclose(r.value, expected)
