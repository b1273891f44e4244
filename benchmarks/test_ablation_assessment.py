"""Ablation — rapid analytic assessment vs Monte-Carlo (Section-7 extension).

The paper's future work asks for cheap probability assessment *after*
construction.  This benchmark compares the Clark-approximation
:class:`~repro.apps.assessment.RapidAssessor` against Monte-Carlo
projection (the default pAccel path) on the eDiaMoND model: per-query
latency and agreement on E[D] and P(D > h).
"""

import time

import numpy as np
import pytest

from _util import emit_series

from repro.apps.assessment import RapidAssessor
from repro.apps.paccel import PAccel
from repro.core.kertbn import build_continuous_kertbn
from repro.simulator.scenarios.ediamond import ediamond_scenario

MC_SAMPLES = 40_000


@pytest.fixture(scope="module")
def assessment_rows():
    env = ediamond_scenario()
    train = env.simulate(800, rng=93_000)
    model = build_continuous_kertbn(env.workflow, train)
    ra = RapidAssessor(model)
    pa = PAccel(model)

    t0 = time.perf_counter()
    m_fast, v_fast = ra.assess()
    fast_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    mc = pa.baseline(n_samples=MC_SAMPLES, rng=93_001)
    mc_s = time.perf_counter() - t0

    rows = [
        {
            "method": "clark-analytic",
            "query_s": fast_s,
            "E[D]": m_fast,
            "sd[D]": float(np.sqrt(v_fast)),
            "P(D>2.0)": ra.violation_probability(2.0),
        },
        {
            "method": f"monte-carlo({MC_SAMPLES})",
            "query_s": mc_s,
            "E[D]": mc.mean,
            "sd[D]": mc.std,
            "P(D>2.0)": mc.violation_probability(2.0),
        },
    ]
    emit_series(
        "ablation_assessment",
        "rapid analytic assessment vs Monte Carlo (eDiaMoND)",
        rows,
        timing=("query_s",),
    )
    return rows, ra, pa


def test_analytic_assessment_accurate_and_fast(assessment_rows, benchmark):
    rows, ra, pa = assessment_rows
    fast, mc = rows
    assert fast["E[D]"] == pytest.approx(mc["E[D]"], rel=0.02)
    assert fast["sd[D]"] == pytest.approx(mc["sd[D]"], rel=0.06)
    assert fast["P(D>2.0)"] == pytest.approx(mc["P(D>2.0)"], abs=0.06)
    assert fast["query_s"] < mc["query_s"]

    benchmark.pedantic(ra.assess, rounds=20, iterations=5)
