"""Closed-form blame against ``scipy.stats`` as a test-only oracle.

``normal_blame`` computes every service's bivariate-normal orthant with
Owen's T function in one vectorized call.  The oracle here is scipy's
``multivariate_normal(...).cdf`` (Genz's bivariate algorithm) and
``norm.sf``: no code shared with the closed form.
"""

import math

import numpy as np
import pytest
from scipy.stats import multivariate_normal, norm

from repro.bn.budgets import _upper_orthant, derive_budgets, normal_blame

#: Includes both zero limits, values just off zero, and |z| up to 8.
_Z = (-8.0, -5.0, -2.5, -1.0, -1e-6, 0.0, 1e-6, 0.4, 1.3, 3.0, 6.0, 8.0)
_RHO = (-0.999999, -0.9, -0.5, -0.1, 0.0, 0.2, 0.6, 0.95, 0.999999)


def _scipy_orthant(h, k, rho):
    mvn = multivariate_normal(mean=[0.0, 0.0], cov=[[1.0, rho], [rho, 1.0]])
    return float(mvn.cdf([-h, -k]))


def _scipy_blame(moments, d_mean, d_var, budgets, sla):
    """The per-service formula as it reads with scipy.stats."""
    d_std = math.sqrt(max(float(d_var), 1e-18))
    p_breach = float(norm.sf(sla, loc=d_mean, scale=d_std))
    out = {}
    for service, bound in budgets.items():
        if service not in moments:
            out[service] = 0.0
            continue
        m, v, c = moments[service]
        if p_breach <= 1e-300 or v <= 0.0:
            out[service] = 0.0
            continue
        s_std = math.sqrt(v)
        rho = max(min(c / (s_std * d_std), 0.999999), -0.999999)
        zb = (float(bound) - m) / s_std
        zt = (float(sla) - d_mean) / d_std
        out[service] = min(max(_scipy_orthant(zb, zt, rho) / p_breach, 0.0), 1.0)
    return out


def test_orthant_matches_scipy_on_a_grid_with_the_zero_limits():
    h, k, rho = (a.ravel() for a in np.meshgrid(_Z, _Z, _RHO, indexing="ij"))
    got = _upper_orthant(h, k, rho)
    want = np.array([_scipy_orthant(*args) for args in zip(h, k, rho)])
    assert np.max(np.abs(got - want)) <= 1e-12
    assert np.all((got >= -1e-15) & (got <= 1.0 + 1e-15))


def test_orthant_matches_scipy_on_seeded_random_points():
    rng = np.random.default_rng(20)
    h = rng.uniform(-8.0, 8.0, size=300)
    k = rng.uniform(-8.0, 8.0, size=300)
    rho = rng.uniform(-0.999999, 0.999999, size=300)
    got = _upper_orthant(h, k, rho)
    want = np.array([_scipy_orthant(*args) for args in zip(h, k, rho)])
    assert np.max(np.abs(got - want)) <= 1e-12


def test_orthant_at_the_origin_is_the_arcsine_law():
    rho = np.array(_RHO)
    got = _upper_orthant(np.zeros_like(rho), 0.0, rho)
    np.testing.assert_allclose(
        got, 0.25 + np.arcsin(rho) / (2 * np.pi), rtol=0, atol=1e-15
    )


def _ediamond_blames(model, sla):
    from repro.apps.assessment import RapidAssessor

    d_mean, d_var, moments = RapidAssessor(model).response_moments()
    budgets = derive_budgets(model, 3.5, 0.15).as_mapping()
    got = normal_blame(moments, d_mean, d_var, budgets, sla)
    want = _scipy_blame(moments, d_mean, d_var, budgets, sla)
    assert list(got) == list(want)
    return got, want, float(norm.sf(sla, loc=d_mean, scale=math.sqrt(d_var)))


@pytest.mark.parametrize("sla", [2.5, 3.0, 3.5])
def test_normal_blame_matches_the_scipy_formula_on_ediamond(
    ediamond_continuous_model, sla
):
    got, want, _ = _ediamond_blames(ediamond_continuous_model, sla)
    for service in want:
        assert abs(got[service] - want[service]) <= 1e-12, service


@pytest.mark.parametrize("sla", [4.0, 4.5])
def test_normal_blame_in_the_far_tail_agrees_on_the_joint_mass(
    ediamond_continuous_model, sla
):
    """With ``P(D > sla)`` at 8e-6 and 7e-8, blame divides an orthant
    mass that both methods get to ~1e-16 absolute by that small number,
    so the blames themselves agree only to ~1e-9 (scipy's is the less
    accurate of the two against a 30-digit quadrature).  The orthant
    masses must still agree to 1e-15."""
    got, want, p_breach = _ediamond_blames(ediamond_continuous_model, sla)
    for service in want:
        assert abs(got[service] - want[service]) * p_breach <= 1e-15, service


def test_normal_blame_zero_cases_match_the_scipy_formula(ediamond_continuous_model):
    from repro.apps.assessment import RapidAssessor

    d_mean, d_var, moments = RapidAssessor(
        ediamond_continuous_model
    ).response_moments()
    budgets = derive_budgets(ediamond_continuous_model, 3.5, 0.15).as_mapping()
    moments = dict(moments)
    first, second = sorted(budgets)[:2]
    del moments[first]  # no moments: no blame
    m, _, c = moments[second]
    moments[second] = (m, 0.0, c)  # degenerate marginal: no blame
    budgets = {**budgets, "ghost": 1.0}
    for sla in (3.5, 1e6):  # 1e6: no breach mass at all
        got = normal_blame(moments, d_mean, d_var, budgets, sla)
        want = _scipy_blame(moments, d_mean, d_var, budgets, sla)
        assert got[first] == got[second] == got["ghost"] == 0.0
        assert all(abs(got[s] - want[s]) <= 1e-12 for s in want)


def test_tail_mass_is_bit_identical_to_norm_sf(ediamond_continuous_model):
    alloc = derive_budgets(ediamond_continuous_model, 3.5, 0.15)
    for sb in alloc.budgets:
        assert sb.tail_mass == float(norm.sf(alloc.slack))
