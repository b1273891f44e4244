"""Serving-layer fixtures.

The shared session fixtures (``ediamond_discrete_model`` etc.) must not
be mutated; serving tests that install fault hooks on the compiled
engine therefore get a *fresh* model per test.  Building a discrete
KERT-BN is milliseconds, so this costs nothing.
"""

import pytest


@pytest.fixture
def fresh_discrete_model(ediamond_env, ediamond_data):
    from repro.core.kertbn import build_discrete_kertbn

    train, _ = ediamond_data
    return build_discrete_kertbn(ediamond_env.workflow, train, n_bins=4)
