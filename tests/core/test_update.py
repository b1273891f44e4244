"""Sequential updating vs reconstruction (the Section-2 argument)."""

import numpy as np
import pytest

from repro.bn.data import Dataset
from repro.bn.learning.mle import fit_gaussian_network
from repro.core.update import SequentialGaussianUpdater
from repro.exceptions import LearningError


def drift_experiment(dag, before, after, test_after, window_batches, decay=1.0):
    """Test log10-likelihoods of a sequential updater fed every batch and
    of a reconstruction from the last ``window_batches`` batches."""
    updater = SequentialGaussianUpdater(dag, decay=decay)
    batches = list(before) + list(after)
    for batch in batches:
        updater.ingest(batch)
    reconstructed = fit_gaussian_network(
        dag, Dataset.concat(batches[-window_batches:])
    )
    return {
        "sequential_log10": updater.network().log10_likelihood(test_after),
        "reconstructed_log10": reconstructed.log10_likelihood(test_after),
    }


def test_gaussian_updater_matches_batch_mle(chain_gaussian_net, rng):
    data = chain_gaussian_net.sample(3000, rng)
    upd = SequentialGaussianUpdater(chain_gaussian_net.dag)
    third = data.n_rows // 3
    for k in range(3):
        upd.ingest(data.rows(np.arange(k * third, (k + 1) * third)))
    seq = upd.network()
    batch = fit_gaussian_network(chain_gaussian_net.dag, data)
    for node in ("a", "b", "c"):
        assert seq.cpd(node).intercept == pytest.approx(
            batch.cpd(node).intercept, abs=1e-6
        )
        np.testing.assert_allclose(
            seq.cpd(node).coefficients, batch.cpd(node).coefficients, atol=1e-6
        )
        assert seq.cpd(node).variance == pytest.approx(
            batch.cpd(node).variance, rel=1e-3
        )


def test_gaussian_updater_validation(chain_gaussian_net):
    with pytest.raises(LearningError):
        SequentialGaussianUpdater(chain_gaussian_net.dag, decay=0.0)
    upd = SequentialGaussianUpdater(chain_gaussian_net.dag)
    with pytest.raises(LearningError):
        upd.cpd("a")  # nothing ingested


def test_stale_data_lingers_without_decay(chain_gaussian_net, rng):
    """The paper's core Section-2 claim, made quantitative."""
    from repro.bn.cpd import LinearGaussianCPD
    from repro.bn.network import GaussianBayesianNetwork

    old = chain_gaussian_net
    # Drift: b's dependence on a doubles.
    drifted = GaussianBayesianNetwork(
        old.dag,
        [
            old.cpd("a"),
            LinearGaussianCPD("b", 0.5, [4.0], 0.3, ("a",)),
            old.cpd("c"),
        ],
    )
    before = [old.sample(500, rng) for _ in range(4)]
    after = [drifted.sample(500, rng) for _ in range(2)]
    test_after = drifted.sample(1000, rng)

    result = drift_experiment(
        old.dag, before, after, test_after, window_batches=2
    )
    # Windowed reconstruction sees only post-drift data; the sequential
    # updater still carries 2000 stale rows -> worse fit.
    assert result["reconstructed_log10"] > result["sequential_log10"]


def test_decay_mitigates_staleness(chain_gaussian_net, rng):
    from repro.bn.cpd import LinearGaussianCPD
    from repro.bn.network import GaussianBayesianNetwork

    old = chain_gaussian_net
    drifted = GaussianBayesianNetwork(
        old.dag,
        [
            old.cpd("a"),
            LinearGaussianCPD("b", 0.5, [4.0], 0.3, ("a",)),
            old.cpd("c"),
        ],
    )
    before = [old.sample(500, rng) for _ in range(4)]
    after = [drifted.sample(500, rng) for _ in range(2)]
    test_after = drifted.sample(1000, rng)

    no_decay = drift_experiment(old.dag, before, after, test_after, 2, decay=1.0)
    heavy_decay = drift_experiment(old.dag, before, after, test_after, 2, decay=0.2)
    assert heavy_decay["sequential_log10"] > no_decay["sequential_log10"]
