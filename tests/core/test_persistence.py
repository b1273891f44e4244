"""Model bundles: save/load for both families and kinds."""

import json

import numpy as np
import pytest

from repro.core.persistence import (
    discretizer_from_dict,
    discretizer_to_dict,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from repro.exceptions import DataError


def test_discretizer_roundtrip(ediamond_data):
    from repro.bn.discretize import Discretizer

    train, test = ediamond_data
    disc = Discretizer(n_bins=4).fit(train)
    loaded = discretizer_from_dict(
        json.loads(json.dumps(discretizer_to_dict(disc)))
    )
    t1 = disc.transform(test)
    t2 = loaded.transform(test)
    for c in t1.columns:
        np.testing.assert_array_equal(t1[c], t2[c])
    np.testing.assert_allclose(loaded.centers("D"), disc.centers("D"))


def test_continuous_kertbn_bundle_roundtrip(
    tmp_path, ediamond_continuous_model, ediamond_data
):
    _, test = ediamond_data
    path = str(tmp_path / "kert.json")
    save_model(ediamond_continuous_model, path)
    loaded = load_model(path)
    assert loaded.log10_likelihood(test) == pytest.approx(
        ediamond_continuous_model.log10_likelihood(test)
    )
    assert loaded.f.to_string() == ediamond_continuous_model.f.to_string()
    assert loaded.report.model_kind == "kert-bn/continuous"
    # The loaded model remains usable by the apps.
    from repro.apps.paccel import PAccel

    res = PAccel(loaded).baseline(n_samples=2000, rng=0)
    assert np.isfinite(res.mean)


def test_discrete_kertbn_bundle_roundtrip(
    tmp_path, ediamond_discrete_model, ediamond_data
):
    _, test = ediamond_data
    path = str(tmp_path / "kertd.json")
    save_model(ediamond_discrete_model, path)
    loaded = load_model(path)
    assert loaded.discretizer is not None
    assert loaded.log10_likelihood(test) == pytest.approx(
        ediamond_discrete_model.log10_likelihood(test)
    )


def test_nrtbn_bundle_roundtrip(tmp_path, ediamond_data):
    from repro.core.nrtbn import build_continuous_nrtbn

    train, test = ediamond_data
    model = build_continuous_nrtbn(train, rng=0)
    path = str(tmp_path / "nrt.json")
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.report.model_kind == "nrt-bn/continuous"
    assert loaded.log10_likelihood(test) == pytest.approx(
        model.log10_likelihood(test)
    )


def test_unknown_family_rejected():
    with pytest.raises(DataError):
        model_from_dict({"family": "martian"})


def test_bundle_is_json_clean(ediamond_discrete_model):
    # Every value must survive strict JSON (no numpy scalars/arrays).
    text = json.dumps(model_to_dict(ediamond_discrete_model))
    assert "NaN" not in text
    json.loads(text)


# --------------------------------------------------------------------- #
# Schema versioning and corruption handling
# --------------------------------------------------------------------- #


def test_bundles_carry_schema_version(ediamond_discrete_model):
    from repro.core.persistence import SCHEMA_VERSION

    spec = model_to_dict(ediamond_discrete_model)
    assert spec["schema_version"] == SCHEMA_VERSION


def test_unknown_schema_version_refused_with_message(ediamond_discrete_model):
    spec = model_to_dict(ediamond_discrete_model)
    spec["schema_version"] = 999
    with pytest.raises(DataError, match="schema_version 999"):
        model_from_dict(spec)


def test_legacy_bundle_without_schema_version_still_loads(
    ediamond_discrete_model, ediamond_data
):
    _, test = ediamond_data
    spec = model_to_dict(ediamond_discrete_model)
    del spec["schema_version"]  # pre-versioning layout
    loaded = model_from_dict(json.loads(json.dumps(spec)))
    assert loaded.log10_likelihood(test) == pytest.approx(
        ediamond_discrete_model.log10_likelihood(test)
    )


def test_truncated_bundle_names_the_missing_key(ediamond_discrete_model):
    spec = model_to_dict(ediamond_discrete_model)
    del spec["network"]
    with pytest.raises(DataError, match="missing key 'network'"):
        model_from_dict(spec)


def test_corrupt_json_file_is_a_dataerror(tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        fh.write('{"family": "kert", "netw')
    with pytest.raises(DataError, match="not valid JSON"):
        load_model(path)
    with open(path, "w") as fh:
        fh.write('["not", "a", "bundle"]')
    with pytest.raises(DataError):
        load_model(path)


# --------------------------------------------------------------------- #
# Discretizer.from_edges and edge-case model round-trips
# --------------------------------------------------------------------- #


def test_from_edges_constructor_validates():
    from repro.bn.discretize import Discretizer

    disc = Discretizer.from_edges({"a": [0.0, 1.0, 2.0]})
    assert disc.cardinality("a") == 2
    np.testing.assert_allclose(disc.centers("a"), [0.5, 1.5])
    with pytest.raises(DataError):
        Discretizer.from_edges({"a": [1.0]})                 # too few edges
    with pytest.raises(DataError):
        Discretizer.from_edges({"a": [0.0, 0.0, 1.0]})       # not increasing
    with pytest.raises(DataError):
        Discretizer.from_edges({"a": [0.0, np.nan, 1.0]})    # not finite
    with pytest.raises(DataError):
        Discretizer.from_edges(
            {"a": [0.0, 1.0]}, centers={"a": [0.25, 0.75]}
        )  # centers length must match bin count
    with pytest.raises(DataError):
        Discretizer.from_edges({"a": [0.0, 1.0]}, centers={"zz": [0.5]})


def test_single_bin_column_roundtrip(tmp_path, ediamond_discrete_model):
    """A degenerate single-bin column is legal via from_edges and must
    survive a bundle round-trip (fit() can never produce one, but a
    hand-built or degraded bundle can)."""
    from repro.core.persistence import discretizer_from_dict, discretizer_to_dict
    from repro.bn.discretize import Discretizer

    disc = Discretizer.from_edges(
        {"only": [0.0, 10.0], "multi": [0.0, 1.0, 2.0, 3.0]}
    )
    assert disc.cardinality("only") == 1
    loaded = discretizer_from_dict(
        json.loads(json.dumps(discretizer_to_dict(disc)))
    )
    assert loaded.cardinality("only") == 1
    assert loaded.state_of("only", 123.4) == 0  # everything clips into the bin
    np.testing.assert_allclose(loaded.edges("multi"), disc.edges("multi"))
    np.testing.assert_allclose(loaded.centers("only"), disc.centers("only"))


def test_degraded_round_stale_cpd_model_roundtrip(tmp_path):
    """A partially-learned model carrying stale CPDs from a degraded
    decentralized round must persist and reload like any other."""
    from repro.bn.dag import DAG
    from repro.bn.data import Dataset
    from repro.bn.network import GaussianBayesianNetwork
    from repro.core.metrics import BuildReport
    from repro.core.nrtbn import NRTBN
    from repro.decentralized.coordinator import Coordinator
    from repro.bn.learning.mle import fit_linear_gaussian
    from repro.exceptions import LearningError

    dag = DAG(nodes=["a", "b", "c"], edges=[("a", "b"), ("b", "c")])

    broken = {"node": None}

    def fitter(data, variable, parents):
        if variable == broken["node"]:
            raise LearningError("chaos: fit diverged")
        return fit_linear_gaussian(data, variable, parents)

    def window(seed):
        r = np.random.default_rng(seed)
        a = r.normal(1.0, 0.2, size=120)
        b = 0.5 + 2.0 * a + r.normal(0, 0.1, size=120)
        c = -1.0 + 1.5 * b + r.normal(0, 0.1, size=120)
        return Dataset({"a": a, "b": b, "c": c})

    coord = Coordinator(dag, fitter, rng=0)
    healthy = coord.learn_round(window(1))
    assert healthy.complete and not healthy.degraded
    broken["node"] = "b"
    degraded = coord.learn_round(window(2))
    assert degraded.degraded and "b" in degraded.stale

    model = NRTBN(
        network=GaussianBayesianNetwork(dag, list(degraded.cpds.values())),
        response="c",
        report=BuildReport(model_kind="nrt-bn/continuous"),
    )
    path = str(tmp_path / "stale.json")
    save_model(model, path)
    loaded = load_model(path)
    test = window(3)
    assert loaded.log10_likelihood(test) == pytest.approx(
        model.log10_likelihood(test)
    )


def test_bundle_to_registry_to_rollback_query_equivalence(
    tmp_path, ediamond_discrete_model, ediamond_data
):
    """Bundle → registry → rollback → query must answer exactly like the
    in-memory model it started from."""
    from repro.serving.registry import ModelRegistry
    from repro.serving.server import ModelServer

    train, _ = ediamond_data
    model = ediamond_discrete_model
    reg = ModelRegistry(str(tmp_path / "reg"))
    reg.publish(model)
    reg.publish(model)
    reg.rollback(reason="equivalence check")
    assert reg.active_version == 1

    srv = ModelServer(reg, rng=0)
    svc = next(n for n in model.network.nodes if n != model.response)
    mean = float(np.mean(train[svc]))
    served = srv.query([model.response], {svc: mean})
    assert served.ok and served.tier == "compiled-einsum"
    disc = model.discretizer
    direct = model.network.compiled().query(
        [model.response], {svc: disc.state_of(svc, mean)}
    ).values
    np.testing.assert_allclose(served.value, direct)


def _pure_python_json(obj) -> str:
    """``obj`` through the pure-Python encoder that ``json.dump`` streams."""
    return "".join(json.JSONEncoder().iterencode(obj))


def test_written_bytes_equal_the_pure_python_encoder(
    tmp_path, ediamond_continuous_model, ediamond_discrete_model
):
    """Bundles and the registry manifest are written with the C encoder;
    the bytes equal what the pure-Python encoder (``json.dump``) gives."""
    from repro.serving.registry import ModelRegistry

    registry = ModelRegistry(str(tmp_path / "registry"))
    for name, model in [
        ("continuous", ediamond_continuous_model),
        ("discrete", ediamond_discrete_model),
    ]:
        path = tmp_path / f"{name}.json"
        save_model(model, str(path))
        expected = _pure_python_json(model_to_dict(model))
        assert path.read_text() == expected
        version = registry.publish(model, metadata={"kind": name, "x": 0.1})
        bundle = tmp_path / "registry" / registry.info(version).file
        assert bundle.read_text() == expected
    manifest = (tmp_path / "registry" / "MANIFEST.json").read_text()
    assert manifest == _pure_python_json(json.loads(manifest))
