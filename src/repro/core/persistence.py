"""Whole-model persistence: KERT-BN / NRT-BN bundles.

A *bundle* is everything an autonomic component needs to use a built
model later or elsewhere: the network (with its Eq.-4 expression), the
response-node name, the discretizer (for discrete models), and the
construction report.  Bundles are plain JSON.

Bundles carry a ``schema_version`` so a registry rollback across code
changes fails loudly (:class:`~repro.exceptions.DataError`) instead of
deserializing garbage; truncated or corrupt bundles name the offending
key in the error.  Writes are atomic (temp file + rename) so a crashed
writer can never leave a half-written bundle behind.
"""

from __future__ import annotations

import json
import os
from typing import Any

from repro.bn.discretize import Discretizer
from repro.bn.io import network_from_dict, network_to_dict
from repro.core.kertbn import KERTBN
from repro.core.metrics import BuildReport
from repro.core.nrtbn import NRTBN
from repro.exceptions import DataError
from repro.workflow.response_time import ResponseTimeFunction

#: Bundle layout version.  Bump when the serialized shape changes
#: incompatibly; readers refuse unknown versions with a clear message.
SCHEMA_VERSION = 1

#: Versions this build knows how to read.  Bundles written before the
#: field existed are treated as version 1 (the field was introduced with
#: that layout).
SUPPORTED_SCHEMA_VERSIONS = (1,)


def write_json_atomic(path: str, obj: Any) -> None:
    """Serialize ``obj`` to ``path`` via a same-directory temp file and
    an atomic rename, so readers never observe a partial file.

    One ``json.dumps`` call runs the C encoder (``json.dump`` streams
    through the pure-Python one); the bytes are the same."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(json.dumps(obj))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def discretizer_to_dict(disc: Discretizer) -> dict:
    return {
        "n_bins": disc.n_bins,
        "strategy": disc.strategy,
        "edges": {c: disc.edges(c).tolist() for c in disc.columns},
        "centers": {c: disc.centers(c).tolist() for c in disc.columns},
    }


def discretizer_from_dict(spec: dict) -> Discretizer:
    disc = Discretizer.from_edges(
        spec["edges"], centers=spec.get("centers"), strategy=spec["strategy"]
    )
    # Preserve the fitted configuration rather than from_edges' inferred
    # floor, so a re-fit after loading behaves like the original.
    disc.n_bins = int(spec["n_bins"])
    return disc


def _report_to_dict(report: BuildReport) -> dict:
    return {
        "model_kind": report.model_kind,
        "structure_seconds": report.structure_seconds,
        "parameter_seconds": report.parameter_seconds,
        "per_cpd_seconds": dict(report.per_cpd_seconds),
        "n_nodes": report.n_nodes,
        "n_edges": report.n_edges,
        "n_parameters": report.n_parameters,
        "n_training_rows": report.n_training_rows,
        "extra": dict(report.extra),
    }


def _report_from_dict(spec: dict) -> BuildReport:
    return BuildReport(**spec)


def model_to_dict(model: "KERTBN | NRTBN") -> dict:
    """Serialize a built model (either family) to a JSON-compatible dict."""
    out: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "family": "kertbn" if isinstance(model, KERTBN) else "nrtbn",
        "response": model.response,
        "network": network_to_dict(model.network),
        "report": _report_to_dict(model.report),
    }
    if model.discretizer is not None:
        out["discretizer"] = discretizer_to_dict(model.discretizer)
    if isinstance(model, KERTBN):
        out["f"] = model.f.to_string()
        from repro.bn.io import expression_to_dict

        out["f_expression"] = expression_to_dict(model.f.expression)
    return out


def model_from_dict(spec: dict) -> "KERTBN | NRTBN":
    """Reconstruct a usable model from a bundle dict.

    KERT-BN bundles recover their ``f`` (as a bare expression — the
    original workflow AST is not needed to *use* the model).  Unknown
    schema versions and truncated bundles raise :class:`DataError` with
    the offending field named.
    """
    version = spec.get("schema_version", 1)
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        raise DataError(
            f"bundle schema_version {version!r} is not supported by this "
            f"build (supported: {list(SUPPORTED_SCHEMA_VERSIONS)}); refusing "
            f"to deserialize a bundle written by an incompatible code version"
        )
    family = spec.get("family")
    if family not in ("kertbn", "nrtbn"):
        raise DataError(f"unknown model family {family!r}")
    try:
        network = network_from_dict(spec["network"])
        report = _report_from_dict(spec["report"])
        disc = (
            discretizer_from_dict(spec["discretizer"])
            if "discretizer" in spec
            else None
        )
        if family == "nrtbn":
            return NRTBN(
                network=network,
                response=spec["response"],
                report=report,
                discretizer=disc,
            )
        from repro.bn.io import expression_from_dict

        expr = expression_from_dict(spec["f_expression"])
        f = ResponseTimeFunction(workflow=None, expression=expr)
        return KERTBN(
            network=network,
            f=f,
            response=spec["response"],
            report=report,
            discretizer=disc,
        )
    except KeyError as exc:
        raise DataError(
            f"bundle truncated or corrupt: missing key {exc.args[0]!r}"
        ) from exc
    except TypeError as exc:
        raise DataError(f"bundle truncated or corrupt: {exc}") from exc


def save_model(model: "KERTBN | NRTBN", path: str) -> None:
    """Write a model bundle to ``path`` (JSON, atomically)."""
    write_json_atomic(path, model_to_dict(model))


def load_model(path: str) -> "KERTBN | NRTBN":
    """Read a model bundle from ``path``.

    Raises :class:`DataError` (never raw ``KeyError``/``JSONDecodeError``)
    on truncated, corrupt, or incompatible bundles.
    """
    with open(path) as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"bundle {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise DataError(f"bundle {path!r} does not contain a JSON object")
    return model_from_dict(spec)
