#!/usr/bin/env python
"""The ``repro`` command line end to end: every subcommand, each output checked.

The paper promises a model that "can be integrated into autonomic
solutions with minimal effort"; :mod:`repro.cli` is that integration
surface.  This script runs it in-process in a temporary directory, with
observability on from the first command (as ``REPRO_OBS=1`` has it):

1. ``simulate`` a training window, a held-out window and a window with
   reporting loss (Sec. 5.1);
2. ``inspect-workflow`` on the written workflow;
3. ``build`` a continuous and a discrete KERT-BN;
4. ``score`` the continuous model on the held-out window;
5. ``assess`` a predicted slowdown (pAccel);
6. ``dcomp`` an unobservable service, once with response evidence;
7. ``localize`` a slowed service, which must rank first;
8. ``slo budgets`` on both model kinds;
9. ``registry`` publish twice, list, roll back, and a refused
   activation of the abandoned version;
10. ``serve`` the registry's active version with ``--trace-out``;
11. ``dashboard`` on that trace.

Each step checks the command's exit code and one token of its output,
so a broken command fails the script.

Run:  python examples/cli_pipeline.py
"""

import contextlib
import io
import os
import tempfile

import numpy as np

from repro import obs
from repro.bn.csvio import dataset_from_csv
from repro.cli import main as repro

SLOWED = "X4"  # the service step 7 slows down


def run(*argv: str, expect: str, code: int = 0) -> str:
    """Run one ``repro`` command; check its exit code and an output token."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        got = repro(list(argv))
    text = out.getvalue() + err.getvalue()
    print(f"$ repro {' '.join(argv)}")
    for line in text.splitlines():
        print(f"  {line}")
    assert got == code, f"repro {argv[0]} exited {got}, expected {code}"
    assert expect in text, f"{expect!r} is not in the output of repro {argv[0]}"
    return text


def pipeline() -> None:
    # 1. Monitoring windows.
    run("simulate", "--scenario", "ediamond", "--points", "1200", "--seed", "7",
        "--out", "train.csv", "--workflow-out", "wf.json",
        expect="wrote 1200 points")
    run("simulate", "--points", "300", "--seed", "8", "--out", "test.csv",
        expect="wrote 300 points")
    run("simulate", "--points", "200", "--seed", "9", "--reporting-loss", "0.2",
        "--out", "lossy.csv", expect="wrote 200 points")

    # 2. Domain knowledge: f and the KERT-BN structure.
    run("inspect-workflow", "wf.json",
        expect="D = X1 + X2 + max(X3 + X5, X4 + X6)")

    # 3. Models.
    run("build", "--family", "kert", "--kind", "continuous", "--workflow",
        "wf.json", "--data", "train.csv", "--out", "cont.json",
        expect="model: kert-bn/continuous")
    run("build", "--family", "kert", "--kind", "discrete", "--workflow",
        "wf.json", "--data", "train.csv", "--out", "disc.json",
        expect="model: kert-bn/discrete")

    # 4-6. Applications on the continuous model.
    run("score", "--model", "cont.json", "--data", "test.csv",
        expect="n_rows=300")
    run("assess", "--model", "cont.json", "--set", f"{SLOWED}=0.6",
        "--threshold", "2.0", expect="P(D>2)=")
    run("dcomp", "--model", "cont.json", "--target", SLOWED,
        "--observe", "X1=0.2", "--observe", "X2=0.15",
        expect="posterior: mean=")
    run("dcomp", "--model", "cont.json", "--target", SLOWED,
        "--observe", "X1=0.2", "--observe", "D=3.0",
        expect="posterior: mean=")

    # 7. Localization: the healthy means, with one service slowed 3x.
    train = dataset_from_csv("train.csv")
    current = {c: float(np.mean(train[c])) for c in train.columns if c != "D"}
    current[SLOWED] *= 3.0
    text = run("localize", "--model", "cont.json", "--top", "3",
               *(f"--observe={name}={mean:.4f}" for name, mean in current.items()),
               expect="rank")
    first = text.splitlines()[1].split()
    assert first[:2] == ["1", SLOWED], f"{SLOWED} does not rank first: {first}"

    # 8. SLO budgets on both model kinds.
    run("slo", "budgets", "--model", "cont.json", "--sla", "3.5",
        "--target", "0.1", expect="composition: ")
    run("slo", "budgets", "--model", "disc.json", "--sla", "3.5",
        "--target", "0.1", "--json", "budgets.json",
        expect="wrote budget allocation to budgets.json")

    # 9. Registry: v1 discrete, v2 continuous; v2 is abandoned.
    run("registry", "publish", "--root", "reg", "--model", "disc.json",
        expect="published v1 (active)")
    run("registry", "publish", "--root", "reg", "--model", "cont.json",
        expect="published v2 (active)")
    run("registry", "list", "--root", "reg", expect="* v2")
    run("registry", "rollback", "--root", "reg", "--reason", "smoke test",
        expect="rolled back; active: v1")
    run("registry", "activate", "--root", "reg", "--version", "2", code=1,
        expect="refusing to activate unhealthy version 2")

    # 10-11. Serve the active version under a trace, then render the trace.
    run("--trace-out", "trace.json", "serve", "--registry", "reg",
        "--target", SLOWED, "--observe", "X1=1", expect="serving: v1")
    run("dashboard", "--snapshot", "trace.json", expect="cli.serve")


def main() -> None:
    obs.enable()
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="repro-cli-") as tmp:
        os.chdir(tmp)
        try:
            pipeline()
        finally:
            os.chdir(home)
    print("\nevery repro command ran and printed what it should")


if __name__ == "__main__":
    main()
