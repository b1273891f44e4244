"""Scenario corpus: seeded topology/delay/arrival diversity for the matrix.

Every experiment before this package ran the one canned eDiaMoND
workflow.  ``repro.corpus`` generates *families* of scenarios — random
Cardoso compositions (sequence/parallel/choice/loop, nested, 10–500
services) paired with queueing-theoretic delay processes (M/M/k,
G/G/1), bursty/diurnal arrival modulation and failure-storm windows —
and derives each scenario's response-time function and KERT-BN
structure automatically.  The (family × size × delay-regime) benchmark
matrix in ``benchmarks/test_corpus_matrix.py`` runs the KERT-BN vs
NRT-BN comparison over it nightly.
"""

from repro.corpus.generate import (
    GeneratedScenario,
    build_scenario,
    failure_storm,
    scenario_rng,
)
from repro.corpus.matrix import (
    format_cell_report,
    run_cell,
    summarize,
)
from repro.corpus.spec import (
    ARRIVAL_REGIMES,
    DELAY_REGIMES,
    FAMILY_KNOBS,
    ScenarioSpec,
    default_corpus,
)

__all__ = [
    "ARRIVAL_REGIMES",
    "DELAY_REGIMES",
    "FAMILY_KNOBS",
    "GeneratedScenario",
    "ScenarioSpec",
    "build_scenario",
    "default_corpus",
    "failure_storm",
    "format_cell_report",
    "run_cell",
    "scenario_rng",
    "summarize",
]
