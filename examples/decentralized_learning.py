#!/usr/bin/env python
"""Decentralized parameter learning (Sections 3.4 and 4.3).

Every KERT-BN service CPD ``P(X_i | Φ(X_i))`` depends only on service
*i*'s own measurements plus its parents' — so each service's monitoring
agent can learn its CPD locally after the parents ship their columns
over (piggybacked on application messages in the paper's SOAP
suggestion).  The management server keeps just the structure and the
finished CPDs.

The script runs one decentralized learning round on the eDiaMoND
scenario, prints the per-agent costs and the communication bill, shows
the Section-4.3 accounting (decentralized = max per-agent time,
centralized = sum), and cross-checks the result against a centralized
fit.  The round runs with :mod:`repro.obs` on, and the script checks
that its ``decentralized.round`` span carries the accounted round time.

Run:  python examples/decentralized_learning.py
"""

import numpy as np

from repro import ediamond_scenario, obs
from repro.bn.learning.mle import fit_gaussian_network
from repro.bn.network import GaussianBayesianNetwork
from repro.decentralized import Coordinator
from repro.decentralized.agent import linear_gaussian_fitter


def main() -> None:
    env = ediamond_scenario()
    data = env.simulate(600, rng=3)
    dag = env.knowledge_structure()
    service_dag = dag.subgraph([n for n in dag.nodes if n != "D"])

    coordinator = Coordinator(service_dag, linear_gaussian_fitter())
    was_enabled = obs.is_enabled()
    rounds = obs.OBS.metrics.counter("decentralized.rounds")
    rounds_before = rounds.value
    obs.enable()
    try:
        result = coordinator.learn_round(data)
    finally:
        if not was_enabled:
            obs.disable()
    # The observed round: one span holding one child per agent (and the
    # response CPD's, when one is fitted), timed as the slowest agent.
    round_span = obs.OBS.tracer.roots[-1]
    expected = {f"agent:{name}" for name in coordinator.agents}
    if coordinator.response is not None:
        expected.add("response-cpd")
    assert round_span.name == "decentralized.round"
    assert sorted(c.name for c in round_span.children) == sorted(expected)
    assert round_span.duration == result.decentralized_seconds
    assert rounds.value - rounds_before == 1

    print("Per-agent CPD learning (each runs on its service's machine):")
    for service in sorted(result.per_agent_seconds):
        agent = coordinator.agents[service]
        parents = ", ".join(agent.parents) if agent.parents else "(root, no comms)"
        print(
            f"  {service:3s} | parents: {parents:20s} | "
            f"fit {result.per_agent_seconds[service] * 1e6:7.1f} us"
        )

    print("\nCommunication (parent -> child elapsed-time columns):")
    for channel in coordinator.network:
        print(
            f"  {channel.sender:3s} -> {channel.recipient:3s}: "
            f"{channel.bytes_delivered} bytes"
        )
    summary = result.network_summary
    print(f"  total: {summary['n_messages']} messages, "
          f"{summary['total_bytes']} bytes")

    print("\nSection-4.3 accounting:")
    print(f"  decentralized (max per-CPD): {result.decentralized_seconds * 1e3:.3f} ms")
    print(f"  centralized   (sum)        : {result.centralized_seconds * 1e3:.3f} ms")
    print(f"  speedup                    : "
          f"{result.centralized_seconds / result.decentralized_seconds:.1f}x")
    print(f"  observed round span        : {round_span.duration * 1e3:.3f} ms "
          f"over {len(round_span.children)} agent spans")

    # Cross-check: same parameters as a centralized fit.
    assembled = GaussianBayesianNetwork(service_dag, list(result.cpds.values()))
    central = fit_gaussian_network(service_dag, data)
    probe = data.head(100)
    assert np.isclose(
        assembled.log10_likelihood(probe), central.log10_likelihood(probe)
    )
    print("\nAssembled network matches the centralized fit exactly.")


if __name__ == "__main__":
    main()
