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
fit.

Run:  python examples/decentralized_learning.py
"""

import numpy as np

from repro import ediamond_scenario
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
    result = coordinator.learn_round(data)

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
            f"{channel.total_bytes} bytes"
        )
    summary = result.network_summary
    print(f"  total: {summary['n_messages']} messages, "
          f"{summary['total_bytes']} bytes")

    print("\nSection-4.3 accounting:")
    print(f"  decentralized (max per-CPD): {result.decentralized_seconds * 1e3:.3f} ms")
    print(f"  centralized   (sum)        : {result.centralized_seconds * 1e3:.3f} ms")
    print(f"  speedup                    : "
          f"{result.centralized_seconds / result.decentralized_seconds:.1f}x")

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
