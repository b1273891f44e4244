"""Decentralized parameter learning (Section 3.4).

Each CPD ``P(X_i | Φ(X_i))`` needs only the data of service *i* and its
KERT-BN parents, so it can be computed *on service i's monitoring agent*
after the parents ship their elapsed-time columns over (piggybacked on
application requests in the paper's SOAP suggestion).  The central
server keeps only the structure and the finished CPDs.

Four layers:

- :mod:`repro.decentralized.messaging` — channels with payload-size
  accounting between agents;
- :mod:`repro.decentralized.agent` / :mod:`repro.decentralized.coordinator`
  — the agent-side learning step and the server-side assembly, with the
  Section-4.3 timing accounting (decentralized time = max per-agent
  time; centralized = sum);
- :mod:`repro.decentralized.piggyback` — parent columns shipped on
  application requests instead of dedicated messages;
- :mod:`repro.decentralized.resilience` — retry/backoff/timeout policy
  and the last-known-good CPD store that lets a round complete
  *partially* (stale CPDs substituted, fresh/stale/failed reported)
  when channels drop messages or agents fail.
"""

from repro.decentralized.messaging import Message, Channel, ChannelFaults, Network
from repro.decentralized.agent import LearningAgent
from repro.decentralized.coordinator import Coordinator, DecentralizedResult
from repro.decentralized.piggyback import PiggybackDistributor, PiggybackResult
from repro.decentralized.resilience import (
    FAILED,
    FRESH,
    STALE,
    NodeOutcome,
    RetryPolicy,
    RoundState,
)

__all__ = [
    "Message",
    "Channel",
    "ChannelFaults",
    "Network",
    "LearningAgent",
    "Coordinator",
    "DecentralizedResult",
    "PiggybackDistributor",
    "PiggybackResult",
    "RetryPolicy",
    "RoundState",
    "NodeOutcome",
    "FRESH",
    "STALE",
    "FAILED",
]
