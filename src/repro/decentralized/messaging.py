"""Simulated agent-to-agent messaging with payload accounting and faults.

The paper proposes piggybacking parent elapsed-time data "in an extra
SOAP segment at the end of the application request messages"
(Section 3.4) and requires communication "at a frequency that will not
flood the network".  The :class:`Network` here records every transfer's
payload size so experiments can report the communication cost of
decentralization alongside its time savings.

Two properties matter for the heavy-traffic north star:

- **Bounded memory.**  Channels keep *counters* (messages, bytes, fault
  tallies), never per-message history, so accounting cost is O(1) per
  transfer regardless of how many rounds a deployment runs.
- **Per-round deltas.**  :meth:`Network.begin_round` snapshots the
  cumulative counters; :meth:`Network.round_summary` reports only the
  traffic since the snapshot.  Without this, a second ``learn_round``'s
  summary would silently double-count the first round's messages — the
  bug that motivated this layer.

Faults are injected at the channel: a :class:`ChannelFaults` spec drops,
duplicates, or delays each transfer with configured probabilities from a
seeded RNG, so chaos experiments are deterministic and replayable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from repro.exceptions import CommunicationError
from repro.utils.rng import ensure_rng


@dataclass(frozen=True)
class Message:
    """One batch of elapsed-time data from a parent agent to a child agent.

    ``latency`` is the simulated delivery delay (seconds) the message
    suffered in transit — zero on a healthy channel.
    """

    sender: str
    recipient: str
    column: str
    payload: np.ndarray
    latency: float = 0.0

    @property
    def n_values(self) -> int:
        return int(np.asarray(self.payload).size)

    @property
    def n_bytes(self) -> int:
        return int(np.asarray(self.payload).nbytes)


@dataclass(frozen=True)
class ChannelFaults:
    """Per-transfer fault probabilities for a channel (seeded, replayable).

    Each :meth:`Channel.transmit` draws independently: the message is
    dropped with probability ``drop``; a surviving message is delayed by
    ``delay_seconds`` with probability ``delay``, and delivered twice
    (both copies crossing the wire) with probability ``duplicate``.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    delay_seconds: float = 0.05

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "delay"):
            p = getattr(self, name)
            if not 0.0 <= p < 1.0:
                raise CommunicationError(f"{name} must be in [0, 1), got {p}")
        if self.delay_seconds < 0:
            raise CommunicationError("delay_seconds must be >= 0")

    @property
    def any(self) -> bool:
        return bool(self.drop or self.duplicate or self.delay)


@dataclass
class Channel:
    """A directed link between two agents.

    Keeps O(1) counters only — no message history — so a channel's
    memory footprint is independent of traffic volume.
    """

    sender: str
    recipient: str
    faults: "ChannelFaults | None" = None
    n_sent: int = 0          # transfers attempted
    n_delivered: int = 0     # copies that arrived (duplicates count twice)
    n_dropped: int = 0
    n_duplicated: int = 0
    n_delayed: int = 0
    bytes_delivered: int = 0
    delay_seconds: float = 0.0  # total simulated in-transit delay

    def _deliver(self, msg: Message) -> Message:
        self.n_delivered += 1
        self.bytes_delivered += msg.n_bytes
        return msg

    def send(self, column: str, payload: np.ndarray) -> Message:
        """Fault-free transfer: always delivers exactly one message."""
        self.n_sent += 1
        return self._deliver(
            Message(
                sender=self.sender,
                recipient=self.recipient,
                column=column,
                payload=np.asarray(payload, dtype=float),
            )
        )

    def transmit(
        self,
        column: str,
        payload: np.ndarray,
        rng=None,
        faults: "ChannelFaults | None" = None,
    ) -> list:
        """Transfer through a fault model (``faults`` overrides the
        channel's own — the network passes its current config so chaos
        can be switched on mid-deployment).

        Returns the list of delivered :class:`Message` copies — empty if
        the transfer was dropped, two entries if it was duplicated.
        """
        faults = faults if faults is not None else self.faults
        if faults is None or not faults.any:
            return [self.send(column, payload)]
        rng = ensure_rng(rng)
        self.n_sent += 1
        if rng.random() < faults.drop:
            self.n_dropped += 1
            return []
        msg = Message(
            sender=self.sender,
            recipient=self.recipient,
            column=column,
            payload=np.asarray(payload, dtype=float),
        )
        if rng.random() < faults.delay:
            self.n_delayed += 1
            self.delay_seconds += faults.delay_seconds
            msg = replace(msg, latency=faults.delay_seconds)
        out = [self._deliver(msg)]
        if rng.random() < faults.duplicate:
            self.n_duplicated += 1
            out.append(self._deliver(msg))
        return out

    @property
    def total_bytes(self) -> int:
        return self.bytes_delivered


# Counter names aggregated by Network totals / round deltas.
_COUNTERS = (
    "n_sent",
    "n_delivered",
    "n_dropped",
    "n_duplicated",
    "n_delayed",
    "bytes_delivered",
    "delay_seconds",
)


class Network:
    """All channels of a decentralized learning deployment.

    ``faults`` (optional) is the default fault model applied to every
    channel the network creates; ``rng`` seeds the fault draws so a
    chaos run is reproducible end to end.
    """

    def __init__(self, faults: "ChannelFaults | None" = None, rng=None) -> None:
        self._channels: dict[tuple[str, str], Channel] = {}
        self.faults = faults
        self.rng = ensure_rng(rng)
        self._round_base: "dict | None" = None

    def channel(self, sender: str, recipient: str) -> Channel:
        if sender == recipient:
            raise CommunicationError("an agent does not message itself")
        key = (sender, recipient)
        if key not in self._channels:
            self._channels[key] = Channel(
                sender=sender, recipient=recipient, faults=self.faults
            )
        return self._channels[key]

    def transmit(self, sender: str, recipient: str, column: str, payload) -> list:
        """Send through the (auto-created) channel with the network's RNG
        and its *current* fault config (so chaos toggles mid-deployment)."""
        return self.channel(sender, recipient).transmit(
            column, payload, self.rng, faults=self.faults
        )

    def __iter__(self) -> Iterator[Channel]:
        return iter(self._channels.values())

    @property
    def n_messages(self) -> int:
        return sum(c.n_delivered for c in self._channels.values())

    @property
    def total_bytes(self) -> int:
        return sum(c.bytes_delivered for c in self._channels.values())

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #

    def _totals(self) -> dict:
        totals = {name: 0 for name in _COUNTERS}
        totals["delay_seconds"] = 0.0
        for c in self._channels.values():
            for name in _COUNTERS:
                totals[name] += getattr(c, name)
        return totals

    def summary(self) -> dict:
        """Cumulative traffic since the network was created."""
        totals = self._totals()
        return {
            "n_channels": len(self._channels),
            "n_messages": totals["n_delivered"],
            "total_bytes": totals["bytes_delivered"],
            "n_sent": totals["n_sent"],
            "n_dropped": totals["n_dropped"],
            "n_duplicated": totals["n_duplicated"],
            "n_delayed": totals["n_delayed"],
            "delay_seconds": totals["delay_seconds"],
        }

    def begin_round(self) -> None:
        """Snapshot cumulative counters; the next round reports deltas."""
        self._round_base = self._totals()

    def round_summary(self) -> dict:
        """Traffic since the last :meth:`begin_round` (cumulative if never
        called) — the per-round cost a Fig.-5-style experiment should plot."""
        totals = self._totals()
        base = self._round_base or {name: 0 for name in _COUNTERS}
        return {
            "n_channels": len(self._channels),
            "n_messages": totals["n_delivered"] - base["n_delivered"],
            "total_bytes": totals["bytes_delivered"] - base["bytes_delivered"],
            "n_sent": totals["n_sent"] - base["n_sent"],
            "n_dropped": totals["n_dropped"] - base["n_dropped"],
            "n_duplicated": totals["n_duplicated"] - base["n_duplicated"],
            "n_delayed": totals["n_delayed"] - base["n_delayed"],
            "delay_seconds": totals["delay_seconds"] - base.get("delay_seconds", 0.0),
        }
