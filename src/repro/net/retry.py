"""Retry and hedging policies for the coordinator's shard attempts.

The storage tier's :class:`repro.storage.buffer.RetryPolicy` governs
both retrying tiers: re-reading a page from one device, and -- here --
re-dispatching an idempotent chunk of a scatter-gather query across
shard processes.  Chunks are safe to duplicate -- a shard executes
them read-only against a pinned snapshot generation and the
coordinator deduplicates replies by attempt id, accepting exactly one
payload per chunk -- which is what makes both retries and hedges sound
(see ``docs/NETWORK.md``).

:data:`SHARD_RETRY_POLICY` shapes *when to give up and try elsewhere*:
exponential backoff with seeded jitter so a thundering herd of
retries against a sick shard decorrelates, bounded by
``max_attempts`` per chunk.

:class:`HedgePolicy` shapes *when to stop waiting and duplicate*: once
an attempt has been outstanding longer than a trailing latency
quantile of recently completed chunks, a duplicate is dispatched to a
sibling shard and whichever reply lands first wins.  Until enough
samples exist the floor applies, so cold starts hedge conservatively
rather than not at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.storage.buffer import RetryPolicy

#: The shard-chunk schedule: 3 dispatches per chunk, 20 ms doubling to
#: a 0.5 s cap, half of each wait randomised away by the coordinator's
#: seeded RNG.
SHARD_RETRY_POLICY = RetryPolicy(
    max_attempts=3, base_delay_s=0.02, max_delay_s=0.5, jitter=0.5
)


@dataclass(frozen=True)
class HedgePolicy:
    """When an outstanding attempt is slow enough to duplicate.

    ``threshold(samples)`` is the wait after which a chunk's only live
    attempt earns a hedge: the ``quantile`` of the trailing completed
    chunk latencies once ``min_samples`` exist, never below
    ``floor_s``.  ``max_hedges`` bounds duplicates per chunk (the
    hedge itself can be slow too); ``enabled=False`` turns the whole
    mechanism off, for baselines and benchmarks.
    """

    enabled: bool = True
    quantile: float = 0.95
    min_samples: int = 8
    floor_s: float = 0.05
    max_hedges: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.quantile <= 1.0:
            raise ValueError("quantile must be in (0, 1]")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if self.floor_s < 0:
            raise ValueError("floor_s must be >= 0")
        if self.max_hedges < 0:
            raise ValueError("max_hedges must be >= 0")

    def threshold(self, samples: Sequence[float]) -> float:
        """Outstanding-time threshold given recent chunk latencies."""
        if len(samples) < self.min_samples:
            return self.floor_s
        ordered = sorted(samples)
        rank = max(1, int(round(self.quantile * len(ordered))))
        return max(self.floor_s, ordered[min(rank, len(ordered)) - 1])
