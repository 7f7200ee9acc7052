"""Deterministic fault injection for page stores.

:class:`FaultyPageStore` wraps any :class:`~repro.storage.store.PageStore`
and injects storage failures according to a seed-driven
:class:`FaultPlan`: transient ``TransientIOError`` reads, read-latency
spikes, single bit-flips on the bytes returned by ``read`` (the wire /
controller corruption a checksum must catch), and explicit
fail-N-then-succeed schedules for targeted tests.

Everything is deterministic given ``(plan.seed, operation sequence)``:
the wrapper draws from one private :class:`random.Random`, so a
workload replayed against the same plan sees the same faults in the
same places.  ``max_consecutive`` bounds runs of transient failures on
one page, so a retry policy with more attempts than that provably
survives any transient schedule the plan can emit.

:class:`PlanBase`, :class:`FaultStatsBase`, :class:`LossStreaks` and
:func:`with_bit_flipped` are shared with the network tier's injector
(:mod:`repro.net.faults`).

The wrapper is the test double for the whole resilience stack
(checksums, retrying buffer, circuit breaker, chaos CLI); see
``docs/RESILIENCE.md``.  Named plans used by ``repro-cpq chaos`` live
in :data:`SCHEDULES`.
"""

from __future__ import annotations

import dataclasses
import os
import random
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, Hashable, Optional, Tuple

from repro.errors import TransientIOError
from repro.storage.store import PageStore


@dataclass(frozen=True)
class PlanBase:
    """What every fault plan has: a seed, a loss-streak cap
    (:class:`LossStreaks`) and ``p_*`` probabilities in [0, 1]."""

    seed: int = 0
    #: Upper bound on back-to-back losses charged to one key; a retry
    #: policy with ``max_attempts > max_consecutive`` always gets
    #: through.
    max_consecutive: int = 2

    def __post_init__(self) -> None:
        for name in self.probability_fields():
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.max_consecutive < 1:
            raise ValueError("max_consecutive must be >= 1")

    @classmethod
    def probability_fields(cls) -> Tuple[str, ...]:
        """The plan's ``p_*`` fields, in declaration order."""
        return tuple(f.name for f in dataclasses.fields(cls)
                     if f.name.startswith("p_"))

    def describe(self) -> str:
        """The probabilities as ``shape=p`` words."""
        return " ".join(f"{name[2:]}={getattr(self, name):g}"
                        for name in self.probability_fields())


@dataclass
class FaultStatsBase:
    """Injector counters: every field not named in ``OPERATIONS``
    counts one kind of injected fault."""

    OPERATIONS: ClassVar[Tuple[str, ...]] = ()

    @property
    def injected(self) -> int:
        """Total injected faults of any kind."""
        return sum(getattr(self, f.name) for f in dataclasses.fields(self)
                   if f.name not in self.OPERATIONS)

    def as_dict(self) -> Dict[str, int]:
        """Every counter plus the derived ``injected`` total."""
        return {**dataclasses.asdict(self), "injected": self.injected}


class LossStreaks:
    """Per-key run lengths of injected losses, capped at ``cap``
    (thread-safe)."""

    def __init__(self, cap: int):
        self.cap = cap
        self._streaks: Counter = Counter()
        self._lock = threading.Lock()

    def charge(self, key: Hashable) -> bool:
        """Count one more loss against ``key``; False, counting
        nothing, once its streak is at the cap."""
        with self._lock:
            if self._streaks[key] >= self.cap:
                return False
            self._streaks[key] += 1
            return True

    def clear(self, key: Hashable) -> None:
        """End ``key``'s streak (a clean operation)."""
        with self._lock:
            self._streaks.pop(key, None)


def with_bit_flipped(data: bytes, bit: int) -> bytes:
    """A copy of ``data`` with bit number ``bit`` inverted."""
    image = bytearray(data)
    image[bit // 8] ^= 1 << (bit % 8)
    return bytes(image)


@dataclass(frozen=True)
class FaultPlan(PlanBase):
    """One named fault schedule: probabilities and shapes of injected
    storage failures.

    All probabilities are per-read.  ``latency_s`` is slept (via the
    store's injectable ``sleep``) when a latency spike fires, so tests
    can stub it out.
    """

    #: Probability a ``read`` raises :class:`TransientIOError`.
    p_transient: float = 0.0
    #: Probability a ``read`` sleeps ``latency_s`` first.
    p_latency: float = 0.0
    latency_s: float = 0.001
    #: Probability a ``read`` returns the page with one bit flipped
    #: (the stored bytes stay intact -- a re-read can heal).
    p_bitflip: float = 0.0


#: Named plans for the chaos harness (``repro-cpq chaos --schedule``).
#: Probabilities stay at or below the acceptance bound p <= 0.05.
SCHEDULES: Dict[str, FaultPlan] = {
    "none": FaultPlan(),
    "transient": FaultPlan(p_transient=0.05),
    "latency": FaultPlan(p_latency=0.05, latency_s=0.0005),
    "bitflip": FaultPlan(p_bitflip=0.02),
    "mixed": FaultPlan(p_transient=0.03, p_latency=0.02,
                       latency_s=0.0005, p_bitflip=0.01),
}


@dataclass
class FaultStats(FaultStatsBase):
    """Counters of what the page-store wrapper actually injected."""

    OPERATIONS: ClassVar[Tuple[str, ...]] = ("reads", "writes")

    reads: int = 0
    writes: int = 0
    transient_raised: int = 0
    latency_spikes: int = 0
    bits_flipped: int = 0
    scheduled_failures: int = 0


class FaultyPageStore:
    """A :class:`PageStore` that fails on purpose.

    Satisfies the page-store protocol by delegating to ``inner`` and
    layering the plan's faults on the read path.  ``write``,
    ``allocate``, ``free`` and ``__len__`` pass straight through --
    structural operations are assumed reliable so trees can be *built*
    cleanly and then queried under fire (wrap the store after
    construction, or use :func:`repro.cli.main` ``chaos`` which does
    exactly that).

    ``fail_reads[page_id] = n`` arms a deterministic
    fail-N-then-succeed schedule: the next ``n`` reads of that page
    raise :class:`TransientIOError` regardless of probabilities, then
    reads succeed again.  :meth:`flip_bit` applies *persistent*
    corruption to the stored image, modelling at-rest damage that no
    retry can heal (the checksum must surface it).
    """

    def __init__(
        self,
        inner: PageStore,
        plan: FaultPlan = FaultPlan(),
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.inner = inner
        self.plan = plan
        self.page_size = inner.page_size
        self.faults = FaultStats()
        #: Per-page countdown of forced transient read failures.
        self.fail_reads: Dict[int, int] = {}
        self._rng = random.Random(plan.seed)
        self._streaks = LossStreaks(plan.max_consecutive)
        self._sleep = sleep

    # -- pass-through ------------------------------------------------------

    def allocate(self) -> int:
        return self.inner.allocate()

    def free(self, page_id: int) -> None:
        self.inner.free(page_id)

    def write(self, page_id: int, data: bytes) -> None:
        self.faults.writes += 1
        self.inner.write(page_id, data)

    def __len__(self) -> int:
        return len(self.inner)

    def __getattr__(self, name: str):
        # flush/close/path of file-backed inner stores remain reachable.
        return getattr(self.inner, name)

    # -- faulted path ------------------------------------------------------

    def read(self, page_id: int) -> bytes:
        self.faults.reads += 1
        armed = self.fail_reads.get(page_id, 0)
        if armed > 0:
            self.fail_reads[page_id] = armed - 1
            self.faults.scheduled_failures += 1
            raise TransientIOError(
                f"injected scheduled failure on page {page_id} "
                f"({armed - 1} remaining)"
            )
        plan = self.plan
        if plan.p_latency and self._rng.random() < plan.p_latency:
            self.faults.latency_spikes += 1
            self._sleep(plan.latency_s)
        if (plan.p_transient and self._rng.random() < plan.p_transient
                and self._streaks.charge(page_id)):
            self.faults.transient_raised += 1
            raise TransientIOError(
                f"injected transient fault on page {page_id}"
            )
        self._streaks.clear(page_id)
        data = self.inner.read(page_id)
        if plan.p_bitflip and self._rng.random() < plan.p_bitflip:
            self.faults.bits_flipped += 1
            data = with_bit_flipped(
                data, self._rng.randrange(len(data) * 8)
            )
        return data

    # -- targeted corruption ----------------------------------------------

    def flip_bit(self, page_id: int,
                 bit_index: Optional[int] = None) -> int:
        """Persistently flip one bit of the stored page image.

        Returns the flipped bit index (random when not given).  Unlike
        the plan's ``p_bitflip`` -- which corrupts only the returned
        copy -- this damages the page at rest, so every subsequent read
        observes the corruption until the page is rewritten.
        """
        image = self.inner.read(page_id)
        if bit_index is None:
            bit_index = self._rng.randrange(len(image) * 8)
        self.inner.write(page_id, with_bit_flipped(image, bit_index))
        self.faults.bits_flipped += 1
        return bit_index


def tear_file_tail(path: str, seed: int = 0, max_bytes: int = 256) -> int:
    """Damage a file's tail the way a crashed writer would.

    Deterministically (per ``seed``) either truncates up to
    ``max_bytes`` from the end or zero-fills them in place -- the two
    shapes a torn final WAL record takes after a crash (lost tail vs
    partially persisted frame).  Returns the number of damaged bytes.
    The WAL's CRC framing must detect either shape and stop replay at
    the last intact record; ``tests/test_recovery.py`` drives this
    against :meth:`repro.storage.wal.WriteAheadLog.recover_into`.
    """
    size = os.path.getsize(path)
    if size == 0:
        return 0
    rng = random.Random(seed)
    cut = rng.randrange(1, min(max_bytes, size) + 1)
    with open(path, "r+b") as handle:
        if rng.random() < 0.5:
            handle.truncate(size - cut)
        else:
            handle.seek(size - cut)
            handle.write(b"\x00" * cut)
    return cut


def wrap_tree_store(tree, plan: FaultPlan,
                    sleep: Callable[[float], None] = time.sleep,
                    ) -> FaultyPageStore:
    """Swap a tree's backing store for a faulty wrapper, in place.

    The tree keeps its buffer, stats and decoded-node cache; only the
    bytes underneath start failing.  Returns the wrapper so callers can
    inspect :attr:`FaultyPageStore.faults` or arm schedules.  The
    buffer is cleared so the workload actually reaches the faulty
    store instead of being absorbed by warm frames.
    """
    wrapper = FaultyPageStore(tree.file.store, plan, sleep=sleep)
    tree.file.store = wrapper
    tree.file.buffer.clear()
    # Decoded-node cache would mask reads entirely; queries must hit
    # the (faulty) storage stack to exercise it.
    tree._nodes.clear()
    return wrapper


def unwrap_tree_store(tree) -> None:
    """Undo :func:`wrap_tree_store`, restoring the clean inner store."""
    store = tree.file.store
    if isinstance(store, FaultyPageStore):
        tree.file.store = store.inner
        tree.file.buffer.clear()
        tree._nodes.clear()
