"""Query-family constraints: range windows and category predicates.

The RCP literature (Xue et al., "New bounds for range closest-pair
problems"; Xue, "Colored range closest-pair problem under general
distance functions") restricts a closest-pair query to a rectangle
and/or to category combinations.  :class:`RangeSpec` and
:class:`ColorSpec` are the frozen descriptions of those restrictions
that ride on :class:`repro.core.CPQRequest`; algorithms whose registry
entry sets ``supports_range`` / ``supports_colors`` honour them.

Both specs canonicalise at construction so that *semantically equal*
constraints compare (and hash, and cache-key) equal:

* :class:`RangeSpec` sorts the two corners per dimension -- a window
  given as ``(hi, lo)`` equals the same window given as ``(lo, hi)`` --
  and normalises every coordinate through ``float(v) + 0.0``, which
  collapses ``-0.0`` onto ``0.0`` and integer inputs onto their float
  value.
* :class:`ColorSpec` sorts and de-duplicates its residue filters.

Colors derive from object identifiers: ``color(oid) = oid % modulus``.
Leaf entries carry only a point and an oid, so category membership is
a pure function of data already on every page -- no storage change and
nothing extra on the wire.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional, Tuple


#: Which side(s) of the pair the window restricts.
RANGE_MODES = ("both", "p", "q")


def _canonical_floats(values) -> Tuple[float, ...]:
    # ``+ 0.0`` maps -0.0 to 0.0 so equal windows hash equal.
    return tuple(float(v) + 0.0 for v in values)


@dataclass(frozen=True)
class RangeSpec:
    """A query rectangle restricting which points may form pairs.

    ``mode`` selects the clip semantics: ``"both"`` (the default)
    requires both endpoints of a reported pair inside the window,
    ``"p"`` / ``"q"`` constrain only that side (the other endpoint may
    lie anywhere).  Corners are canonicalised per dimension, so
    ``RangeSpec((4, 4), (0, 0)) == RangeSpec((0, 0), (4, 4))``.
    Every coordinate must be finite: a NaN corner admits no point, so
    the query would traverse the trees and silently return nothing.
    """

    lo: Tuple[float, ...]
    hi: Tuple[float, ...]
    mode: str = "both"

    def __post_init__(self) -> None:
        lo = _canonical_floats(self.lo)
        hi = _canonical_floats(self.hi)
        if len(lo) != len(hi):
            raise ValueError("range lo and hi must have the same dimension")
        if not lo:
            raise ValueError("range must have at least one dimension")
        if not all(map(math.isfinite, lo + hi)):
            raise ValueError(f"range corners must be finite, got {lo}, {hi}")
        object.__setattr__(
            self, "lo", tuple(min(a, b) for a, b in zip(lo, hi))
        )
        object.__setattr__(
            self, "hi", tuple(max(a, b) for a, b in zip(lo, hi))
        )
        if self.mode not in RANGE_MODES:
            raise ValueError(
                f"unknown range mode {self.mode!r}; "
                f"expected one of {RANGE_MODES}"
            )

    @classmethod
    def coerce(cls, value: Any) -> Optional["RangeSpec"]:
        """A window from a :class:`RangeSpec`, a ``{"lo", "hi"[,
        "mode"]}`` dict, a bare ``(lo, hi)`` pair or ``None``."""
        if value is None or isinstance(value, cls):
            return value
        try:
            if isinstance(value, dict):
                return cls(tuple(value["lo"]), tuple(value["hi"]),
                           value.get("mode", "both"))
            lo, hi = value
            return cls(tuple(lo), tuple(hi))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad range {value!r}: {exc}") from exc

    @property
    def dimension(self) -> int:
        return len(self.lo)

    @property
    def constrains_p(self) -> bool:
        return self.mode in ("both", "p")

    @property
    def constrains_q(self) -> bool:
        return self.mode in ("both", "q")

    def contains_point(self, point) -> bool:
        return all(
            l <= float(v) <= h
            for v, l, h in zip(point, self.lo, self.hi)
        )

    def contains(self, other: "RangeSpec") -> bool:
        """True when ``other``'s window lies inside this one (same
        mode required -- different clip semantics never substitute)."""
        return (
            self.mode == other.mode
            and self.dimension == other.dimension
            and all(sl <= ol for sl, ol in zip(self.lo, other.lo))
            and all(oh <= sh for oh, sh in zip(other.hi, self.hi))
        )

    def canonical(self) -> Tuple:
        """Primitive-only identity for cache keys and wire payloads."""
        return (self.lo, self.hi, self.mode)


@dataclass(frozen=True)
class ColorSpec:
    """Category predicates for colored closest-pair queries.

    The color of an object is ``oid % modulus``.  ``colors_p`` /
    ``colors_q`` restrict each side to a set of colors (``None`` =
    unrestricted); ``distinct`` additionally requires the two endpoints
    of a pair to carry *different* colors -- the classical colored
    closest pair (nearest hospital/accident pair needs
    ``modulus=2, distinct=True``).
    """

    modulus: int = 2
    colors_p: Optional[Tuple[int, ...]] = None
    colors_q: Optional[Tuple[int, ...]] = None
    distinct: bool = True

    def __post_init__(self) -> None:
        if int(self.modulus) < 1:
            raise ValueError("color modulus must be >= 1")
        object.__setattr__(self, "modulus", int(self.modulus))
        for name in ("colors_p", "colors_q"):
            allowed = getattr(self, name)
            if allowed is None:
                continue
            normalized = tuple(sorted({int(c) for c in allowed}))
            if not normalized:
                raise ValueError(f"{name} must not be empty; use None")
            if any(c < 0 or c >= self.modulus for c in normalized):
                raise ValueError(
                    f"{name} entries must lie in [0, {self.modulus})"
                )
            object.__setattr__(self, name, normalized)
        if self.distinct and self.modulus < 2:
            raise ValueError(
                "distinct colored pairs need a modulus of at least 2"
            )

    @classmethod
    def coerce(cls, value: Any) -> Optional["ColorSpec"]:
        """A predicate from a :class:`ColorSpec`, a dict of its fields,
        a bare modulus or ``None``."""
        if value is None or isinstance(value, cls):
            return value
        try:
            if isinstance(value, dict):
                return cls(**value)
            return cls(modulus=int(value))
        except TypeError as exc:
            raise ValueError(f"bad colors {value!r}: {exc}") from exc

    def color(self, oid: int) -> int:
        return int(oid) % self.modulus

    def admits_p(self, oid: int) -> bool:
        return self.colors_p is None or self.color(oid) in self.colors_p

    def admits_q(self, oid: int) -> bool:
        return self.colors_q is None or self.color(oid) in self.colors_q

    def admits_pair(self, oid_p: int, oid_q: int) -> bool:
        if not (self.admits_p(oid_p) and self.admits_q(oid_q)):
            return False
        return not self.distinct or self.color(oid_p) != self.color(oid_q)

    def canonical(self) -> Tuple:
        """Primitive-only identity for cache keys and wire payloads."""
        return (self.modulus, self.colors_p, self.colors_q, self.distinct)
