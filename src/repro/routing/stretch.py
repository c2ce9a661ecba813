"""Algebraic stretch (Definition 3).

A routing scheme has stretch ``k`` over algebra ``A`` if every path it
selects satisfies ``w(p_st) ⪯ (w(p*_st))^k``, where ``w^k`` is the k-fold
⊕-power of the preferred weight.  For the shortest-path algebra the power
is ``k * w`` and the definition reduces to classical multiplicative
stretch; for selective algebras ``w^k = w``, so any finite stretch forces
optimal paths — the observation the paper uses to re-derive Theorem 1 from
Theorem 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.algebra.base import RoutingAlgebra, Weight, is_phi
from repro.exceptions import AlgebraError


def satisfies_stretch(algebra: RoutingAlgebra, preferred: Weight, realized: Weight,
                      k: int) -> bool:
    """Definition 3: does ``realized ⪯ preferred^k`` hold?

    A ``PHI`` realized weight satisfies no finite stretch (unless the
    preferred weight is itself ``PHI``, i.e. the pair is unreachable); the
    paper highlights this exact subtlety for non-delimited algebras, where
    ``w ≺ phi`` but ``w^k = phi`` is possible.
    """
    if k < 1:
        raise AlgebraError(f"stretch must be >= 1, got {k}")
    if is_phi(preferred):
        return True  # unreachable pair: no requirement
    return algebra.leq(realized, algebra.power(preferred, k))


def minimal_stretch(algebra: RoutingAlgebra, preferred: Weight, realized: Weight,
                    max_k: int = 16) -> Optional[int]:
    """The least ``k <= max_k`` with ``realized ⪯ preferred^k``, else None.

    Monotone algebras make ``w^k`` non-increasing in preference as k grows,
    so the first satisfying k is well-defined; the linear scan also covers
    non-monotone corners honestly.
    """
    for k in range(1, max_k + 1):
        if satisfies_stretch(algebra, preferred, realized, k):
            return k
    return None


@dataclass(frozen=True)
class StretchReport:
    """Aggregate stretch of a scheme over a set of pairs."""

    scheme_name: str
    pairs: int
    within_1: int
    within_3: int
    unbounded: int
    max_stretch: Optional[int]

    @classmethod
    def from_counts(cls, scheme_name: str, counts,
                    max_k: int = 16) -> "StretchReport":
        """The report of pairs whose minimal stretch is known exactly.

        ``counts[k - 1]`` pairs have a minimal stretch of k.  A pair with
        ``k > max_k`` is unbounded, as :func:`measure_stretch` counts it.
        """
        bounded = counts[:max_k]
        pairs = sum(counts)
        return cls(scheme_name, pairs,
                   within_1=sum(bounded[:1]),
                   within_3=sum(bounded[:3]),
                   unbounded=pairs - sum(bounded),
                   max_stretch=max((k for k, count in enumerate(bounded, 1)
                                    if count), default=None))

    @property
    def stretch3_holds(self) -> bool:
        """True iff every measured pair met the Theorem 3 stretch-3 bound."""
        return self.within_3 == self.pairs

    def merge(self, other: "StretchReport") -> "StretchReport":
        """Combine two reports over disjoint pair sets (associative).

        Counts add and the max combines, so per-shard stretch reports fold
        into exactly the report a single pass over all pairs would produce.
        """
        if other.max_stretch is None:
            max_stretch = self.max_stretch
        elif self.max_stretch is None:
            max_stretch = other.max_stretch
        else:
            max_stretch = max(self.max_stretch, other.max_stretch)
        return StretchReport(
            scheme_name=self.scheme_name,
            pairs=self.pairs + other.pairs,
            within_1=self.within_1 + other.within_1,
            within_3=self.within_3 + other.within_3,
            unbounded=self.unbounded + other.unbounded,
            max_stretch=max_stretch,
        )

    def summary(self) -> str:
        return (
            f"{self.scheme_name}: {self.pairs} pairs, optimal on {self.within_1}, "
            f"stretch<=3 on {self.within_3}, beyond-max on {self.unbounded}, "
            f"max stretch {self.max_stretch}"
        )


def measure_stretch(algebra: RoutingAlgebra, samples, scheme_name: str = "scheme",
                    max_k: int = 16) -> StretchReport:
    """Aggregate (preferred, realized) weight pairs into a :class:`StretchReport`.

    *samples* yields ``(preferred_weight, realized_weight)`` tuples.
    """
    pairs = within_1 = within_3 = unbounded = 0
    max_seen: Optional[int] = None
    for preferred, realized in samples:
        pairs += 1
        k = minimal_stretch(algebra, preferred, realized, max_k=max_k)
        if k is None:
            unbounded += 1
            continue
        if k == 1:
            within_1 += 1
        if k <= 3:
            within_3 += 1
        if max_seen is None or k > max_seen:
            max_seen = k
    return StretchReport(scheme_name, pairs, within_1, within_3, unbounded, max_seen)
