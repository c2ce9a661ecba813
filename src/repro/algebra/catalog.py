"""The concrete intra-domain routing algebras of Table 1.

=====================  ==============================  ==========
Policy                 Algebra                         Properties
=====================  ==============================  ==========
Shortest path          ``S = (N, inf, +, <=)``         SM, I, D
Widest path            ``W = (N, 0, min, >=)``         S, I, M, D
Most reliable path     ``R = ((0,1], 0, *, >=)``       SM, I, D
Usable path            ``U = ({1}, 0, *, >=)``         S, I, M, D
=====================  ==============================  ==========

The two lexicographic policies of Table 1 (widest-shortest ``WS = S x W``
and shortest-widest ``SW = W x S``) live in
:mod:`repro.algebra.lexicographic`.

``N`` here is the set of *positive* naturals: including 0 in the shortest
path algebra would break strict monotonicity (the paper makes the same
point when discussing subalgebras in Section 2.2).  The most-reliable-path
algebra uses exact :class:`fractions.Fraction` weights so that the
associativity and isotonicity checks are not confounded by floating-point
rounding.
"""

from __future__ import annotations

from fractions import Fraction

from repro.algebra.base import KEY_ADD, KEY_MAX, KeyCombine, RoutingAlgebra
from repro.algebra.properties import PropertyProfile


class ShortestPath(RoutingAlgebra):
    """``S = (N, inf, +, <=)``: minimize additive path cost.

    Strictly monotone and isotone; incompressible by Proposition 3 (and by
    Theorem 2, since it is delimited and strictly monotone).
    """

    name = "shortest-path"

    def __init__(self, max_weight: int = 100):
        if max_weight < 1:
            raise ValueError("max_weight must be >= 1")
        self.max_weight = max_weight

    def combine_finite(self, w1, w2):
        return w1 + w2

    def leq_finite(self, w1, w2):
        return w1 <= w2

    def contains(self, weight):
        return isinstance(weight, int) and not isinstance(weight, bool) and weight >= 1

    def sample_weights(self, rng, count):
        return [rng.randint(1, self.max_weight) for _ in range(count)]

    def declared_properties(self):
        return PropertyProfile(
            monotone=True,
            isotone=True,
            strictly_monotone=True,
            selective=False,
            cancellative=True,
            condensed=False,
            delimited=True,
        )

    def integer_key_bound(self, max_hops):
        # Additive costs over edges of at most max_weight: a path of up to
        # max_hops edges weighs at most max_hops * max_weight.
        return max_hops * self.max_weight + 1

    def integer_key_fn(self, max_hops):
        return lambda weight: weight

    def integer_key_combine(self, max_hops):
        # Keys ARE the weights and composition is integer addition, so
        # keys add and decode trivially.
        return KeyCombine(((KEY_ADD, self.integer_key_bound(max_hops)),))

    def integer_key_weight_fn(self, max_hops):
        return lambda key: key


class MinHop(ShortestPath):
    """Minimum-hop routing: shortest path with unit edge weights.

    The algebra is the same ``S``; only the sampling differs.  Used by the
    Fig. 2 lower-bound experiments, where preferred paths are min-hop.
    """

    name = "min-hop"

    def __init__(self):
        super().__init__(max_weight=1)

    def sample_weights(self, rng, count):
        return [1] * count


class WidestPath(RoutingAlgebra):
    """``W = (N, 0, min, >=)``: maximize the bottleneck capacity.

    Selective (``min(w1, w2) in {w1, w2}``), monotone and isotone; hence
    compressible with Theta(log n) local memory by Theorem 1.  The paper's
    ``phi = 0`` (zero capacity) maps onto the shared ``PHI`` sentinel.
    """

    name = "widest-path"

    def __init__(self, max_capacity: int = 100):
        if max_capacity < 1:
            raise ValueError("max_capacity must be >= 1")
        self.max_capacity = max_capacity

    def combine_finite(self, w1, w2):
        return min(w1, w2)

    def leq_finite(self, w1, w2):
        # Larger capacity is preferred, so w1 "⪯" w2 iff w1 >= w2.
        return w1 >= w2

    def contains(self, weight):
        return isinstance(weight, int) and not isinstance(weight, bool) and weight >= 1

    def sample_weights(self, rng, count):
        return [rng.randint(1, self.max_capacity) for _ in range(count)]

    def declared_properties(self):
        return PropertyProfile(
            monotone=True,
            isotone=True,
            strictly_monotone=False,
            selective=True,
            cancellative=False,
            condensed=False,
            delimited=True,
        )

    def integer_key_bound(self, max_hops):
        # Bottleneck (min) composition never leaves the edge-weight range
        # [1, max_capacity]; wider is preferred, so invert into [0, C-1].
        return self.max_capacity

    def integer_key_fn(self, max_hops):
        capacity = self.max_capacity
        return lambda weight: capacity - weight

    def integer_key_combine(self, max_hops):
        # min of capacities is max of the inverted keys.
        return KeyCombine(((KEY_MAX, self.max_capacity),))

    def integer_key_weight_fn(self, max_hops):
        capacity = self.max_capacity
        return lambda key: capacity - key


class MostReliablePath(RoutingAlgebra):
    """``R = ((0,1], 0, *, >=)``: maximize the product of edge reliabilities.

    Contains the delimited strictly monotone subalgebra ``((0,1), 0, *, >=)``
    and is therefore incompressible by Lemma 2.  Weights are exact
    :class:`~fractions.Fraction` values in ``(0, 1]``.
    """

    name = "most-reliable-path"

    def __init__(self, denominator: int = 64):
        if denominator < 2:
            raise ValueError("denominator must be >= 2")
        self.denominator = denominator

    def combine_finite(self, w1, w2):
        return w1 * w2

    def leq_finite(self, w1, w2):
        # Higher reliability is preferred.
        return w1 >= w2

    def contains(self, weight):
        return isinstance(weight, Fraction) and Fraction(0) < weight <= Fraction(1)

    def sample_weights(self, rng, count):
        return [
            Fraction(rng.randint(1, self.denominator), self.denominator)
            for _ in range(count)
        ]

    def declared_properties(self):
        # Note: strict monotonicity fails only at the isolated weight 1
        # (1 * w = w); on the open interval (0,1) it holds, which is what
        # Lemma 2 needs.  We declare the conservative flags of the full
        # algebra; `strictly_monotone_interior` below witnesses the rest.
        return PropertyProfile(
            monotone=True,
            isotone=True,
            strictly_monotone=None,
            selective=False,
            cancellative=True,
            condensed=False,
            delimited=True,
        )

    def strictly_monotone_subalgebra(self):
        """The ``((0,1), 0, *, >=)`` subalgebra that drives Lemma 2.

        The open interval is closed under multiplication (``a*b < a`` for
        ``b < 1``) but infinite, so it is expressed as a predicate
        subalgebra with its own sampler.
        """
        from repro.algebra.subalgebra import PredicateSubalgebra

        denominator = self.denominator

        def sampler(rng):
            return Fraction(rng.randint(1, denominator - 1), denominator)

        return PredicateSubalgebra(
            self,
            predicate=lambda w: Fraction(0) < w < Fraction(1),
            sampler=sampler,
            name="most-reliable-interior",
        )


class UsablePath(RoutingAlgebra):
    """``U = ({1}, 0, *, >=)``: every traversable path is equally preferred.

    The policy behind plain reachability (Ethernet spanning-tree style
    forwarding).  Selective and monotone, hence compressible (Theorem 1);
    it also serves as the reduction target in the Theorem 6 proof.
    """

    name = "usable-path"

    def combine_finite(self, w1, w2):
        return 1

    def leq_finite(self, w1, w2):
        return True

    def contains(self, weight):
        return weight == 1 and isinstance(weight, int) and not isinstance(weight, bool)

    def sample_weights(self, rng, count):
        return [1] * count

    def canonical_weights(self):
        return (1,)

    def declared_properties(self):
        # With the singleton weight set {1} every universally quantified
        # property holds trivially, including cancellativity.
        return PropertyProfile(
            monotone=True,
            isotone=True,
            strictly_monotone=False,
            selective=True,
            cancellative=True,
            condensed=True,
            delimited=True,
        )

    def integer_key_bound(self, max_hops):
        # Singleton weight set: every traversable path shares one key.
        return 1

    def integer_key_fn(self, max_hops):
        return lambda weight: 0

    def integer_key_combine(self, max_hops):
        # 0 + 0 == 0 and the one key decodes to the one weight.
        return KeyCombine(((KEY_ADD, 1),))

    def integer_key_weight_fn(self, max_hops):
        return lambda key: 1
