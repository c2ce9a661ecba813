"""Lexicographic products of routing algebras (Section 2.2).

Given algebras ``A`` and ``B``, the product ``A x B`` composes weights
componentwise and compares them lexicographically: first by ``A``, ties
broken by ``B``.  Proposition 1 describes how monotonicity, isotonicity and
strict monotonicity transform under the product; :func:`proposition1_profile`
implements those rules, so the derived profile of, e.g., shortest-widest
path falls out mechanically — exactly the way Table 1 derives it.
"""

from __future__ import annotations

from repro.algebra.base import PHI, KeyCodec, KeyCombine, RoutingAlgebra, is_phi
from repro.algebra.catalog import ShortestPath, WidestPath
from repro.algebra.properties import PropertyProfile


def _and3(*flags):
    """Three-valued AND over Optional[bool] flags."""
    if any(f is False for f in flags):
        return False
    if all(f is True for f in flags):
        return True
    return None


def _or3(*flags):
    """Three-valued OR over Optional[bool] flags."""
    if any(f is True for f in flags):
        return True
    if all(f is False for f in flags):
        return False
    return None


def proposition1_profile(pa: PropertyProfile, pb: PropertyProfile) -> PropertyProfile:
    """Derive the profile of ``A x B`` from the profiles of ``A`` and ``B``.

    Implements Proposition 1:

    * ``M(AxB)  <=> SM(A) or (M(A) and M(B))``
    * ``I(AxB)  <=> I(A) and I(B) and (N(A) or C(B))``
    * ``SM(AxB) <=> SM(A) or (M(A) and SM(B))``

    plus the straightforward componentwise rules for delimitedness,
    cancellativity and condensedness.  Selectivity of a product is not
    determined by the constituents' selectivity, so it is left unknown.
    """
    return PropertyProfile(
        monotone=_or3(pa.strictly_monotone, _and3(pa.monotone, pb.monotone)),
        isotone=_and3(pa.isotone, pb.isotone, _or3(pa.cancellative, pb.condensed)),
        strictly_monotone=_or3(
            pa.strictly_monotone, _and3(pa.monotone, pb.strictly_monotone)
        ),
        selective=None,
        cancellative=_and3(pa.cancellative, pb.cancellative),
        condensed=_and3(pa.condensed, pb.condensed),
        delimited=_and3(pa.delimited, pb.delimited),
    )


class LexicographicProduct(RoutingAlgebra):
    """The lexicographic product ``A x B`` of two routing algebras.

    Weights are pairs ``(a, b)`` with ``a`` in ``W_A`` and ``b`` in ``W_B``.
    Composition is componentwise; if either component composes to ``phi``
    the pair composes to ``PHI`` (for delimited constituents — the case the
    paper calls well-defined — this never happens).
    """

    def __init__(self, first: RoutingAlgebra, second: RoutingAlgebra, name=None):
        self.first = first
        self.second = second
        self.name = name or f"({first.name} x {second.name})"
        self.is_right_associative = (
            first.is_right_associative or second.is_right_associative
        )

    def combine_finite(self, w1, w2):
        a = self.first.combine(w1[0], w2[0])
        b = self.second.combine(w1[1], w2[1])
        if is_phi(a) or is_phi(b):
            return PHI
        return (a, b)

    def leq_finite(self, w1, w2):
        if self.first.eq(w1[0], w2[0]):
            return self.second.leq(w1[1], w2[1])
        return self.first.leq(w1[0], w2[0])

    def contains(self, weight):
        return (
            isinstance(weight, tuple)
            and len(weight) == 2
            and self.first.contains(weight[0])
            and self.second.contains(weight[1])
        )

    def sample_weights(self, rng, count):
        firsts = self.first.sample_weights(rng, count)
        seconds = self.second.sample_weights(rng, count)
        return list(zip(firsts, seconds))

    def canonical_weights(self):
        ca = self.first.canonical_weights()
        cb = self.second.canonical_weights()
        if ca is None or cb is None:
            return None
        return tuple((a, b) for a in ca for b in cb)

    def declared_properties(self):
        return proposition1_profile(
            self.first.declared_properties(), self.second.declared_properties()
        )

    def key_codec(self, max_hops):
        # Flatten the pair order into one integer base-b2: because each
        # component key is an order embedding and k2 < b2, the flattened
        # key k1 * b2 + k2 compares exactly as the lexicographic order
        # does.  It is a mixed-radix number whose digits are the factors'
        # keys, so it combines one component at a time: the factors'
        # parts, concatenated.
        c1 = self.first.key_codec(max_hops)
        c2 = self.second.key_codec(max_hops)
        if c1 is None or c2 is None:
            return None
        k1, d1, k2, d2, b2 = c1.key, c1.decode, c2.key, c2.decode, c2.bound
        return KeyCodec(
            bound=c1.bound * b2,
            key=lambda weight: k1(weight[0]) * b2 + k2(weight[1]),
            decode=lambda key: (d1(key // b2), d2(key % b2)),
            combine=KeyCombine(c1.combine.parts + c2.combine.parts))


def lexicographic_chain(*algebras: RoutingAlgebra, name=None) -> "LexicographicProduct":
    """Left-folded n-ary lexicographic product ``A1 x A2 x ... x Ak``.

    Weights nest to the left: a 3-way chain over (S, W, R) carries weights
    ``((s, w), r)`` — build them with :func:`chain_weight` and unpack with
    :func:`flatten_weight`.  Proposition 1's property rules compose
    automatically through the nesting, so e.g. a strictly monotone head
    makes the whole chain strictly monotone.
    """
    if len(algebras) < 2:
        raise ValueError("a lexicographic chain needs at least 2 algebras")
    product = algebras[0]
    for nxt in algebras[1:]:
        product = LexicographicProduct(product, nxt)
    if name is not None:
        product.name = name
    return product


def chain_weight(*components):
    """Build the left-nested weight tuple of a :func:`lexicographic_chain`."""
    if len(components) < 2:
        raise ValueError("chain weights need at least 2 components")
    weight = components[0]
    for component in components[1:]:
        weight = (weight, component)
    return weight


def flatten_weight(weight) -> tuple:
    """Unnest a chain weight back into a flat component tuple.

    Inverse of :func:`chain_weight` provided the chain's *component*
    weights are not themselves 2-tuples (use scalar-weighted algebras as
    chain members, or unpack manually otherwise).
    """
    parts = []
    while isinstance(weight, tuple) and len(weight) == 2:
        weight, last = weight
        parts.append(last)
    parts.append(weight)
    return tuple(reversed(parts))


def widest_shortest_path(max_weight: int = 100, max_capacity: int = 100):
    """``WS = S x W``: among shortest paths, prefer the widest (Table 1).

    Strictly monotone and isotone by Proposition 1, hence regular but
    incompressible (Theorem 2); admits a stretch-3 scheme (Theorem 3).
    """
    return LexicographicProduct(
        ShortestPath(max_weight),
        WidestPath(max_capacity),
        name="widest-shortest-path",
    )


def shortest_widest_path(max_weight: int = 100, max_capacity: int = 100):
    """``SW = W x S``: among widest paths, prefer the shortest (Table 1).

    Strictly monotone but *not* isotone; incompressible by Theorem 2 and,
    worse, not compactly routable at any finite stretch (Theorem 4 with the
    Section 4.2 weight construction).
    """
    return LexicographicProduct(
        WidestPath(max_capacity),
        ShortestPath(max_weight),
        name="shortest-widest-path",
    )
