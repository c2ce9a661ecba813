"""Routing algebras: the paper's core formalism (Section 2.1).

A routing algebra ``A = (W, phi, ⊕, ⪯)`` is a totally ordered commutative
semigroup over an abstract weight set ``W`` with a compatible infinity
element ``phi`` (written ``PHI`` here).  Edge weights compose along a path
with ``⊕`` and paths are compared with the total order ``⪯``; the preferred
path between two nodes is one of minimum weight under ``⪯``.

Section 5 of the paper weakens the model to *right-associative* semigroups
for BGP-style policies; :class:`RoutingAlgebra` carries an
``is_right_associative`` flag and :meth:`path_weight` folds accordingly.

Weights are plain hashable Python values (ints, Fractions, strings,
tuples); each concrete algebra documents its weight domain.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import AlgebraError

Weight = Any


class _Infinity:
    """The unique infinity element ``phi``.

    ``phi`` is not a member of any weight set ``W``; it is absorptive
    (``w ⊕ phi = phi``) and maximal (``w ≺ phi`` for every ``w ∈ W``).
    A single shared sentinel is used by every algebra, which makes weights
    of lexicographic products and subalgebras directly comparable.
    """

    _instance: Optional["_Infinity"] = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "PHI"

    def __reduce__(self):
        return (_Infinity, ())


#: The infinity weight ``phi`` shared by all algebras.
PHI = _Infinity()


def is_phi(weight: Weight) -> bool:
    """Return True iff *weight* is the infinity element ``phi``."""
    return weight is PHI or isinstance(weight, _Infinity)


class RoutingAlgebra(abc.ABC):
    """Abstract routing algebra ``(W, phi, ⊕, ⪯)``.

    Subclasses implement the three finite-weight primitives
    (:meth:`combine_finite`, :meth:`leq_finite`, :meth:`contains`) plus
    :meth:`sample_weights`; the public methods :meth:`combine`, :meth:`leq`
    and friends add the ``phi`` handling mandated by absorptivity and
    maximality, so subclasses never see ``PHI``.

    Note that :meth:`combine_finite` *may return* ``PHI``: non-delimited
    algebras (Section 5) combine finite weights into untraversable paths,
    e.g. ``c ⊕ p = phi`` in the provider-customer algebra B1.
    """

    #: Human-readable name, e.g. ``"shortest-path"``.
    name: str = "routing-algebra"

    #: BGP-style algebras (Section 5) compose from the destination towards
    #: the source; Section 2 algebras are fully associative and commutative.
    is_right_associative: bool = False

    # ------------------------------------------------------------------
    # primitives to be supplied by concrete algebras
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def combine_finite(self, w1: Weight, w2: Weight) -> Weight:
        """Return ``w1 ⊕ w2`` for finite ``w1, w2 ∈ W`` (may return ``PHI``)."""

    @abc.abstractmethod
    def leq_finite(self, w1: Weight, w2: Weight) -> bool:
        """Return True iff ``w1 ⪯ w2`` for finite ``w1, w2 ∈ W``."""

    @abc.abstractmethod
    def contains(self, weight: Weight) -> bool:
        """Return True iff finite *weight* is a member of ``W``."""

    @abc.abstractmethod
    def sample_weights(self, rng, count: int) -> list[Weight]:
        """Return *count* weights drawn from ``W`` using *rng* (random.Random).

        Used for random edge weighting and for empirical property checking.
        """

    def declared_properties(self):
        """The algebra's known :class:`~repro.algebra.properties.PropertyProfile`.

        Concrete algebras override this with the flags proved in the paper
        (Table 1); the default declares nothing, letting callers fall back
        to empirical checking.
        """
        from repro.algebra.properties import PropertyProfile

        return PropertyProfile()

    def canonical_weights(self) -> Optional[Sequence[Weight]]:
        """The full weight set if ``W`` is small and finite, else None.

        Finite algebras (usable-path, BGP) return their whole domain so the
        property checkers can verify axioms exhaustively instead of by
        sampling.
        """
        return None

    # ------------------------------------------------------------------
    # public operations (PHI-aware)
    # ------------------------------------------------------------------

    def combine(self, w1: Weight, w2: Weight) -> Weight:
        """Return ``w1 ⊕ w2`` with absorptive ``phi``."""
        if is_phi(w1) or is_phi(w2):
            return PHI
        return self.combine_finite(w1, w2)

    def leq(self, w1: Weight, w2: Weight) -> bool:
        """Return True iff ``w1 ⪯ w2`` (``phi`` is the unique maximum)."""
        if is_phi(w1):
            return is_phi(w2)
        if is_phi(w2):
            return True
        return self.leq_finite(w1, w2)

    def lt(self, w1: Weight, w2: Weight) -> bool:
        """Return True iff ``w1 ≺ w2`` (strictly preferred)."""
        return self.leq(w1, w2) and not self.leq(w2, w1)

    def eq(self, w1: Weight, w2: Weight) -> bool:
        """Return True iff ``w1`` and ``w2`` are equal under the order.

        By anti-symmetry of the total order this coincides with equality of
        weights inside ``W``; it also treats ``PHI == PHI``.
        """
        return self.leq(w1, w2) and self.leq(w2, w1)

    def min_weight(self, weights: Iterable[Weight]) -> Weight:
        """Return the ⪯-least element of *weights* (``PHI`` if empty)."""
        best = PHI
        for w in weights:
            if self.lt(w, best):
                best = w
        return best

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------

    def combine_sequence(self, weights: Sequence[Weight]) -> Weight:
        """Fold a sequence of edge weights into a path weight.

        Fully associative algebras fold left-to-right; right-associative
        algebras (BGP, Section 5) fold from the destination toward the
        source: ``w1 ⊕ (w2 ⊕ (... ⊕ wk))``.  An empty sequence denotes the
        trivial (single-node) path and has no weight; callers must treat it
        specially, since semigroups carry no identity element.
        """
        if not weights:
            raise AlgebraError("cannot combine an empty weight sequence: semigroups have no identity")
        if self.is_right_associative:
            acc = weights[-1]
            for w in reversed(weights[:-1]):
                acc = self.combine(w, acc)
            return acc
        acc = weights[0]
        for w in weights[1:]:
            acc = self.combine(acc, w)
        return acc

    def path_weight(self, graph, path: Sequence, attr: str = "weight") -> Weight:
        """Weight of *path* (a node sequence) in *graph*.

        Works on undirected graphs and digraphs; edge weights are read from
        edge attribute *attr*.  A single-node path raises
        :class:`AlgebraError` (no identity element); a missing edge yields
        ``PHI``.
        """
        if len(path) < 2:
            raise AlgebraError("path weight undefined for paths with fewer than 2 nodes")
        weights = []
        for u, v in zip(path, path[1:]):
            if not graph.has_edge(u, v):
                return PHI
            weights.append(graph[u][v][attr])
        return self.combine_sequence(weights)

    def power(self, weight: Weight, k: int) -> Weight:
        """Return ``weight^k = weight ⊕ ... ⊕ weight`` (k times, Definition 3)."""
        if k < 1:
            raise AlgebraError(f"power requires k >= 1, got {k}")
        if is_phi(weight):
            return PHI
        acc = weight
        for _ in range(k - 1):
            acc = self.combine(acc, weight)
        return acc

    # ------------------------------------------------------------------
    # integer keys (bucketed frontiers, vectorized engines)
    # ------------------------------------------------------------------

    def key_codec(self, max_hops: int) -> Optional["KeyCodec"]:
        """The integer-key codec for paths of at most *max_hops* edges, or None.

        An algebra whose order embeds into non-negative integers, under
        which ``⊕`` becomes a sum or a maximum one component at a time,
        declares it here.  That one declaration unlocks every integer-key
        engine: the bucket frontier (:mod:`repro.paths.kernel`), the batch
        sweep (:mod:`repro.paths.batch`), the tree store's key rows and
        the compiled walk (:mod:`repro.routing.compiled_query`).  The
        returned :class:`KeyCodec` promises, for all weights of paths of
        at most *max_hops* edges:

        * **order embedding** — ``w1 ⪯ w2`` iff ``key(w1) <= key(w2)``;
        * **range** — ``0 <= key(w) < bound``;
        * **homomorphism** — ``key(w1 ⊕ w2) == combine.combine(key(w1),
          key(w2))``, so finite weights combine to a finite weight.  Sums
          and maxima are subadditive, which lets the bucket frontier
          tighten its range to ``max_hops * max_edge_key + 1``;
        * **invertibility** — ``decode(key(w)) == w``.

        Engines read it through :func:`key_codec`, which refuses keys too
        wide for int64, and key edge weights with :meth:`KeyCodec.encode`,
        which demotes an instance whose weights break the range or
        invertibility promise to the comparison engines.  The default
        declares nothing.
        """
        return None

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------

    def comparison_key(self):
        """A ``key=`` callable sorting values non-decreasingly by ⪯.

        Weight sets carry no native Python ordering, so sorting goes through
        the algebra's comparison via :func:`functools.cmp_to_key`.  The key
        is memoized per instance — hot paths (the generalized-Dijkstra heap,
        protocol preference scans) call this once per comparison site, and
        a key comparison costs at most two ``leq`` evaluations.
        """
        cached = getattr(self, "_comparison_key_cache", None)
        if cached is not None:
            return cached
        import functools

        def cmp(w1, w2):
            if self.leq(w1, w2):
                return 0 if self.leq(w2, w1) else -1
            return 1

        key = functools.cmp_to_key(cmp)
        try:
            self._comparison_key_cache = key
        except AttributeError:  # __slots__ or frozen subclasses: skip caching
            pass
        return key

    def sorted_weights(self, weights: Iterable[Weight]) -> list[Weight]:
        """Return *weights* sorted non-decreasingly by ⪯ (stable)."""
        return sorted(weights, key=self.comparison_key())

    def __getstate__(self):
        # The memoized comparison key closes over self and is not
        # picklable; workers rebuild it lazily on first use.
        state = self.__dict__.copy()
        state.pop("_comparison_key_cache", None)
        return state

    def __repr__(self):
        return f"<{type(self).__name__} {self.name!r}>"


# ----------------------------------------------------------------------
# integer keys for the vectorized engines
# ----------------------------------------------------------------------

#: Part combines of a :class:`KeyCombine`: component keys add, or the
#: larger one wins.
KEY_ADD = "add"
KEY_MAX = "max"

#: Keys whose bound exceeds this could overflow int64 once two of them
#: are summed (:meth:`KeyCombine.combine` adds before it corrects).
INT64_KEY_LIMIT = 1 << 62


@dataclass(frozen=True)
class KeyCombine:
    """How integer keys compose: ``ik(w1 ⊕ w2) == combine(ik(w1), ik(w2))``.

    A key is a mixed-radix number over *parts*, most significant first.
    Each part is ``(op, base)``: ``op`` is :data:`KEY_ADD` (component keys
    add) or :data:`KEY_MAX` (the larger component key wins), and ``base``
    is the component's key bound.  A plain algebra declares one part; a
    lexicographic product concatenates its factors' parts, so the
    flattened key combines one component at a time.  Key 0 is the
    identity of every part (``0 + k == max(0, k) == k`` for ``k >= 0``),
    so a walk's key accumulates from 0.

    :meth:`combine` and :meth:`step` use integer arithmetic and the
    *minimum* they are handed, so one implementation serves Python ints
    and numpy int arrays (pass ``numpy.minimum``) without this module
    importing numpy.
    """

    parts: Tuple[Tuple[str, int], ...]
    #: ``(place, base)`` of every max part, where ``place`` is the product
    #: of the bases below the part.
    _max_places: Tuple[Tuple[int, int], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        places = []
        place = 1
        for op, base in reversed(self.parts):
            if op not in (KEY_ADD, KEY_MAX) or base < 1:
                raise AlgebraError(f"bad key combine part {(op, base)!r}")
            if op == KEY_MAX:
                places.append((place, base))
            place *= base
        object.__setattr__(self, "_max_places", tuple(places))

    def combine(self, a, b, minimum=min):
        """The key of ``w1 ⊕ w2`` from the keys *a* and *b*.

        Every part is summed, then each max part gives back its smaller
        component: ``x + y - min(x, y) == max(x, y)``.  No part carries
        into the next, because component keys stay below their bases.
        """
        result = a + b
        for place, base in self._max_places:
            result = result - minimum(a // place % base,
                                      b // place % base) * place
        return result

    def step(self, edge_key):
        """A lower bound on ``combine(k, edge_key) - k`` over every key ``k``.

        An add part raises its component by the edge's component key; a
        max part may not raise it at all.  So the bound is the edge key
        with its max components zeroed: the edge key itself for
        shortest path, 0 for widest path, the shortest-path component
        times the widest-path base for widest-shortest path.
        """
        result = edge_key
        for place, base in self._max_places:
            result = result - edge_key // place % base * place
        return result


@dataclass(frozen=True)
class KeyCodec:
    """An algebra's integer keys at one hop budget: the contract is
    :meth:`RoutingAlgebra.key_codec`'s."""

    bound: int
    key: Callable[[Weight], int]
    decode: Callable[[int], Weight]
    combine: KeyCombine

    def encode(self, weights: Iterable[Weight]) -> Optional[List[int]]:
        """The keys of edge *weights*, or None unless every one round-trips.

        A key must be a plain ``int`` in ``[0, bound)`` that decodes back
        to its weight: a capability bug then demotes the algebra to the
        (bit-identical) per-source engines instead of corrupting a run.
        """
        key_of, decode, bound = self.key, self.decode, self.bound
        keys = []
        for weight in weights:
            key = key_of(weight)
            if (type(key) is not int or not 0 <= key < bound
                    or decode(key) != weight):
                return None
            keys.append(key)
        return keys


def key_codec(algebra: RoutingAlgebra, max_hops: int) -> Optional[KeyCodec]:
    """The algebra's integer-key codec for paths of *max_hops* edges, or None.

    The one gate of every integer-key engine: the codec the algebra
    declares (:meth:`RoutingAlgebra.key_codec`), provided its keys fit
    int64 arithmetic — a bound above :data:`INT64_KEY_LIMIT` is refused.
    """
    codec = algebra.key_codec(max_hops)
    if codec is None or not 1 <= codec.bound <= INT64_KEY_LIMIT:
        return None
    return codec
