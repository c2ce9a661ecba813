#!/usr/bin/env python3
"""Define your own routing policy as an algebra and let the library place it.

The paper's framework is generic: any policy expressible as a totally
ordered commutative semigroup with infinity slots straight into the
machinery.  This example defines two custom policies —

* **fewest-expensive-links**: minimize the number of expensive edges on
  the path (an additive policy that is only weakly monotone), and
* **most-trusted path**: edges carry a discrete trust level 1..5; a path's
  trust is its weakest link; prefer stronger (a widest-path relative);

then measures their algebraic properties, classifies them with the
paper's theorems, builds the prescribed schemes, and verifies routing.

Run:  python examples/custom_algebra.py
"""

import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.algebra import PropertyProfile, RoutingAlgebra, empirical_profile
from repro.algebra.base import KEY_ADD, KeyCodec, KeyCombine
from repro.core import build_scheme, evaluate_scheme, investigate
from repro.graphs import assign_random_weights, random_geometric


class ExpensiveLinkCount(RoutingAlgebra):
    """Weights count expensive links: ``(N ∪ {0}, inf, +, <=)`` flavored.

    Edges are weighted 0 (cheap) or 1 (expensive); a path's weight is its
    number of expensive links.  Monotone but only weakly: prepending a
    cheap link leaves the weight unchanged, so the algebra is NOT strictly
    monotone — it sits in the paper's open middle ground (Section 6).

    Counts are small integers that add, so one method, :meth:`key_codec`,
    puts the policy on the integer-key engines: bucketed and batched
    path sweeps, and the compiled query walk.
    """

    name = "expensive-link-count"

    def combine_finite(self, w1, w2):
        return w1 + w2

    def leq_finite(self, w1, w2):
        return w1 <= w2

    def contains(self, weight):
        return isinstance(weight, int) and weight >= 0

    def sample_weights(self, rng, count):
        return [rng.choice((0, 0, 0, 1)) for _ in range(count)]

    def declared_properties(self):
        return PropertyProfile(
            monotone=True, isotone=True, strictly_monotone=False,
            selective=False, cancellative=True, condensed=False, delimited=True,
        )

    def key_codec(self, max_hops):
        # A count is its own key: a path of up to max_hops edges counts
        # at most max_hops expensive links, and counts add.
        bound = max_hops + 1
        return KeyCodec(bound=bound, key=lambda weight: weight,
                        decode=lambda key: key,
                        combine=KeyCombine(((KEY_ADD, bound),)))


class MostTrustedPath(RoutingAlgebra):
    """Min-trust composition over discrete levels, prefer higher.

    Isomorphic to widest-path on a 5-point scale: selective, monotone,
    isotone — Theorem 1 applies and tree routing is exact.
    """

    name = "most-trusted-path"
    LEVELS = (1, 2, 3, 4, 5)

    def combine_finite(self, w1, w2):
        return min(w1, w2)

    def leq_finite(self, w1, w2):
        return w1 >= w2

    def contains(self, weight):
        return weight in self.LEVELS

    def sample_weights(self, rng, count):
        return [rng.choice(self.LEVELS) for _ in range(count)]

    def canonical_weights(self):
        return self.LEVELS

    def declared_properties(self):
        return PropertyProfile(
            monotone=True, isotone=True, strictly_monotone=False,
            selective=True, cancellative=False, condensed=False, delimited=True,
        )


def main():
    rng = random.Random(10)
    graph = random_geometric(48, rng=rng)
    print(f"topology: random geometric, n={graph.number_of_nodes()}, "
          f"m={graph.number_of_edges()}\n")

    for algebra in (MostTrustedPath(), ExpensiveLinkCount()):
        print("=" * 72)
        print(f"policy: {algebra.name}")
        measured = empirical_profile(algebra, rng=random.Random(0))
        print(f"  measured properties: [{measured.summary()}]")
        # investigate() goes further than classify(): it *searches* for a
        # Lemma 2 generator / Theorem 4 witness inside the algebra itself.
        result = investigate(algebra, rng=random.Random(1))
        verdict = result.classification
        print(f"  classification: {verdict.summary()}")
        if result.lemma2_generator is not None:
            print(f"    Lemma 2 generator found: {result.lemma2_generator!r} "
                  f"(its powers embed shortest-path routing)")
        for reason in verdict.reasons:
            print(f"    - {reason}")
        assign_random_weights(graph, algebra, rng=rng)
        # Even when compressibility is open (Section 6), Proposition 2
        # guarantees regular algebras route exactly with destination tables,
        # which is what the compiler falls back to.
        scheme = build_scheme(graph, algebra)
        report = evaluate_scheme(graph, algebra, scheme)
        print(f"  scheme: {type(scheme).__name__}")
        print(f"  routing: {report.summary()}\n")


if __name__ == "__main__":
    main()
