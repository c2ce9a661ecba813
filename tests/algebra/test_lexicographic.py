"""Tests for lexicographic products and Proposition 1."""

import random

import pytest

from repro.algebra.base import PHI, is_phi, key_codec
from repro.algebra.catalog import (
    MostReliablePath,
    ShortestPath,
    UsablePath,
    WidestPath,
)
from repro.algebra.lexicographic import (
    LexicographicProduct,
    lexicographic_chain,
    proposition1_profile,
    shortest_widest_path,
    widest_shortest_path,
)
from repro.algebra.properties import (
    PropertyProfile,
    check_axioms,
    empirical_profile,
)


@pytest.fixture
def rng():
    return random.Random(7)


class TestProductMechanics:
    def setup_method(self):
        self.ws = widest_shortest_path()  # S x W

    def test_combine_componentwise(self):
        # (cost, capacity): costs add, capacities take min
        assert self.ws.combine((2, 10), (3, 4)) == (5, 4)

    def test_leq_primary_component(self):
        assert self.ws.lt((2, 1), (3, 100))

    def test_leq_tiebreak_secondary(self):
        # equal costs: wider path preferred
        assert self.ws.lt((2, 10), (2, 3))

    def test_eq(self):
        assert self.ws.eq((2, 10), (2, 10))
        assert not self.ws.eq((2, 10), (2, 9))

    def test_contains(self):
        assert self.ws.contains((2, 10))
        assert not self.ws.contains((0, 10))
        assert not self.ws.contains(2)
        assert not self.ws.contains((2, 10, 1))

    def test_phi_propagates(self):
        assert is_phi(self.ws.combine((2, 10), PHI))

    def test_sampling(self, rng):
        samples = self.ws.sample_weights(rng, 10)
        assert len(samples) == 10
        assert all(self.ws.contains(w) for w in samples)

    def test_axioms(self, rng):
        for result in check_axioms(self.ws, rng=rng):
            assert result.holds, result.property_name

    def test_canonical_weights_product(self):
        product = LexicographicProduct(UsablePath(), UsablePath())
        assert product.canonical_weights() == ((1, 1),)

    def test_name_default(self):
        product = LexicographicProduct(ShortestPath(), WidestPath())
        assert "shortest-path" in product.name and "widest-path" in product.name


class TestProposition1:
    """The Proposition 1 transformation rules, both symbolically and measured."""

    def test_m_rule_sm_first(self):
        pa = PropertyProfile(strictly_monotone=True)
        pb = PropertyProfile(monotone=False)
        assert proposition1_profile(pa, pb).monotone is True

    def test_m_rule_both_monotone(self):
        pa = PropertyProfile(strictly_monotone=False, monotone=True)
        pb = PropertyProfile(monotone=True)
        assert proposition1_profile(pa, pb).monotone is True

    def test_m_rule_fails(self):
        pa = PropertyProfile(strictly_monotone=False, monotone=False)
        pb = PropertyProfile(monotone=True)
        assert proposition1_profile(pa, pb).monotone is False

    def test_i_rule_needs_cancellative_or_condensed(self):
        isotone = PropertyProfile(isotone=True, cancellative=False, condensed=False)
        assert proposition1_profile(isotone, isotone).isotone is False
        cancellative_first = PropertyProfile(isotone=True, cancellative=True)
        assert proposition1_profile(cancellative_first, isotone).isotone is True
        condensed_second = PropertyProfile(isotone=True, condensed=True)
        assert proposition1_profile(isotone, condensed_second).isotone is True

    def test_sm_rule(self):
        sm = PropertyProfile(strictly_monotone=True, monotone=True)
        weak = PropertyProfile(strictly_monotone=False, monotone=True)
        assert proposition1_profile(sm, weak).strictly_monotone is True
        assert proposition1_profile(weak, sm).strictly_monotone is True
        assert proposition1_profile(weak, weak).strictly_monotone is False

    def test_unknowns_propagate_as_none(self):
        unknown = PropertyProfile()
        assert proposition1_profile(unknown, unknown).monotone is None

    def test_ws_profile_matches_table1(self):
        # WS = S x W: strictly monotone, isotone (Table 1 row 5)
        profile = widest_shortest_path().declared_properties()
        assert profile.strictly_monotone is True
        assert profile.isotone is True
        assert profile.delimited is True

    def test_sw_profile_matches_table1(self):
        # SW = W x S: strictly monotone, NOT isotone (Table 1 row 6)
        profile = shortest_widest_path().declared_properties()
        assert profile.strictly_monotone is True
        assert profile.isotone is False
        assert profile.delimited is True

    @pytest.mark.parametrize(
        "factory", [widest_shortest_path, shortest_widest_path],
        ids=["WS", "SW"],
    )
    def test_derived_profile_consistent_with_measurement(self, factory, rng):
        """Proposition 1's predictions never contradict sampled reality."""
        algebra = factory(max_weight=10, max_capacity=10)
        derived = algebra.declared_properties()
        measured = empirical_profile(algebra, rng=rng, limit=2000)
        for flag in ("monotone", "strictly_monotone", "delimited"):
            want = getattr(derived, flag)
            got = getattr(measured, flag)
            if want is not None:
                assert want == got, f"{flag}: derived {want}, measured {got}"
        # Isotonicity: a derived True must never be contradicted; a derived
        # False must be confirmed by an actual counterexample.
        if derived.isotone is True:
            assert measured.isotone
        if derived.isotone is False:
            assert not measured.isotone


class TestKeyCombine:
    """The integer-key capability the vectorized engines run on.

    Plain Python ints throughout: the capability must work (and be
    checked) on installs without numpy.
    """

    ALGEBRAS = [
        ShortestPath(9),
        UsablePath(),
        WidestPath(9),
        widest_shortest_path(9, 9),
        shortest_widest_path(9, 9),
        LexicographicProduct(widest_shortest_path(9, 9), ShortestPath(3)),
        lexicographic_chain(WidestPath(5), ShortestPath(4), WidestPath(3)),
    ]

    @pytest.mark.parametrize("algebra", ALGEBRAS, ids=lambda a: a.name)
    def test_combine_is_a_homomorphism(self, algebra, rng):
        codec = key_codec(algebra, 12)
        assert codec is not None
        combine = codec.combine
        for _ in range(300):
            weights = algebra.sample_weights(rng, rng.randint(1, 6))
            weight, key = weights[0], codec.key(weights[0])
            assert combine.combine(0, key) == key   # 0 is the identity
            for edge in weights[1:]:
                edge_key = codec.key(edge)
                weight = algebra.combine(weight, edge)
                raised = combine.combine(key, edge_key)
                assert raised - key >= combine.step(edge_key) >= 0
                key = raised
                assert codec.key(weight) == key
            assert codec.decode(key) == weight
            assert codec.encode(weights) == [codec.key(w) for w in weights]

    def test_parts_concatenate_in_flattening_order(self):
        ws = key_codec(widest_shortest_path(9, 9), 12).combine
        assert ws.parts == (("add", 12 * 9 + 1), ("max", 9))
        # widest-shortest: the step is the shortest-path component times
        # widest path's base; shortest-widest: the shortest-path component
        assert ws.step(4 * 9 + 6) == 4 * 9
        sw = key_codec(shortest_widest_path(9, 9), 12).combine
        assert sw.step(4 * 109 + 6) == 6

    def test_keyless_or_oversized_algebras_have_no_codec(self):
        assert key_codec(MostReliablePath(), 12) is None
        assert key_codec(LexicographicProduct(ShortestPath(9),
                                              MostReliablePath()), 12) is None
        # keys of a long chain outgrow int64 arithmetic
        chain = lexicographic_chain(*[ShortestPath(100)] * 8)
        assert chain.key_codec(12).bound > (1 << 62)
        assert key_codec(chain, 12) is None

    def test_encode_rejects_keys_that_do_not_round_trip(self):
        codec = key_codec(WidestPath(9), 12)
        assert codec.encode([3, 9]) == [6, 0]
        assert codec.encode([3, 12]) is None   # key -3 is out of range
