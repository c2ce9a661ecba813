"""Tests for bit-exact table encoding (Definition 2 made literal)."""

import random

import pytest

from repro.algebra.catalog import ShortestPath, UsablePath, WidestPath
from repro.exceptions import RoutingError
from repro.graphs.generators import erdos_renyi, random_tree
from repro.graphs.weighting import assign_random_weights, assign_uniform_weight
from repro.routing.destination_table import DestinationTableScheme
from repro.routing.encoding import (
    BitReader,
    BitWriter,
    decode_port_table,
    encode_destination_table_node,
    encode_interval_table_node,
    encode_port_table,
    encoded_bits_match_accounting,
)
from repro.routing.interval_routing import IntervalRoutingScheme


class TestBitPrimitives:
    def test_roundtrip(self):
        writer = BitWriter()
        writer.write(5, 3)
        writer.write(0, 2)
        writer.write(1023, 10)
        reader = BitReader(writer.bits())
        assert reader.read(3) == 5
        assert reader.read(2) == 0
        assert reader.read(10) == 1023
        assert reader.remaining == 0

    def test_bit_length(self):
        writer = BitWriter()
        writer.write(7, 3)
        assert writer.bit_length == 3

    def test_zero_width_fields(self):
        writer = BitWriter()
        writer.write(0, 0)  # degree-1 ports need no bits
        assert writer.bit_length == 0

    def test_overflow_rejected(self):
        writer = BitWriter()
        with pytest.raises(RoutingError):
            writer.write(8, 3)

    def test_negative_rejected(self):
        writer = BitWriter()
        with pytest.raises(RoutingError):
            writer.write(-1, 3)

    def test_exhausted_reader(self):
        reader = BitReader((1, 0))
        reader.read(2)
        with pytest.raises(RoutingError):
            reader.read(1)

    def test_to_bytes_padding(self):
        writer = BitWriter()
        writer.write(0b101, 3)
        assert writer.to_bytes() == bytes([0b10100000])


class TestPortTableCodec:
    def test_roundtrip(self):
        entries = {3: 1, 7: 4, 12: 2}
        writer = encode_port_table(entries, n=16, degree=4)
        decoded = decode_port_table(writer.bits(), count=3, n=16, degree=4)
        assert decoded == entries

    def test_bit_count_formula(self):
        entries = {i: 1 for i in range(10)}
        writer = encode_port_table(entries, n=64, degree=8)
        assert writer.bit_length == 10 * (6 + 3)


class TestSchemesAreHonest:
    """The charged table_bits must be realizable encodings."""

    def test_destination_table_encoding_matches_accounting(self):
        algebra = ShortestPath(max_weight=9)
        graph = erdos_renyi(20, rng=random.Random(0))
        assign_random_weights(graph, algebra, rng=random.Random(1))
        scheme = DestinationTableScheme(graph, algebra)
        outcome = encoded_bits_match_accounting(scheme, encode_destination_table_node)
        for node, (encoded, charged) in outcome.items():
            assert encoded == charged, node

    def test_destination_table_decodes_back(self):
        algebra = WidestPath(max_capacity=9)
        graph = erdos_renyi(12, rng=random.Random(2))
        assign_random_weights(graph, algebra, rng=random.Random(3))
        scheme = DestinationTableScheme(graph, algebra)
        node = 0
        writer = encode_destination_table_node(scheme, node)
        # node 0's entry for target t: its parent in the tree rooted at t
        nodes, u = scheme._nodes, scheme._index[node]
        entries = {
            nodes[t]: scheme.ports.port(node, nodes[parents[u]])
            for t, parents in enumerate(scheme._parent_rows) if parents[u] >= 0
        }
        decoded = decode_port_table(
            writer.bits(), len(entries), graph.number_of_nodes(),
            scheme.ports.degree(node),
        )
        assert decoded == entries

    def test_interval_encoding_within_accounting(self):
        tree = random_tree(30, rng=random.Random(4))
        assign_uniform_weight(tree, 1)
        scheme = IntervalRoutingScheme(tree, UsablePath(), tree=tree,
                                       check_properties=False)
        outcome = encoded_bits_match_accounting(scheme, encode_interval_table_node)
        for node, (encoded, charged) in outcome.items():
            assert encoded <= charged, node
