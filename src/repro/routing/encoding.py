"""Bit-exact encoding of local routing state — Definition 2 made literal.

``M_A(R, u)`` is "the minimum number of bits needed to encode the local
routing function R_u".  The schemes report *accounting* numbers through
:mod:`repro.routing.memory`; this module closes the loop by actually
serializing tables into bitstrings and decoding them back, so the tests
can assert that the reported bit counts are realizable encodings, not
bookkeeping fiction.

The writer packs fixed-width big-endian fields; the reader mirrors it.
Entry counts, widths and field layouts are shared context between encoder
and decoder (the standard convention in compact routing: the scheme is
globally known, only the per-node state is charged).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.exceptions import RoutingError
from repro.routing.memory import label_bits_for_nodes, port_bits


class BitWriter:
    """Append-only bit buffer with fixed-width big-endian fields."""

    def __init__(self):
        self._bits: List[int] = []

    def write(self, value: int, width: int):
        if width < 0:
            raise RoutingError("field width must be non-negative")
        if value < 0 or (width < value.bit_length()):
            raise RoutingError(f"value {value} does not fit in {width} bits")
        for i in range(width - 1, -1, -1):
            self._bits.append((value >> i) & 1)

    @property
    def bit_length(self) -> int:
        return len(self._bits)

    def to_bytes(self) -> bytes:
        out = bytearray()
        for i in range(0, len(self._bits), 8):
            byte = 0
            for bit in self._bits[i:i + 8]:
                byte = (byte << 1) | bit
            byte <<= (8 - min(8, len(self._bits) - i)) % 8
            out.append(byte)
        return bytes(out)

    def bits(self) -> Tuple[int, ...]:
        return tuple(self._bits)


class BitReader:
    """Sequential fixed-width reads over a bit tuple."""

    def __init__(self, bits: Sequence[int]):
        self._bits = tuple(bits)
        self._pos = 0

    def read(self, width: int) -> int:
        if self._pos + width > len(self._bits):
            raise RoutingError("bit stream exhausted")
        value = 0
        for _ in range(width):
            value = (value << 1) | self._bits[self._pos]
            self._pos += 1
        return value

    @property
    def remaining(self) -> int:
        return len(self._bits) - self._pos


def encode_port_table(entries: Dict[int, int], n: int, degree: int) -> BitWriter:
    """Serialize a ``{destination id: port}`` table.

    Layout: per entry, ``ceil(log2 n)`` id bits + ``ceil(log2 degree)``
    port bits — exactly the charge of
    :class:`~repro.routing.destination_table.DestinationTableScheme`.
    Ports are stored as ``port - 1`` so a degree that is an exact power of
    two still fits.
    """
    id_bits = label_bits_for_nodes(n)
    p_bits = port_bits(degree)
    writer = BitWriter()
    for dest, port in sorted(entries.items()):
        writer.write(dest, id_bits)
        writer.write(port - 1, p_bits)
    return writer


def decode_port_table(bits: Sequence[int], count: int, n: int, degree: int
                      ) -> Dict[int, int]:
    """Inverse of :func:`encode_port_table` (entry count known globally)."""
    id_bits = label_bits_for_nodes(n)
    p_bits = port_bits(degree)
    reader = BitReader(bits)
    entries = {}
    for _ in range(count):
        dest = reader.read(id_bits)
        entries[dest] = reader.read(p_bits) + 1
    return entries


def encode_destination_table_node(scheme, node) -> BitWriter:
    """Bit-encode one node's state of a DestinationTableScheme: an entry
    per target whose parent row holds a next hop for *node*."""
    n = scheme.graph.number_of_nodes()
    degree = scheme.ports.degree(node)
    u, nodes = scheme._index[node], scheme._nodes
    table = {
        nodes[t]: scheme.ports.port(node, nodes[row[u]])
        for t, row in enumerate(scheme._parent_rows) if row[u] >= 0
    }
    return encode_port_table(table, n, degree)


def encode_interval_table_node(scheme, node) -> BitWriter:
    """Bit-encode one node's state of an IntervalRoutingScheme.

    Layout: own dfs number, then per row (port-1, lo, hi); the parent row
    stores the node's own interval (its complement is implied).
    """
    n = scheme.graph.number_of_nodes()
    id_bits = label_bits_for_nodes(n)
    p_bits = port_bits(scheme.ports.degree(node))
    writer = BitWriter()
    writer.write(scheme._dfs[node], id_bits)
    for port, (lo, hi) in sorted(scheme._child_intervals[node].items()):
        writer.write(port - 1, p_bits)
        writer.write(lo, id_bits)
        writer.write(hi, id_bits)
    if scheme._parent_port[node] is not None:
        writer.write(scheme._parent_port[node] - 1, p_bits)
        writer.write(scheme._dfs[node], id_bits)
        writer.write(scheme._subtree_end[node], id_bits)
    return writer


def encoded_bits_match_accounting(scheme, encoder) -> Dict[object, Tuple[int, int]]:
    """Encode every node with *encoder*; return {node: (encoded, charged)}.

    Used by tests to certify that the scheme's ``table_bits`` accounting is
    an achievable encoding (encoded <= charged, and equal for the
    fixed-layout schemes).
    """
    return {
        node: (encoder(scheme, node).bit_length, scheme.table_bits(node))
        for node in scheme.graph.nodes()
    }
