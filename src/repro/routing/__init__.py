"""Routing schemes over the Section 2.3 routing-function model."""

from repro.routing.bgp_rib import RIBScheme
from repro.routing.bgp_schemes import B1TreeScheme, B2ConeScheme
from repro.routing.cowen import STRATEGIES, CowenScheme
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
from repro.routing.destination_table import DestinationTableScheme
from repro.routing.memory import (
    MemoryReport,
    bits_for_count,
    label_bits_for_nodes,
    memory_report,
    port_bits,
    table_bits,
)
from repro.routing.model import (
    Action,
    Decision,
    PortMap,
    RouteResult,
    RoutingScheme,
)
from repro.routing.pair_table import PairTableScheme
from repro.routing.stretch import (
    StretchReport,
    measure_stretch,
    minimal_stretch,
    satisfies_stretch,
)
from repro.routing.tree_routing import TreeRoutingScheme

__all__ = [
    "RIBScheme",
    "B1TreeScheme",
    "B2ConeScheme",
    "STRATEGIES",
    "CowenScheme",
    "BitReader",
    "BitWriter",
    "decode_port_table",
    "encode_destination_table_node",
    "encode_interval_table_node",
    "encode_port_table",
    "encoded_bits_match_accounting",
    "IntervalRoutingScheme",
    "DestinationTableScheme",
    "MemoryReport",
    "bits_for_count",
    "label_bits_for_nodes",
    "memory_report",
    "port_bits",
    "table_bits",
    "Action",
    "Decision",
    "PortMap",
    "RouteResult",
    "RoutingScheme",
    "PairTableScheme",
    "StretchReport",
    "measure_stretch",
    "minimal_stretch",
    "satisfies_stretch",
    "TreeRoutingScheme",
]
