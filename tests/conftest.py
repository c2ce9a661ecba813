"""Helpers shared across the test suites."""

import copy

import pytest

from repro.frozen import FrozenTable


def _sabotaged(scheme, table: str, rows: dict):
    """A copy of built *scheme* whose forwarding *table* has *rows* replaced.

    *table* names a two-level table (``"_next_hop"`` of a destination-table
    scheme, ``"_entries"`` of a pair-table scheme); *rows* maps a node to
    the complete row it gets instead.  Built tables are read-only, so a
    broken scheme is a new object: *scheme* stays intact, and the query
    engine compiles the copy afresh.
    """
    broken = copy.copy(scheme)
    replaced = {node: FrozenTable(row) for node, row in rows.items()}
    setattr(broken, table, FrozenTable({**getattr(scheme, table), **replaced}))
    return broken


@pytest.fixture(scope="session")
def sabotaged():
    """``sabotaged(scheme, table, rows)``: a broken copy of a built scheme."""
    return _sabotaged
