"""Helpers shared across the test suites."""

import copy

import pytest

from repro.frozen import FrozenTable


def _sabotaged(scheme, table: str, rows: dict):
    """A copy of built *scheme* whose forwarding *table* has *rows* replaced.

    *table* names the forwarding state: ``"_parent_rows"`` of a
    destination-table scheme, ``"_entries"`` of a pair-table scheme.
    *rows* maps a node to the complete row it gets instead: ``{target:
    next hop}`` for a destination table, ``{(source, target): port}`` for
    a pair table.  A destination table's row of ``u`` is column ``u`` of
    its parent rows, so a node with no entries is its column set to -1 in
    every parent row, and an off-edge hop is a non-neighbour's index.
    Built tables are read-only, so a broken scheme is a new object:
    *scheme* stays intact, and the query engine compiles the copy afresh.
    """
    broken = copy.copy(scheme)
    if table == "_parent_rows":
        index = scheme._index
        parents = [list(row) for row in scheme._parent_rows]
        for node, row in rows.items():
            u = index[node]
            for parent in parents:
                parent[u] = -1
            for target, hop in row.items():
                parents[index[target]][u] = index[hop]
        broken._parent_rows = tuple(map(tuple, parents))
        return broken
    replaced = {node: FrozenTable(row) for node, row in rows.items()}
    setattr(broken, table, FrozenTable({**getattr(scheme, table), **replaced}))
    return broken


@pytest.fixture(scope="session")
def sabotaged():
    """``sabotaged(scheme, table, rows)``: a broken copy of a built scheme."""
    return _sabotaged


@pytest.fixture
def in_workers(monkeypatch):
    """``in_workers(fault)``: run *fault* before every shard a worker routes.

    Patches ``parallel.route_shard`` with a wrapper that acts only outside
    the test's own process: forked workers inherit the patch, while the
    parent's own calls (the serial fallback) pass straight through.
    Spawned workers import the module afresh, so tests using this
    fixture skip where the platform offers no fork.
    """
    import multiprocessing
    import os

    from repro.core import parallel
    from repro.core.simulate import route_shard

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("workers inherit a patched route_shard only under fork")
    parent = os.getpid()

    def patch(fault):
        def faulty_route_shard(*args, **kwargs):
            if os.getpid() != parent:
                fault()
            return route_shard(*args, **kwargs)

        monkeypatch.setattr(parallel, "route_shard", faulty_route_shard)

    return patch
