"""Read-only mappings for built routing state.

In the routing model (Section 2.3) a scheme is a local routing function
over *static* local state.  :class:`FrozenTable` holds that state — the
schemes' forwarding tables and the path-tree maps they are read from — so
a built table can never change under a reader that cached a view of it:
a changed table is always a new table, and a changed scheme a new scheme.
"""

from __future__ import annotations

__all__ = ["FrozenTable"]


def _read_only(self, *args, **kwargs):
    raise TypeError(f"{type(self).__name__} is read-only; build a new one")


class FrozenTable(dict):
    """A ``dict`` whose contents are fixed at construction.

    Reads are plain ``dict`` reads (C-speed lookups, iteration in
    insertion order, equal to a ``dict`` with the same items); every
    in-place write raises :class:`TypeError`.  It pickles and copies by
    value, so a scheme shipped to a spawn worker arrives read-only too.
    To change a table, build a new one: ``FrozenTable({**old, key: value})``.
    """

    __slots__ = ()

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return type(self), (dict(self),)
