"""FrozenTable: a dict whose in-place writes raise, copied by value."""

import copy
import pickle

import pytest

from repro.frozen import FrozenTable

WRITES = {
    "setitem": lambda table: table.__setitem__("a", 9),
    "delitem": lambda table: table.__delitem__("a"),
    "ior": lambda table: table.__ior__({"c": 3}),
    "clear": lambda table: table.clear(),
    "pop": lambda table: table.pop("a"),
    "popitem": lambda table: table.popitem(),
    "setdefault": lambda table: table.setdefault("c", 3),
    "update": lambda table: table.update(c=3),
}

CLONES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda table: pickle.loads(pickle.dumps(table)),
}


@pytest.mark.parametrize("write", sorted(WRITES))
def test_every_in_place_write_raises(write):
    table = FrozenTable({"a": 1, "b": 2})
    with pytest.raises(TypeError):
        WRITES[write](table)
    assert table == {"a": 1, "b": 2}


@pytest.mark.parametrize("clone", sorted(CLONES))
def test_copies_are_read_only_too(clone):
    table = FrozenTable({"a": FrozenTable(b=2)})
    copied = CLONES[clone](table)
    assert copied == table
    assert type(copied) is FrozenTable
    assert type(copied["a"]) is FrozenTable
    with pytest.raises(TypeError):
        copied["a"] = 1


def test_reads_are_dict_reads_and_a_change_is_a_new_table():
    table = FrozenTable(zip("ab", (1, 2)))
    assert isinstance(table, dict)
    assert list(table.items()) == [("a", 1), ("b", 2)]
    assert table.get("c") is None
    changed = FrozenTable({**table, "a": 5})
    assert changed == {"a": 5, "b": 2}
    assert table["a"] == 1
