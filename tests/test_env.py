"""The ``REPRO_*`` environment overrides: warn-once choices, one table."""

import re
import uuid
import warnings
from pathlib import Path

import pytest

from repro.routing.query_engine import resolve_query_engine

REPO_ROOT = Path(__file__).resolve().parents[1]

_NAME = re.compile(r"REPRO_[A-Z_]+")


@pytest.mark.parametrize("name, resolve", [
    ("REPRO_QUERY_ENGINE", resolve_query_engine),
])
def test_bad_choice_warns_once_and_applies_the_default(monkeypatch, name,
                                                       resolve):
    monkeypatch.delenv(name, raising=False)
    default = resolve()
    bad = f"no-such-{uuid.uuid4().hex[:8]}"  # never warned about before
    monkeypatch.setenv(name, bad)
    with pytest.warns(RuntimeWarning) as caught:
        assert resolve() == default
    messages = [str(w.message) for w in caught
                if issubclass(w.category, RuntimeWarning)]
    assert len(messages) == 1
    assert name in messages[0] and bad in messages[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a second warning would raise
        assert resolve() == default


def test_every_variable_is_in_the_documented_table():
    table = set()
    for line in (REPO_ROOT / "docs" / "EVALUATION_API.md").read_text(
            ).splitlines():
        if line.startswith("| `REPRO_"):
            table.add(_NAME.search(line).group())
    used = set()
    for path in (REPO_ROOT / "src" / "repro").rglob("*.py"):
        used.update(_NAME.findall(path.read_text()))
    assert used <= table, f"undocumented: {sorted(used - table)}"
    assert table <= used, f"documented but unused: {sorted(table - used)}"
