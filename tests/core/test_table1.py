"""Tests for the one-call Table 1 reproduction."""

from pathlib import Path

import pytest

from repro.cli import main
from repro.core.table1 import format_table1, reproduce_table1

#: ``repro table1 --sizes 16,24,32``, byte for byte (CI diffs it too).
FIXTURE = Path(__file__).parent / "fixtures" / "table1.expected.txt"


@pytest.fixture(scope="module")
def rows():
    # small sizes: this fixture backs several assertions, keep it quick
    return reproduce_table1(sizes=(16, 24, 32), sw_sizes=(10, 14, 18), seed=0)


class TestReproduceTable1:
    def test_six_rows_in_paper_order(self, rows):
        assert [row.policy for row in rows] == [
            "shortest-path",
            "widest-path",
            "most-reliable-path",
            "usable-path",
            "widest-shortest-path",
            "shortest-widest-path",
        ]

    def test_paper_classes(self, rows):
        classes = {row.policy: row.paper_class for row in rows}
        assert classes["widest-path"] == "Theta(log n)"
        assert classes["shortest-widest-path"] == "Omega(n)"

    def test_measurements_populated(self, rows):
        for row in rows:
            assert len(row.measurements) == 3
            assert all(bits > 0 for _, bits in row.measurements)

    def test_compressible_rows_measure_smaller(self, rows):
        by_name = {row.policy: row for row in rows}
        log_bits = by_name["widest-path"].measurements[-1][1]
        lin_bits = by_name["shortest-path"].measurements[-1][1]
        assert log_bits < lin_bits / 3

    def test_classification_attached(self, rows):
        by_name = {row.policy: row for row in rows}
        assert by_name["most-reliable-path"].classification.compressible is False
        assert by_name["usable-path"].classification.compressible is True

    def test_formatting(self, rows):
        text = format_table1(rows)
        assert "Table 1" in text
        assert text.count("\n") >= 7
        for row in rows:
            assert row.policy in text


def test_cli_output_matches_fixture(capsys):
    """Memory bits, fits and classes stay byte-identical; the widest-path
    and usable-path rows carry tree-routing bits."""
    assert main(["table1", "--sizes", "16,24,32"]) == 0
    assert capsys.readouterr().out == FIXTURE.read_text(encoding="utf-8")
