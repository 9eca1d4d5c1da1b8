"""Unit tests for the report renderers."""

import pytest

from repro.harness.report import render_table


def test_render_table_alignment():
    text = render_table(["name", "value"], [("a", 1.5), ("bbbb", 22)],
                        title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1] and "value" in lines[1]
    assert set(lines[2]) <= {"-", " "}
    assert "1.50" in text  # floats get two decimals
    assert "bbbb" in text


def test_render_table_ragged_row_rejected():
    with pytest.raises(ValueError):
        render_table(["a", "b"], [("only-one",)])

