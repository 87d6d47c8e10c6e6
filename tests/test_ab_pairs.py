"""The summary arithmetic of tools/ab_pairs.py, on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)


def test_summary_of_fixed_pairs():
    parent, change = [10.0, 12.0, 11.0, 13.0, 9.0], [9.0, 12.0, 10.0, 14.0, 8.0]
    lower = ab_pairs.summarize(parent, change, "lower")
    assert lower["parent"] == (10.0, 11.0, 12.0)
    assert lower["change"] == (9.0, 10.0, 12.0)
    assert lower["change_wins"] == 3  # the tie at 12 counts for neither side
    assert lower["pairs"] == 5
    assert lower["ratio"] == pytest.approx(10.0 / 11.0)
    assert lower["gap_exceeds_parent_iqr"] is False  # |10 - 11| <= 12 - 10
    assert ab_pairs.summarize(parent, change, "higher")["change_wins"] == 1
    # quartiles interpolate between order statistics
    assert ab_pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)
    assert ab_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)
    flat = ab_pairs.summarize([1.0] * 4, [2.0] * 4, "lower")
    assert flat["change_wins"] == 0 and flat["gap_exceeds_parent_iqr"] is True
