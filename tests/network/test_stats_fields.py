"""``NetworkStats.merge`` and ``reset`` cover every field: both are
derived from the dataclass field list, so a new counter is summed and
cleared without being listed again."""

from __future__ import annotations

from collections import Counter
from dataclasses import fields

from repro.network.stats import NetworkStats

NAMES = [spec.name for spec in fields(NetworkStats)]


def filled(scale: int) -> NetworkStats:
    """Stats with field ``i`` (1-based) set to ``i * scale`` in its own shape."""
    stats = NetworkStats()
    for index, name in enumerate(NAMES, start=1):
        value = getattr(stats, name)
        if isinstance(value, Counter):
            value["x"] = index * scale
        elif isinstance(value, list):
            value.append(("entry", index * scale))
        else:
            setattr(stats, name, type(value)(index * scale))
    return stats


def test_every_field_is_set_away_from_its_default():
    stats, default = filled(1), NetworkStats()
    assert [name for name in NAMES if getattr(stats, name) == getattr(default, name)] == []


def test_reset_clears_every_field():
    stats = filled(1)
    breakdown = stats.messages_by_type
    stats.reset()
    assert stats == NetworkStats()
    assert stats.messages_by_type is breakdown  # emptied in place


def test_merge_sums_every_field():
    merged = filled(1)
    merged.merge(filled(10))
    for index, name in enumerate(NAMES, start=1):
        value = getattr(merged, name)
        if isinstance(value, Counter):
            assert value == Counter(x=11 * index), name
        elif isinstance(value, list):
            assert value == [("entry", index), ("entry", 10 * index)], name
        else:
            assert value == 11 * index, name
