"""The paper-claims ledger: a fresh measurement equals ``RESULTS.json``.

Every claim of :mod:`repro.report` is measured once per pytest session.  Its
counters must equal the committed record exactly (``==``), every named
relation must hold (one test per claim × relation, so a failing relation
names itself), and ``RESULTS.md`` must be the rendering of
``RESULTS.json``.  A change that means to move a number re-runs
``python -m repro.report`` and reviews the diff of both files.
"""

from __future__ import annotations

import json

import pytest

from repro.report import CLAIMS, RESULTS_JSON, RESULTS_MD, render_markdown

RECORD = json.loads(RESULTS_JSON.read_text(encoding="utf-8"))
RELATIONS = [(claim_id, name) for claim_id, claim in CLAIMS.items() for name in claim.relations]


@pytest.fixture(scope="session")
def measured():
    """Claim id → its fresh measurement, each claim measured at most once."""
    cache: dict[str, dict] = {}

    def measure(claim_id: str) -> dict:
        if claim_id not in cache:
            cache[claim_id] = CLAIMS[claim_id].measure()
        return cache[claim_id]

    return measure


def test_the_record_holds_exactly_the_ledger_claims():
    assert list(RECORD) == list(CLAIMS)


def test_results_md_is_the_rendering_of_results_json():
    assert RESULTS_MD.read_text(encoding="utf-8") == render_markdown(RECORD)


@pytest.mark.parametrize("claim_id", list(CLAIMS))
def test_a_fresh_measurement_equals_the_record(claim_id, measured):
    fresh, recorded = measured(claim_id), RECORD[claim_id]
    for cell, counters in fresh["counters"].items():
        assert counters == recorded["counters"].get(cell), f"{claim_id} {cell}"
    assert fresh == recorded


@pytest.mark.parametrize("claim_id,relation", RELATIONS)
def test_the_relation_holds(claim_id, relation, measured):
    assert measured(claim_id)["relations"][relation], f"{claim_id}: {relation}"
