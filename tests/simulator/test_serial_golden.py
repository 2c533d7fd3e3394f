"""The serial event loop reproduces the frozen records of the three loops
it replaced (plain, policy-controlled, faulted), field for field.

The fixture and its inputs live in ``make_serial_golden.py``; see its
docstring for what the cases cover and how the fixture was written.
"""

import json

import pytest

from tests.simulator.make_serial_golden import (
    CASES,
    FIXTURE,
    decode_result,
    encode_result,
    run_case,
)

GOLDEN = json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_equals_golden_record(name):
    assert run_case(name) == decode_result(GOLDEN[name])


@pytest.mark.parametrize("name", ["gate", "faults-never-back"])
def test_codec_round_trips_exactly(name):
    result = run_case(name)
    assert decode_result(encode_result(result)) == result
    assert encode_result(result) == GOLDEN[name]
