"""Every SIMG/SMPG payload and every decoded pixel matches its golden.

See :mod:`tests.media.goldens` for the cases and how to re-record.
"""

import pytest

from tests.media import goldens

GOLDENS = goldens.load()
CASES = goldens.cases()


def test_every_case_has_a_golden():
    assert sorted(CASES) == sorted(GOLDENS)


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_payload_and_pixels_match_golden(name):
    assert goldens.measure(CASES[name]) == GOLDENS[name]
