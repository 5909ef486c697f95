"""The committed bit manifest (`bits.py`, `bits.json`), all but the full sweep."""
import json

import pytest

import bits

MANIFEST = json.loads(bits.MANIFEST.read_text("ascii"))


def test_manifest_covers_every_group():
    assert set(MANIFEST) == set(bits.GROUPS)


@pytest.mark.parametrize("group", [group for group in bits.GROUPS if group != "sweep-full"])
def test_group_keeps_its_bits(group):
    assert bits.digest(group) == MANIFEST[group]
