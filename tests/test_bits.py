"""The committed bit manifest (`bits.py`, `bits.json`), all but the full sweep.

Each group is checked through the engine that `harness._loop` picks, the
C loop wherever a compiler or a cached library exists, and again through
the plain Python loop, against the same digests.
"""
import json

import pytest

from sprayflow import harness

import bits

MANIFEST = json.loads(bits.MANIFEST.read_text("ascii"))


def test_manifest_covers_every_group():
    assert set(MANIFEST) == set(bits.GROUPS)


@pytest.mark.parametrize("group", [group for group in bits.GROUPS if group != "sweep-full"])
def test_group_keeps_its_bits(group):
    assert bits.digest(group) == MANIFEST[group]


@pytest.mark.parametrize("group", [group for group in bits.GROUPS if group != "sweep-full"])
def test_group_keeps_its_bits_in_the_python_loop(group, monkeypatch):
    monkeypatch.setattr(harness, "_loop", lambda: harness._plain_loop)
    assert bits.digest(group) == MANIFEST[group]
