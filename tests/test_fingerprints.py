"""Golden fingerprints: each config of `fingerprint.py` prints the line
committed in `fingerprints.txt`, so a change that moves any bit of a run's
output or files, or a level, classification or exit, fails here."""

from pathlib import Path

import pytest

from fingerprint import CONFIGS, line

GOLDEN = {ln.split(" ", 1)[0]: ln
          for ln in Path(__file__).with_name("fingerprints.txt").read_text().splitlines()}


def test_every_config_has_a_golden_line():
    assert sorted(GOLDEN) == sorted(CONFIGS)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_fingerprint_matches_its_golden_line(name):
    assert line(name) == GOLDEN[name]
