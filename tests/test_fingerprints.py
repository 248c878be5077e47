"""Golden fingerprints: each config of `fingerprint.py` prints the line
committed in `fingerprints.txt`, so a change that moves any bit of a run's
output or files, or a level, classification or exit, fails here."""

import pytest

import fingerprint
from fingerprint import CONFIGS, compare, golden_lines, line

GOLDEN = golden_lines()


def test_every_config_has_a_golden_line():
    assert sorted(GOLDEN) == sorted(CONFIGS)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_fingerprint_matches_its_golden_line(name):
    assert line(name) == GOLDEN[name]


GOLDEN_LINE = ("demo 00ff c1=39.478417604357425 c2=31.85703335109412 "
               "record0=semi_trivial_constant_u/refined=True/exit=handoff/res=8e-11 "
               "record1=nontrivial/refined=True/exit=budget/res=5e-14 "
               "distinct=True converged=True")


def test_compare_reports_a_level_change_and_a_classification_flip():
    assert compare(GOLDEN_LINE, GOLDEN_LINE) == ["unchanged"]
    moved = (GOLDEN_LINE.replace("00ff", "11ee")
             .replace("c2=31.85703335109412", "c2=31.857033350961892")
             .replace("record1=nontrivial", "record1=semi_trivial_constant_u"))
    assert compare(GOLDEN_LINE, moved) == [
        "changed",
        "hash moved",
        "c2: 31.85703335109412 -> 31.857033350961892 (relative -4.15e-12)",
        "record1 classification: nontrivial -> semi_trivial_constant_u",
    ]


def test_compare_exits_with_status_1_when_a_config_changed(monkeypatch, capsys):
    # no run starts: `line` returns the committed line, or it with c1 moved
    name = "workcounts-mountain-pass"
    committed = GOLDEN[name]
    moved = committed.replace("c1=39.478417604357425", "c1=39.478417604357426")
    assert moved != committed
    monkeypatch.setattr(fingerprint, "line", lambda n: committed)
    assert fingerprint.main(["--compare", name]) == 0
    monkeypatch.setattr(fingerprint, "line", lambda n: moved)
    assert fingerprint.main(["--compare", name]) == 1
    assert capsys.readouterr().out.splitlines()[:2] == [f"{name} unchanged", f"{name} changed"]
