"""Every report byte of the golden CLI runs, as written by ``tests/golden.py``."""

import pytest

from golden import GOLDEN, ROOT, cases, render

CASES = cases()


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_cli_output_matches_its_golden_file(name, argv, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert render(argv) == (GOLDEN / name).read_text(encoding="utf-8")


def test_every_golden_file_has_a_run():
    assert sorted(path.name for path in GOLDEN.glob("*.out")) == sorted(
        name for name, _ in CASES)
