"""This repository's pytest settings fail a run on an unknown mark or ini key.

``--strict-markers`` and ``--strict-config`` in ``addopts`` enforce that on
pytest 7 and 8, but not on pytest 9, where only ``filterwarnings = ["error"]``
turns the warnings into failures.  Each case runs pytest in a subprocess, on
a scratch project whose only settings are this repository's.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _ini_options() -> str:
    text = PYPROJECT.read_text(encoding="utf-8")
    section = re.search(r"^\[tool\.pytest\.ini_options\]\n(?:[^\[].*\n?)*", text, re.MULTILINE)
    assert section, "pyproject.toml has no [tool.pytest.ini_options] section"
    return section.group(0)


@pytest.mark.parametrize(
    "ini_line, mark, fails",
    [
        pytest.param("", "", False, id="control"),
        pytest.param("", "@pytest.mark.unregistered_mark\n", True, id="unregistered-mark"),
        pytest.param('testpahts = ["."]\n', "", True, id="misspelled-ini-key"),
    ],
)
def test_repository_settings_fail_a_run_with_an_unknown_mark_or_ini_key(tmp_path, ini_line, mark, fails):
    (tmp_path / "pyproject.toml").write_text(_ini_options().rstrip("\n") + "\n" + ini_line)
    (tmp_path / "test_probe.py").write_text(f"import pytest\n\n\n{mark}def test_probe():\n    pass\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTEST_ADDOPTS"}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    # the control run passes, so each failure comes from the one line it adds
    assert (run.returncode != 0) == fails, run.stdout + run.stderr
