"""The README's pointer table names docstrings that exist."""

import importlib
import inspect
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _pointer_table_rows() -> list[str]:
    """The rows of the README's pointer table, below its header and rule."""
    text = README.read_text(encoding="utf-8")
    section = re.search(r"^### Where each mechanism is described\n\n((?:\|.*\n)+)", text, re.M)
    assert section, "README.md has no 'Where each mechanism is described' table"
    return section.group(1).splitlines()[2:]


def _resolve(dotted: str):
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"mmssl.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_the_pointer_table_names_docstrings_for_every_mechanism():
    rows = _pointer_table_rows()
    assert len(rows) >= 12
    for row in rows:
        mechanism, docstrings = row.strip("|").split("|")
        assert "`" not in mechanism and "`" in docstrings, row


@pytest.mark.parametrize("name", [n for row in _pointer_table_rows() for n in re.findall(r"`([^`]+)`", row)])
def test_each_name_in_the_pointer_table_is_documented_code(name):
    obj = _resolve(name)
    assert inspect.isroutine(obj) or inspect.isclass(obj), f"{name} is not a function, method or class"
    assert inspect.getdoc(obj), f"{name} has no docstring"
