"""The planted-fault catalog (tools/planted_faults.py) names code that exists.

Planting the faults and running their tests is the catalog's own job, too
slow for this suite; here each entry's old text must occur exactly once in
its file, so that a refactor that moves the code moves the entry along, and
each test it names must exist.
"""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("faults", ROOT / "tools" / "planted_faults.py")
planted_faults = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(planted_faults)
FAULTS = {entry[0]: entry for entry in planted_faults.FAULTS}


def test_every_fault_has_its_own_name():
    assert len(FAULTS) == len(planted_faults.FAULTS)


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_the_old_text_occurs_once_and_the_named_tests_exist(name):
    _, file, old, new, tests = FAULTS[name]
    assert old != new
    assert (ROOT / file).read_text().count(old) == 1
    assert tests
    for test in tests:
        path, function = re.fullmatch(r"([\w/]+\.py)::(\w+)(\[.*\])?", test).group(1, 2)
        assert f"def {function}(" in (ROOT / path).read_text(), test
