"""tools/mutants.py: every mutation in its list still applies to this tree,
at one place only. The mutation run itself is too slow for this suite."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "mutants.py"


@pytest.fixture(scope="module")
def tool():
    if not TOOL.is_file():
        pytest.skip("no tools/ next to this checkout")
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_source_text_occurs_once(tool):
    names = [name for name, *_ in tool.MUTANTS]
    assert len(set(names)) == len(names)
    for name, file, text, replacement in tool.MUTANTS:
        assert text != replacement, name
        assert tool.occurrences(str(ROOT), file, text) == 1, name
