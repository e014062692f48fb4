"""Guard: every test file on disk is one pytest collects.

pytest skips a directory whose name matches a ``norecursedirs`` pattern,
and its default list holds ``dist`` and ``build`` — so ``tests/dist/`` sat
uncollected, green by absence, until ``pyproject.toml`` overrode the list.
This test reads the same settings pytest reads and fails for any
``tests/**/test_*.py`` they would skip.
"""

from fnmatch import fnmatch
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
#: pytest's own ``norecursedirs`` default, which applies when the project
#: sets none
PYTEST_DEFAULT_NORECURSE = ["*.egg", ".*", "_darcs", "build", "CVS", "dist",
                            "node_modules", "venv", "{arch}"]


def _settings():
    with open(ROOT / "pyproject.toml", "rb") as f:
        ini = tomllib.load(f)["tool"]["pytest"]["ini_options"]
    return (ini.get("testpaths", ["."]),
            ini.get("norecursedirs", PYTEST_DEFAULT_NORECURSE))


def _skipped(testpaths, norecursedirs):
    """The test files under ``tests/`` that these settings never reach."""
    roots = [(ROOT / p).resolve() for p in testpaths]
    missed = []
    for path in sorted((ROOT / "tests").rglob("test_*.py")):
        under = [r for r in roots if r == path.parent or r in path.parents]
        if not under:
            missed.append(path)
            continue
        dirs = path.parent.relative_to(under[0]).parts
        if any(fnmatch(d, pat) for d in dirs for pat in norecursedirs):
            missed.append(path)
    return [str(p.relative_to(ROOT)) for p in missed]


def test_every_test_file_is_collected():
    assert not _skipped(*_settings())


def test_the_guard_sees_the_default_skipping_tests_dist():
    testpaths, _ = _settings()
    assert "tests/dist/test_build.py" in _skipped(
        testpaths, PYTEST_DEFAULT_NORECURSE)
