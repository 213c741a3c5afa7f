"""The test run refuses a PYTHONPATH that pytest's own ``pythonpath``
would shadow (see ``conftest.pytest_configure``)."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def collect(pythonpath):
    """A test-collection run of this tree, with ``pythonpath`` as PYTHONPATH."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, pythonpath))}
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "--co", "-p", "no:cacheprovider",
                           str(ROOT / "tests" / "test_run_guard.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


@pytest.fixture
def other_tree(tmp_path):
    """A directory that holds another (empty) ``lumpchain`` package."""
    (tmp_path / "lumpchain").mkdir()
    (tmp_path / "lumpchain" / "__init__.py").write_text("")
    return tmp_path.resolve()


def test_another_tree_first_on_pythonpath_stops_the_run(other_tree):
    proc = collect([other_tree, SRC])
    assert proc.returncode == 4  # pytest's usage error
    assert str(other_tree / "lumpchain") in proc.stderr
    assert str(SRC / "lumpchain") in proc.stderr


def test_only_the_first_lumpchain_entry_counts(other_tree):
    proc = collect([other_tree / "empty", SRC, other_tree])
    assert proc.returncode == 0, proc.stdout + proc.stderr
