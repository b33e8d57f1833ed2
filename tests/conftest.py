"""Keeps the tests directory importable so shared oracles can be imported.

The fixtures load the benchmark's and the digest tool's scripts read-only,
for the configs and models they define.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_script(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def bench():
    """perfbench/run.py, for its scan config, model and query rationals."""
    yield _load_script(ROOT / "perfbench" / "run.py", "bench_run_for_tests")
    del sys.modules["bench_run_for_tests"]


@pytest.fixture(scope="session")
def digest_tool():
    """tools/digest_outputs.py, for its fourier-potential model and scan."""
    yield _load_script(ROOT / "tools" / "digest_outputs.py", "digest_outputs_for_tests")
    del sys.modules["digest_outputs_for_tests"]
