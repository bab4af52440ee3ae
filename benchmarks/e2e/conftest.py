"""Pytest set-up for the benchmark's own tests.

They run only when this directory (or a file in it) is named on the command
line, ``pytest benchmarks/e2e``; the repository's default test run skips
them, since the smoke test starts real benchmark processes.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))


def _names_this_directory(arg: str) -> bool:
    target = Path(arg.split("::")[0]).resolve()
    return target == HERE or HERE in target.parents


def pytest_ignore_collect(collection_path, config):
    if not any(_names_this_directory(arg) for arg in config.args):
        return True
    return None
