"""The package's exported names and the README's library example."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pitmanyor

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in pitmanyor.__all__ if not hasattr(pitmanyor, name)]
    assert missing == []


# __main__ would run the command line on import
MODULES = [m.name for m in pkgutil.iter_modules(pitmanyor.__path__) if m.name != "__main__"]


@pytest.mark.parametrize("module", MODULES)
def test_every_module_export_resolves(module):
    mod = importlib.import_module(f"pitmanyor.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_readme_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None
    exec(compile(block.group(1), "README.md", "exec"), {})


def test_import_leaves_the_process_pool_unloaded():
    # the process and thread pools, and multiprocessing, load only where a
    # pool starts
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = (
        "import sys, pitmanyor; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
