"""The test tooling's own guarantees."""

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import tube_dissip


def test_conftest_imports_every_module_of_the_package():
    # derandomized Hypothesis draws literal constants from the package
    # modules in sys.modules, so a run of one test file draws the examples
    # the whole suite does only when the package is imported whole up front
    root = Path(__file__).resolve().parents[1]
    src = str(Path(tube_dissip.__file__).resolve().parents[1])
    code = "import json, sys, tests.conftest; print(json.dumps(sorted(m for m in sys.modules if m.startswith('tube_dissip.'))))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, check=True)
    expected = sorted(f"tube_dissip.{info.name}" for info in pkgutil.iter_modules(tube_dissip.__path__))
    assert json.loads(out.stdout) == expected
