import os
import subprocess
import sys
from pathlib import Path

import pytest

import ballquot

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_version_has_one_source():
    meta = tomllib.loads(PYPROJECT.read_text())
    assert "version" not in meta["project"]
    assert "version" in meta["project"]["dynamic"]
    assert meta["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "ballquot.__version__"}
    assert ballquot.__version__ == "1.0.0"


def test_no_runtime_dependencies():
    assert tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"] == []


def test_report_and_lvalue_never_import_mpmath():
    src = PYPROJECT.parent / "src"
    code = ("import sys\n"
            "from ballquot.cli import main\n"
            "codes = [main(['report']), main(['lvalue', '--numeric'])]\n"
            "print(codes, 'mpmath' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(
                             [str(src), os.environ.get("PYTHONPATH", "")])},
                         check=True).stdout
    assert out.splitlines()[-1] == "[0, 0] False"
