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
