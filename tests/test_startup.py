"""A cold run loads only the modules it executes."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import ballquot

SRC = Path(__file__).resolve().parent.parent / "src"
UNUSED = ("dataclasses", "inspect", "datetime", "importlib.resources")


def run_cold(code: str) -> str:
    """stdout of `code` in a fresh interpreter without `site`, whose .pth
    files may import modules of their own."""
    return subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(
                              [str(SRC), os.environ.get("PYTHONPATH", "")])},
                          check=True).stdout


def test_a_cold_run_loads_no_module_it_does_not_execute():
    out = run_cold("import sys\n"
                   "from ballquot.cli import main\n"
                   "codes = [main(['report']), main(['volume']),\n"
                   "         main(['dims', '--group', 'gamma', '--weight', '3'])]\n"
                   f"print(codes, [m for m in {UNUSED!r} if m in sys.modules])\n")
    assert out.splitlines()[-1] == "[0, 0, 0] []"


def test_a_subcommand_that_hashes_nothing_loads_no_hashlib():
    out = run_cold("import sys\n"
                   "from ballquot.cli import main\n"
                   "code = main(['volume'])\n"
                   "print(code, [m for m in ('hashlib', '_hashlib') if m in sys.modules])\n")
    assert out.splitlines()[-1] == "0 []"


def test_the_timestamp_still_comes_with_the_report():
    out = run_cold("from ballquot.cli import main\n"
                   "main(['report', '--timestamp'])\n")
    doc = json.loads(out)
    assert doc["generated_at"].endswith("+00:00")
    assert doc["report"]["metadata"]["entry_count"] == len(doc["report"]["entries"])


@pytest.mark.parametrize("name", ["classes_gamma.json", "classes_gamma_tilde.json",
                                  "fibrations.json"])
def test_data_files_read_the_same_by_path_and_by_resources(name):
    by_resources = resources.files("ballquot.data").joinpath(name).read_text()
    assert ballquot.read_data(name) == by_resources
