"""A cold run loads only the modules it executes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ballquot
from ballquot import config, report
from ballquot.cyclotomic import CycElt

SRC = Path(__file__).resolve().parent.parent / "src"
UNUSED = ("dataclasses", "inspect", "datetime", "importlib.resources")


def run_python(*args: str, check: bool = True) -> subprocess.CompletedProcess:
    """`python -S ARGS` in a fresh interpreter: without `site`, whose .pth
    files may import modules of their own."""
    return subprocess.run([sys.executable, "-S", *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(
                              [str(SRC), os.environ.get("PYTHONPATH", "")])},
                          check=check)


def run_cold(code: str) -> str:
    """stdout of `code` in a fresh interpreter without `site`."""
    return run_python("-c", code).stdout


def _write_json(tmp_path, doc: dict) -> str:
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    return str(path)


EVERY_MODULE = sorted(["ballquot"] + [f"ballquot.{p.stem}" for p in
                                      Path(ballquot.__file__).parent.glob("*.py")
                                      if p.stem != "__init__"])
HEIGHTS = {"euler": "3", "signature": 1, "points": [[7, 3], [7, 3], [7, 3]]}
CLASSIFY = {"c2": 3, "q": 0, "plurigenera": {"2": 10, "3": 28}}


@pytest.mark.parametrize("argv, loads", [
    (None, []),
    (["--help"], []),
    (["resolve", "7", "3"], ["singularities"]),
    (["heights", HEIGHTS], ["singularities"]),
    (["lvalue"], ["lfunctions", "symreal"]),
    (["volume"], ["lfunctions", "symreal"]),
    (["dims", "--group", "gamma", "--weight", "3"],
     ["cyclotomic", "dimension", "singularities", "symreal"]),
    (["classify", CLASSIFY], ["classifier"]),
    (["report"], None),
], ids=["import", "help", "resolve", "heights", "lvalue", "volume", "dims", "classify",
        "report"])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, loads):
    """`import ballquot.cli` loads the package, `cli` and the input layer
    `config`; a command adds the modules it runs, the report all of them."""
    if argv is not None:
        argv = [a if isinstance(a, str) else _write_json(tmp_path, a) for a in argv]
    out = run_cold("import contextlib, io, sys\n"
                   "from ballquot.cli import main\n"
                   f"if {argv!r} is not None:\n"
                   "    with contextlib.redirect_stdout(io.StringIO()):\n"
                   f"        assert main({argv!r}) == 0\n"
                   "print(sorted(m for m in sys.modules if m.startswith('ballquot')))\n")
    want = EVERY_MODULE if loads is None else sorted(
        ["ballquot", "ballquot.cli", "ballquot.config"] + [f"ballquot.{m}" for m in loads])
    assert out.splitlines()[-1] == repr(want)


def test_a_refused_group_loads_no_dimension_layer():
    out = run_cold("import contextlib, io, sys\n"
                   "from ballquot.cli import main\n"
                   "with contextlib.redirect_stderr(io.StringIO()):\n"
                   "    code = main(['dims', '--group', 'nope', '--weight', '3'])\n"
                   "print(code, sorted(m for m in sys.modules if m.startswith('ballquot.')))\n")
    assert out.splitlines()[-1] == "2 ['ballquot.cli', 'ballquot.config']"


def test_the_cli_groups_are_the_quotients_of_singularities():
    from ballquot import cli, singularities
    assert cli.GROUPS == tuple(singularities.QUOTIENTS)


@pytest.mark.parametrize("argv, opens", [
    (["report"], []),
    (["dims", "--group", "gamma_tilde", "--weight", "3"], []),
], ids=["report", "dims"])
def test_a_cold_run_opens_no_class_table(argv, opens):
    """The class data is built from the singular points and the fibers are
    `classifier.FIBRATIONS`: no run reads a package JSON file."""
    out = run_cold("import contextlib, io, os, sys\n"
                   "opened = []\n"
                   "def hook(event, args):\n"
                   "    if event == 'open' and str(args[0]).endswith('.json'):\n"
                   "        opened.append(os.path.basename(args[0]))\n"
                   "sys.addaudithook(hook)\n"
                   "from ballquot.cli import main\n"
                   "with contextlib.redirect_stdout(io.StringIO()):\n"
                   f"    assert main({argv!r}) == 0\n"
                   "print(opened)\n")
    assert out.splitlines()[-1] == repr(opens)


def test_a_cold_report_inverts_one_field_element_the_rational_3():
    """The report's one field inverse is of nrd(b) = 3, behind b^-1: the traffic
    for which `CycElt.inverse` is the plain product of the Galois conjugates.
    A change that adds inverses updates this pin."""
    out = run_cold("import contextlib, io\n"
                   "from ballquot.cyclotomic import CycElt\n"
                   "calls, inverse = [], CycElt.inverse\n"
                   "def spy(a):\n"
                   "    calls.append(a)\n"
                   "    return inverse(a)\n"
                   "CycElt.inverse = spy\n"
                   "from ballquot.cli import main\n"
                   "with contextlib.redirect_stdout(io.StringIO()):\n"
                   "    assert main(['report']) == 0\n"
                   "print(calls)\n")
    assert out.splitlines()[-1] == repr([CycElt.rational(7, 3)])


def test_importing_the_algebra_and_the_report_makes_no_element_and_no_kernel_call():
    """Import time builds no field element, no algebra element and calls no
    kernel: work moved there would hide in a benchmark's set-up time."""
    out = run_cold("import gc\n"
                   "from ballquot import cyclotomic as cy\n"
                   "calls = []\n"
                   "def spy(name, f):\n"
                   "    def wrapped(*args, **kwargs):\n"
                   "        calls.append(name)\n"
                   "        return f(*args, **kwargs)\n"
                   "    return wrapped\n"
                   # between them, the slot setter and `__init__` build every element
                   "cy.CycElt._set = classmethod(spy('CycElt', cy.CycElt._set.__func__))\n"
                   "cy.CycElt.__init__ = spy('CycElt', cy.CycElt.__init__)\n"
                   "cy.convolve = spy('convolve', cy.convolve)\n"
                   "cy.fold = spy('fold', cy.fold)\n"
                   "from ballquot import cyclic_algebra, order_arithmetic, report\n"
                   "kept = [type(o).__name__ for o in gc.get_objects()\n"
                   "        if isinstance(o, (cy.CycElt, cyclic_algebra.AlgElt))]\n"
                   "print(calls, kept)\n")
    assert out.splitlines()[-1] == "[] []"


def test_a_cold_process_inverts_b_once_for_the_stable_order_and_iota_b():
    """`iota_b_stable` and `iota_b` share the one cached, iota-checked b^-1."""
    out = run_cold("from ballquot.cyclic_algebra import AlgElt, b_element\n"
                   "from ballquot.order_arithmetic import OrderBasis\n"
                   "calls, inverse = [], AlgElt.inverse\n"
                   "def spy(x):\n"
                   "    calls.append(x)\n"
                   "    return inverse(x)\n"
                   "AlgElt.inverse = spy\n"
                   "x = OrderBasis.iota_b_stable().elements[4]\n"
                   "x.iota_b(b_element())\n"
                   "print(calls == [b_element()])\n")
    assert out.splitlines()[-1] == "True"


def test_the_order_layers_load_no_input_layer():
    out = run_cold("import sys\n"
                   "import ballquot.order_arithmetic\n"
                   "print(sorted(m for m in sys.modules if m.startswith('ballquot')))\n")
    assert "ballquot.config" not in out and "ballquot.order_arithmetic" in out


BAD_FACTOR = {"local_factors": {"2": 3.5, "7": "1"}}


@pytest.mark.parametrize("argv", [
    ["volume", "--config", BAD_FACTOR],
    ["report", "--config", BAD_FACTOR],
    ["lvalue", "--weight", "402"],
    ["resolve", "100000007", "100000006"],
    ["dims", "--group", "nope", "--weight", "3"],
    ["heights", {**HEIGHTS, "euler": 0.5}],
    ["classify", {**CLASSIFY, "c2": 3.0}],
], ids=lambda argv: argv[0])
def test_every_command_reports_bad_input_as_a_config_error(tmp_path, argv):
    """Each command raises the `ConfigError` that `main` catches, though it
    imports its modules only when it runs."""
    argv = [a if isinstance(a, str) else _write_json(tmp_path, a) for a in argv]
    done = run_python("-m", "ballquot.cli", *argv, check=False)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("config error: ") and done.stderr.count("\n") == 1


@pytest.mark.parametrize("command, doc, key", [
    ("heights", HEIGHTS, "points"),
    ("heights", HEIGHTS, "euler"),
    ("heights", HEIGHTS, "signature"),
    ("classify", CLASSIFY, "c2"),
], ids=["points", "euler", "signature", "c2"])
def test_a_missing_required_key_is_a_config_error_that_names_it(tmp_path, command, doc, key):
    path = _write_json(tmp_path, {k: v for k, v in doc.items() if k != key})
    done = run_python("-m", "ballquot.cli", command, path, check=False)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"config error: {path} has no key {key!r}\n"


def test_the_report_names_the_input_layer_of_config():
    assert report.DEFAULT_CONFIG is config.DEFAULT_CONFIG
    assert report.load_config is config.load_config


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


def test_a_cold_report_hashes_without_hashlib():
    """The report's one sha256 is the interpreter's built-in one, which does
    not load OpenSSL."""
    out = run_cold("import contextlib, io, sys\n"
                   "from ballquot.cli import main\n"
                   "with contextlib.redirect_stdout(io.StringIO()):\n"
                   "    code = main(['report'])\n"
                   "print(code, [m for m in ('hashlib', '_hashlib') if m in sys.modules])\n")
    assert out.splitlines()[-1] == "0 []"


def test_the_timestamp_still_comes_with_the_report():
    out = run_cold("from ballquot.cli import main\n"
                   "main(['report', '--timestamp'])\n")
    doc = json.loads(out)
    assert doc["generated_at"].endswith("+00:00")
    assert doc["report"]["metadata"]["entry_count"] == len(doc["report"]["entries"])
