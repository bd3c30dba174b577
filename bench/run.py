"""The ballquot benchmark.

    python3 bench/run.py --workload report_cli|order_lattice|galois_dims|all
                         --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from `src`.
Workloads (see README.md for why each exists):

- report_cli: one pass is one fresh `ballquot report --format json` process
  with the default config (`cli_pass.py`, which runs `python -m ballquot.cli`);
- order_lattice: order arithmetic over Q(zeta_7) on O and b^-1*O*b, with
  seeded random elements of b^-1*O*b;
- galois_dims: `dimension.dimension` for both class datasets, all 12
  Galois conjugates over Q(zeta_21), weights 2..5.

Every pass runs in a fresh process, started one at a time.  With
`--trace 0` a run repeats rounds for `--seconds` seconds and reports the
end-to-end metrics `wall_s`, `setup_s` and `peak_rss_mb` as medians over
its rounds; the times are scaled to the reference speed, which the machine's
speed is sampled against while each pass runs (`speed.py`).  With `--trace 1` it makes one untraced and one traced pass of
every workload, whatever `--workload` names, and reports the per-layer
metrics of all three (their names start with the workload).  Every output
is checked; the last line of stdout is the JSON result, and the exit code is
0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import mpmath

import references as ref
import speed
from tracing import TraceSummary

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("report_cli", "order_lattice", "galois_dims")
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 150

# A fresh interpreter importing the CLI: the set-up a `ballquot report` pays
# before it starts work.  It prints when it was ready, the import time alone,
# and the default config (for the config_hash check).
PROBE = """\
import time
t0 = time.perf_counter()
import ballquot.cli
ready = time.perf_counter()
import json
from ballquot.report import DEFAULT_CONFIG
print(json.dumps({"ready": ready, "import_s": ready - t0, "config": DEFAULT_CONFIG}))
"""

FLAGGED = {"l_value_printed_constant", "order_discriminant", "iota_b_invariance", "dim_tilde_k3"}
ORDER_DISCRIMINANT = 2 ** 6 * 7 ** 3


class Child:
    """A finished child process: output, wall time from spawn to exit, peak RSS."""

    def __init__(self, argv: list[str]):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.spawned = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        err: list[bytes] = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        try:
            self.stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            self.exited = perf_counter()
            self.wall_s = self.exited - self.spawned
        finally:
            watchdog.cancel()
            reader.join()
            proc.stdout.close()
            proc.stderr.close()
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.stderr = err[0].decode(errors="replace") if err else ""
        self.peak_rss_mb = usage.ru_maxrss / 1024  # Linux reports KiB

    def json(self) -> dict | None:
        try:
            return json.loads(self.stdout.decode().strip().splitlines()[-1])
        except (ValueError, IndexError):
            return None


def worker(workload: str, seed: int, pass_index: int, mode: str = "plain",
           micro: bool = False) -> Child:
    argv = [sys.executable, str(BENCH / "worker.py"), workload, "--seed", str(seed),
            "--pass", str(pass_index), "--mode", mode]
    return Child(argv + (["--micro"] if micro else []))


def pass_seconds(out: dict) -> float:
    """Unscaled wall time of a worker's operations, without its speed samples."""
    return out["end"] - out["ready"] - sum(end - start for start, end, _ in out["samples"])


@dataclass
class Round:
    """One measured pass: its metrics, operation counts and check failures.
    Times are scaled to the reference speed (`speed.py`)."""

    wall_s: float = math.nan
    setup_s: float = math.nan
    peak_rss_mb: float = math.nan
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    unscaled_wall_s: float = math.nan


# ---------------------------------------------------------------------------
# report_cli

def report_config_hash(entries: list, config: dict) -> str:
    body = json.dumps({"entries": entries, "config": json.dumps(config, sort_keys=True)},
                      sort_keys=True, default=str)
    return hashlib.sha256(body.encode()).hexdigest()


def check_report(code: int, text: str, config: dict) -> list[str]:
    problems = []
    if code != 0:
        problems.append(f"report exited {code}")
    body = json.loads(text)["report"]
    entries = body["entries"]
    for e in entries:
        if e["status"] == "mismatch":
            problems.append(f"{e['id']}: mismatch")
        elif (e["status"] == "match" and e["expected"] != e["computed"]
              and e["id"] not in OWN_CRITERION):
            problems.append(f"{e['id']}: status match but expected != computed")
    by_id = {e["id"]: e for e in entries}
    # two entries match by a criterion of their own, checked here
    for entry_id, own in OWN_CRITERION.items():
        problems += own(by_id[entry_id]) if entry_id in by_id else [f"{entry_id} missing"]
    for entry_id in sorted(FLAGGED):
        status = by_id.get(entry_id, {}).get("status")
        if status != "flagged":
            problems.append(f"{entry_id}: expected flagged, got {status}")
    if body["metadata"].get("config_hash") != report_config_hash(entries, config):
        problems.append("config_hash does not match the entries and the default config")
    return problems


def check_l_value(entry: dict) -> list[str]:
    """The closed form and the printed series value both agree with mpmath's L(3, chi_-7)."""
    series = re.fullmatch(r"series (\S+) \+- (\S+)", entry["expected"])
    closed = re.fullmatch(r"(-?\d+)/(\d+) \* pi\^3 \* 7\^\(1/2\)", entry["computed"])
    if not (series and closed):
        return [f"l_value_closed_form: cannot read {entry['expected']!r} / {entry['computed']!r}"]
    with mpmath.workdps(ref.DPS):
        exact = ref.dirichlet_L(3, -7)
        value = mpmath.mpf(int(closed[1])) / int(closed[2]) * mpmath.pi ** 3 * mpmath.sqrt(7)
        ok = (ref.close(value, exact, 1e-20)
              and abs(mpmath.mpf(series[1]) - exact) <= mpmath.mpf(series[2]) + 1e-12)
    return [] if ok else [f"l_value_closed_form: {entry['computed']} is not L(3, chi_-7) = {exact}"]


def check_branch_solver(entry: dict) -> list[str]:
    """A unique solution, whose points with the known (7, 3) point satisfy both
    height equations of the normalizer quotient, in plain Fractions."""
    found = re.fullmatch(r"1 solution\(s\): (\d+) x \[(.*)\]", entry["computed"])
    if not found:
        return [f"branch_solver: {entry['computed']}"]
    points = [(int(n), int(q)) for n, q in re.findall(r"\((\d+), (\d+)\)", found[2])]
    if len(points) != int(found[1]):
        return [f"branch_solver: {entry['computed']}"]
    residuals = ref.height_residuals(Fraction(3), Fraction(1), [(7, 3)] + points,
                                     Fraction(1, 7), Fraction(1, 21))
    return [] if residuals == (0, 0) else [f"branch_solver: {points} miss the height equations"]


OWN_CRITERION = {"l_value_closed_form": check_l_value, "branch_solver": check_branch_solver}


# ---------------------------------------------------------------------------
# workloads: the parent side of each, which runs its passes and checks them

def _frac_vec(v) -> list[Fraction]:
    return [Fraction(c) for c in v]


def _alg(a) -> list[list[Fraction]]:
    return [_frac_vec(c) for c in a]


class Workload:
    """Parent side of a workload: runs its passes in worker processes and
    checks their outputs."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        warm = Child([sys.executable, "-c", PROBE])  # also compiles the bytecode once
        self.config = warm.json()["config"]

    def round(self, index: int) -> Round:
        return self.read(worker(self.name, self.seed, index))

    def read(self, child: Child) -> Round:
        r = Round()
        out = child.json()
        if out is None:
            r.attempted = r.failed = 1
            print(f"{self.name} worker failed: {child.stderr[-2000:]}", file=sys.stderr)
            return r
        samples = out["samples"]
        r.setup_s = (out["ready"] - child.spawned) * speed.REFERENCE_S / samples[0][2]
        r.wall_s = speed.scaled_time(out["ready"], out["end"], samples)
        r.unscaled_wall_s = pass_seconds(out)
        r.peak_rss_mb = child.peak_rss_mb
        r.attempted = len(out["results"])
        errors = [f"{res['op']}: {res['error']}" for res in out["results"] if res.get("error")]
        r.failed = len(errors)
        for e in errors[:3]:
            print(f"{self.name} operation failed: {e}", file=sys.stderr)
        r.problems = self.check(out)
        return r

    def check(self, out: dict) -> list[str]:
        raise NotImplementedError


class ReportCli(Workload):
    """A pass is a `ballquot report` process; the traced run uses the worker."""

    name = "report_cli"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.body: bytes | None = None

    def round(self, index: int) -> Round:
        r = Round(attempted=1)
        probe = Child([sys.executable, "-c", PROBE])
        cli = Child([sys.executable, str(BENCH / "cli_pass.py"), "report", "--format", "json"])
        r.peak_rss_mb = cli.peak_rss_mb
        try:
            samples = json.loads(cli.stderr.strip().splitlines()[-1])
            r.wall_s = speed.scaled_time(cli.spawned, cli.exited, samples)
            r.unscaled_wall_s = cli.wall_s - sum(end - start for start, end, _ in samples)
            r.setup_s = (probe.json()["ready"] - probe.spawned) * speed.REFERENCE_S / samples[0][2]
            r.problems = check_report(cli.returncode, cli.stdout.decode(), self.config)
        except (ValueError, KeyError, IndexError, TypeError) as e:
            # a failed operation, counted in `failed`; `correct` speaks of the others
            r.failed, r.problems = 1, []
            print(f"report_cli pass failed ({e}): {cli.stderr[-500:]}", file=sys.stderr)
            return r
        if self.body is not None and cli.stdout != self.body:
            r.problems.append("report JSON differs between passes")
        self.body = cli.stdout
        return r

    def check(self, out: dict) -> list[str]:
        res = out["results"][0]
        return check_report(*res["value"], self.config) if "value" in res else []


class OrderLattice(Workload):
    name = "order_lattice"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.emb = ref.Embedding()
        o_mats = [self.emb.matrix(e) for e in ref.order_O()]
        b = self.emb.matrix(ref.element_b())
        b_inv = ref.inverse(b)
        self.nrd_b = ref.det(b)
        self.s_mats = [ref.matmul(b_inv, ref.matmul(e, b)) for e in o_mats]
        self.gram_O = self.emb.gram_abs_det(o_mats)
        self.gram_S = self.emb.gram_abs_det(self.s_mats)

    def check(self, out: dict) -> list[str]:
        problems = []
        emb = self.emb
        for name, val in (("gram O", self.gram_O), ("gram b^-1*O*b", self.gram_S)):
            if not ref.close(val, ORDER_DISCRIMINANT):
                problems.append(f"reference {name} |det| = {val}, not 2^6*7^3")
        if not ref.close(self.nrd_b, 3):
            problems.append(f"reference nrd(b) = {self.nrd_b}, not 3")
        s_basis = [_alg(e) for e in out["inputs"]["S"]]
        s_mats = [emb.matrix(e) for e in s_basis]
        if not all(ref.close(a, b) for a, b in zip(s_mats, self.s_mats)):
            problems.append("iota_b_stable() basis is not b^-1*e_i*b numerically")
        values = {}
        for res in out["results"]:
            if "value" in res:
                values.setdefault(res["op"], []).append(res["value"])

        for d in values.get("discriminant_O", []) + values.get("discriminant_S", []):
            if d["abs_value"] != ORDER_DISCRIMINANT:
                problems.append(f"discriminant |det| = {d['abs_value']}")
        dets = [d["determinant"] for d in values.get("discriminant_O", []) + values.get("discriminant_S", [])]
        if len(set(map(tuple, dets))) > 1:
            problems.append("the two orders' Gram determinants differ")
        if values.get("invariant_O", [False]) != [False]:
            problems.append("O reported iota_b-stable")
        if values.get("invariant_S", [True]) != [True]:
            problems.append("b^-1*O*b reported not iota_b-stable")
        for rep in values.get("report_O", []):
            if (rep["invariant"] or rep["denominator_primes"] != [3]
                    or rep["invariant_away_from"] != [3]
                    or not (rep["b_in_order"] and rep["adjugate_of_b_in_order"])):
                problems.append(f"O does not fail stability exactly at 3: {rep}")
            if _frac_vec(rep["reduced_norm_of_b"]) != [3, 0, 0, 0, 0, 0]:
                problems.append(f"nrd(b) = {rep['reduced_norm_of_b']}")

        def in_order(z, coords, what):
            pairs = [ref.K_pair(_frac_vec(c)) for c in coords]
            if None in pairs:
                problems.append(f"{what}: a coordinate lies outside K")
                return
            if any(p.denominator != 1 or q.denominator != 1 for p, q in pairs):
                problems.append(f"{what}: not in b^-1*O*b")
            if ref.combine(s_basis, pairs) != z:
                problems.append(f"{what}: sum c_k*e_k does not rebuild the element")

        products = iter(values.get("basis_product", []))
        for i in range(9):
            for j in range(9):
                res = next(products, None)
                if res is None:
                    continue
                z = _alg(res["z"])
                if not ref.close(emb.matrix(z), ref.matmul(s_mats[i], s_mats[j])):
                    problems.append(f"basis product {i}*{j} disagrees with the matrix product")
                in_order(z, res["coords"], f"basis product {i}*{j}")
        pairs = [(_alg(x), _alg(y)) for x, y in out["inputs"]["pairs"]]
        for (x, y), res in zip(pairs, values.get("product", [])):
            z = _alg(res["z"])
            if not ref.close(emb.matrix(z), ref.matmul(emb.matrix(x), emb.matrix(y))):
                problems.append("random product disagrees with the matrix product")
            in_order(z, res["coords"], "random product")
        for (x, _), res in zip(pairs, values.get("involution", [])):
            w = _alg(res["z"])
            if _alg(res["twice"]) != x:
                problems.append("iota_b(iota_b(x)) != x")
            mx, mw = emb.matrix(x), emb.matrix(w)
            with mpmath.workdps(ref.DPS):
                if not (ref.close(ref.trace(mw), mpmath.conj(ref.trace(mx)))
                        and ref.close(ref.det(mw), mpmath.conj(ref.det(mx)))):
                    problems.append("iota_b(x) does not conjugate trd and nrd")
            in_order(w, res["coords"], "iota_b image")
        return problems


class GaloisDims(Workload):
    name = "galois_dims"

    def __init__(self, seed: int):
        super().__init__(seed)
        data = ROOT / "src" / "ballquot" / "data"
        self.raw = {label: ref.load_classes(data / f"classes_{label}.json")
                    for label in ("gamma", "gamma_tilde")}
        self.expected: dict = {}

    def reference(self, label: str, s: int, k: int):
        key = (label, s, k)
        if key not in self.expected:
            self.expected[key] = ref.class_sum(self.raw[label], s, k)
        return self.expected[key]

    def check(self, out: dict) -> list[str]:
        problems = []
        by_weight: dict = {}
        for res in out["results"]:
            if "value" not in res:
                continue
            label, s, k = res["op"].split(":")
            s, k = int(s), int(k)
            value = self.reference(label, s, k)
            nearest = round(float(value.real))
            if not (abs(value.imag) < 1e-9 and abs(value.real - nearest) < 1e-9):
                problems.append(f"reference class sum {label} s={s} k={k} is {value}")
            if res["value"] != nearest:
                problems.append(f"dimension {label} s={s} k={k}: {res['value']} != {nearest}")
            by_weight.setdefault((label, k), set()).add(res["value"])
        units = len(out["inputs"]["units"])
        for (label, k), vals in sorted(by_weight.items()):
            if len(vals) != 1:
                problems.append(f"{label} k={k} differs across conjugates: {sorted(vals)}")
        if units != 12:
            problems.append(f"{units} conjugates covered, not 12")
        return problems


WORKLOAD_TYPES = {"report_cli": ReportCli, "order_lattice": OrderLattice, "galois_dims": GaloisDims}


# ---------------------------------------------------------------------------
# end-to-end run

def measure(workload: str, seed: int, seconds: float) -> tuple[dict, int, int, list[str]]:
    runner = WORKLOAD_TYPES[workload](seed)
    rounds: list[Round] = []
    start = perf_counter()
    longest = 0.0
    while True:
        t0 = perf_counter()
        rounds.append(runner.round(len(rounds)))
        longest = max(longest, perf_counter() - t0)
        if len(rounds) >= MIN_ROUNDS and perf_counter() - start + longest > seconds:
            break
    ok = [r for r in rounds if r.failed < r.attempted]
    metrics = {
        "wall_s": {"value": statistics.median(r.wall_s for r in ok), "unit": "s"},
        "setup_s": {"value": statistics.median(r.setup_s for r in ok), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r.peak_rss_mb for r in ok), "unit": "MB"},
    } if ok else {}
    problems = [p for r in rounds for p in r.problems]
    print(f"{workload}: {len(rounds)} rounds, " + ", ".join(
        f"{k} {v['value']:.4f} {v['unit']}" for k, v in metrics.items())
        + (f" (unscaled wall_s {statistics.median(r.unscaled_wall_s for r in ok):.4f} s)"
           if ok else "")
        + f"; attempted {sum(r.attempted for r in rounds)}, failed {sum(r.failed for r in rounds)}")
    return (metrics, sum(r.attempted for r in rounds), sum(r.failed for r in rounds), problems)


# ---------------------------------------------------------------------------
# traced run

CYC_MUL = ("cyclotomic.CycElt.__mul__", "cyclotomic.CycElt.__rmul__")

# (metric, kind, argument): kinds read the trace summary (count, self, layer,
# site, max_arg) or a value measured outside it (value).
LAYER_METRICS = {
    "report_cli": [
        ("cyclotomic.mul_count", "count", CYC_MUL),
        ("cyclotomic.mul_self_s", "self", CYC_MUL),
        ("cyclotomic.sign_count", "count", ("cyclotomic.CycElt.sign",)),
        ("cyclotomic.sign_max_prec_bits", "max_arg", "cyclotomic.CycElt.interval"),
        ("cyclic_algebra.alpha_count", "site", "cyclic_algebra.alpha"),
        ("order_arithmetic.coordinates_count", "count", ("order_arithmetic.OrderBasis.coordinates",)),
        ("dimension.dimension_count", "count", ("dimension.dimension",)),
        ("singularities.solve_branch_data_s", "value", "singularities.solve_branch_data"),
        ("report.run_all_s", "value", "report.run_all"),
        ("report.to_json_s", "value", "report.to_json"),
        ("cli.import_s", "value", "cli.import_s"),
        ("cli.overhead_s", "value", "cli.overhead_s"),
    ] + [(f"{layer}.self_s", "layer", layer) for layer in (
        "cyclotomic", "matrix3", "cyclic_algebra", "order_arithmetic", "singularities",
        "dimension", "lfunctions", "hermitian", "symreal", "classifier", "report", "cli")],
    "order_lattice": [
        ("cyclotomic.mul_count", "count", CYC_MUL),
        ("cyclotomic.mul_self_s", "self", CYC_MUL),
        ("cyclotomic.inverse_count", "count", ("cyclotomic.CycElt.inverse",)),
        ("cyclotomic.galois_count", "count", ("cyclotomic.CycElt.galois",)),
        ("cyclotomic.mul7_us", "value", "mul7_us"),
        ("cyclotomic.inverse7_us", "value", "inverse7_us"),
        ("matrix3.det_count", "count", ("matrix3.det",)),
        ("matrix3.det_self_s", "self", ("matrix3.det",)),
        ("matrix3.inverse_count", "count", ("matrix3.inverse",)),
        ("cyclic_algebra.alpha_count", "site", "cyclic_algebra.alpha"),
        ("order_arithmetic.coordinates_count", "count", ("order_arithmetic.OrderBasis.coordinates",)),
        ("order_arithmetic.coordinates_self_s", "self", ("order_arithmetic.OrderBasis.coordinates",)),
        ("order_arithmetic.gram_matrix_self_s", "self", ("order_arithmetic.gram_matrix",)),
        ("dimension.dimension_count", "count", ("dimension.dimension",)),
        ("singularities.solve_branch_data_count", "count", ("singularities.solve_branch_data",)),
    ] + [(f"cyclic_algebra.{op}_{kind}", kind.replace("_s", ""), (f"cyclic_algebra.AlgElt.{m}",))
         for op, m in (("mul", "__mul__"), ("iota", "iota"), ("inverse", "inverse"),
                       ("iota_b", "iota_b"))
         for kind in ("count", "self_s")
         ] + [(f"{layer}.self_s", "layer", layer)
              for layer in ("cyclotomic", "matrix3", "cyclic_algebra", "order_arithmetic")],
    "galois_dims": [
        ("cyclotomic.mul_count", "count", CYC_MUL),
        ("cyclotomic.mul_self_s", "self", CYC_MUL),
        ("cyclotomic.inverse_count", "count", ("cyclotomic.CycElt.inverse",)),
        ("cyclotomic.inverse_self_s", "self", ("cyclotomic.CycElt.inverse",)),
        ("cyclotomic.galois_count", "count", ("cyclotomic.CycElt.galois",)),
        ("cyclotomic.galois_self_s", "self", ("cyclotomic.CycElt.galois",)),
        ("cyclotomic.mul21_us", "value", "mul21_us"),
        ("cyclotomic.inverse21_us", "value", "inverse21_us"),
        ("dimension.dimension_count", "count", ("dimension.dimension",)),
        ("dimension.dimension_self_s", "self", ("dimension.dimension",)),
        ("dimension.R_coefficient_self_s", "self", ("dimension.R_coefficient",)),
        ("cyclic_algebra.mul_count", "count", ("cyclic_algebra.AlgElt.__mul__",)),
        ("order_arithmetic.coordinates_count", "count", ("order_arithmetic.OrderBasis.coordinates",)),
        ("singularities.solve_branch_data_count", "count", ("singularities.solve_branch_data",)),
    ] + [(f"{layer}.self_s", "layer", layer) for layer in ("cyclotomic", "dimension")],
}


def layer_metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, as BENCHMARK.json lists them."""
    names = []
    for workload in WORKLOADS:
        for metric, kind, _ in LAYER_METRICS[workload]:
            unit = ("us" if metric.endswith("_us") else "bits" if metric.endswith("_bits")
                    else "count" if kind in ("count", "site") else "s")
            names.append((f"{workload}.{metric}", unit))
        names.append((f"{workload}.trace.overhead_s", "s"))
    return names


def traced(seed: int) -> tuple[dict, int, int, list[str]]:
    """One untraced and one traced pass per workload; per-layer metrics."""
    values: dict[str, float] = {}
    attempted = failed = 0
    problems: list[str] = []
    for workload in WORKLOADS:
        runner = WORKLOAD_TYPES[workload](seed)
        extra: dict[str, float] = {}
        if workload == "report_cli":
            probes = [Child([sys.executable, "-c", PROBE]).json()["import_s"] for _ in range(3)]
            extra["cli.import_s"] = statistics.median(probes)
            plain = worker(workload, seed, 0, mode="timers")
            extra.update((plain.json() or {}).get("timers", {}))
            # the worker process runs cli.main in-process: spawn to exit minus run_all
            extra["cli.overhead_s"] = plain.wall_s - extra.get("report.run_all", math.nan)
        else:
            plain = worker(workload, seed, 0, micro=True)
            micro = (plain.json() or {}).get("micro", {})
            extra.update(micro)
        traced_child = worker(workload, seed, 0, mode="traced")
        for child in (plain, traced_child):
            r = runner.read(child)
            attempted, failed, problems = attempted + r.attempted, failed + r.failed, problems + r.problems
        out_plain, out_traced = plain.json(), traced_child.json()
        if out_plain is None or out_traced is None:
            problems.append(f"{workload}: a traced-run worker failed: {traced_child.stderr[-2000:]}")
            continue
        summary = TraceSummary(out_traced["trace"])
        for metric, kind, arg in LAYER_METRICS[workload]:
            if kind == "count":
                v = sum(summary.count(o) for o in arg)
            elif kind == "self":
                v = sum(summary.self_s(o) for o in arg)
            elif kind == "layer":
                v = summary.layer_self_s(arg)
            elif kind == "site":
                v = summary.site_count(arg)
            elif kind == "max_arg":
                v = summary.max_arg(arg)
            else:
                v = extra.get(arg, math.nan)
            values[f"{workload}.{metric}"] = v
        values[f"{workload}.trace.overhead_s"] = (
            speed.scaled_time(out_traced["ready"], out_traced["end"], out_traced["samples"])
            - speed.scaled_time(out_plain["ready"], out_plain["end"], out_plain["samples"]))
        print(f"{workload}: traced pass {pass_seconds(out_traced):.3f} s, "
              f"untraced {pass_seconds(out_plain):.3f} s")
    metrics = {name: {"value": values.get(name, math.nan), "unit": unit}
               for name, unit in layer_metric_names()}
    return metrics, attempted, failed, problems


# ---------------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "ballquot" / "__init__.py").is_file():
        print(f"error: no ballquot source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    failures = ref.self_check()
    if failures:
        print(f"error: reference self-check failed: {failures}", file=sys.stderr)
        return 2

    if args.trace:
        metrics, attempted, failed, problems = traced(args.seed)
    else:
        metrics, attempted, failed, problems = {}, 0, 0, []
        for workload in (WORKLOADS if args.workload == "all" else (args.workload,)):
            m, a, f, p = measure(workload, args.seed, args.seconds)
            prefix = f"{workload}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in m.items()})
            attempted, failed, problems = attempted + a, failed + f, problems + p
    for p in problems[:50]:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
