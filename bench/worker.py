"""One pass of a benchmark workload, in a fresh process.

    python3 bench/worker.py WORKLOAD --seed N --pass I [--mode plain|timers|traced] [--micro]

`run.py` starts it with `src` on PYTHONPATH, one process at a time.  A fresh
process per pass means no pass is answered from a cache an earlier pass
filled.  It prints one JSON line:

- `ready`: `time.perf_counter()` when set-up ended and the first timed
  operation began (CLOCK_MONOTONIC, comparable across processes on Linux);
- `end`: `time.perf_counter()` when the last operation ended, and `samples`:
  the machine's speed (`speed.timed_sample()`), taken right after `ready`,
  between operations every SAMPLE_EVERY_S of work, and at the end;
- `inputs` and `results`: what the parent checks, one result per operation,
  `{"error": ...}` for an operation that raised;
- `trace` (mode `traced`): the tracer summary; every public function and
  method of the program is wrapped;
- `timers` (mode `timers`, `report_cli` only): inclusive times of `run_all`,
  `to_json` and `solve_branch_data`, the only functions wrapped;
- `micro` (with `--micro`): isolated field operations on seeded operands.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import statistics
import sys
from fractions import Fraction
from time import perf_counter

import references as ref
from speed import timed_sample
from tracing import Tracer

# order_lattice inputs: elements sum_k (p_k + q_k*lambda) * s_k of b^-1*O*b
COEFF_RANGE = 3          # p_k, q_k drawn uniformly from [-3, 3]
RANDOM_PAIRS = 4         # (x, y) pairs per pass
# galois_dims inputs: weights 2..TOP_WEIGHT for all 12 conjugates s in (Z/21)^x
TOP_WEIGHT = 5
MICRO_CALLS = 40         # distinct seeded operands per isolated field operation
SAMPLE_EVERY_S = 0.2     # work between two samples of the machine's speed


def _cyc(c) -> list[str]:
    return [str(x) for x in c.coeffs]


def _alg(a) -> list[list[str]]:
    return [_cyc(a.x0), _cyc(a.x1), _cyc(a.x2)]


def _vec(a) -> list[list[Fraction]]:
    return [list(a.x0.coeffs), list(a.x1.coeffs), list(a.x2.coeffs)]


# ---------------------------------------------------------------------------
# workloads: each returns (inputs, [(name, thunk, serialize)])

def order_lattice(seed: int, pass_index: int):
    from ballquot import cyclic_algebra as ca
    from ballquot import order_arithmetic as oa
    from ballquot.cyclotomic import CycElt

    O = oa.OrderBasis.standard()
    S = oa.OrderBasis.iota_b_stable()
    b = ca.b_element()
    s_vecs = [_vec(e) for e in S.elements]
    rng = random.Random(f"order_lattice:{seed}:{pass_index}")

    def draw():
        pairs = [(rng.randint(-COEFF_RANGE, COEFF_RANGE), rng.randint(-COEFF_RANGE, COEFF_RANGE))
                 for _ in S.elements]
        return ca.AlgElt(*(CycElt(7, tuple(c)) for c in ref.combine(s_vecs, pairs)))

    pairs = [(draw(), draw()) for _ in range(RANDOM_PAIRS)]

    def disc(d):
        return {"determinant": _cyc(d["determinant"]), "abs_value": d["abs_value"]}

    def report(r):
        return {"invariant": r["invariant"], "denominator_primes": r["denominator_primes"],
                "reduced_norm_of_b": _cyc(r["reduced_norm_of_b"]),
                "b_in_order": r["b_in_order"], "adjugate_of_b_in_order": r["adjugate_of_b_in_order"],
                "invariant_away_from": r.get("invariant_away_from")}

    def member(z):
        return z, S.coordinates(z)

    def involution(x):
        w = x.iota_b(b)
        return w, S.coordinates(w), w.iota_b(b)

    def ser_member(r):
        return {"z": _alg(r[0]), "coords": [_cyc(c) for c in r[1]]}

    def ser_involution(r):
        return {"z": _alg(r[0]), "coords": [_cyc(c) for c in r[1]], "twice": _alg(r[2])}

    ops = [("discriminant_O", lambda: oa.discriminant(O), disc),
           ("discriminant_S", lambda: oa.discriminant(S), disc),
           ("invariant_O", lambda: oa.is_iota_b_invariant(O), bool),
           ("invariant_S", lambda: oa.is_iota_b_invariant(S), bool),
           ("report_O", lambda: oa.iota_b_invariance_report(O), report)]
    for ei in S.elements:
        for ej in S.elements:
            ops.append(("basis_product", lambda ei=ei, ej=ej: member(ei * ej), ser_member))
    for x, y in pairs:
        ops.append(("product", lambda x=x, y=y: member(x * y), ser_member))
        ops.append(("involution", lambda x=x: involution(x), ser_involution))
    inputs = {"S": [_alg(e) for e in S.elements],
              "pairs": [[_alg(x), _alg(y)] for x, y in pairs]}
    return inputs, ops


def galois_dims(seed: int, pass_index: int):
    from ballquot import dimension as dim

    datasets = [("gamma", dim.build_gamma_dataset()),
                ("gamma_tilde", dim.build_gamma_tilde_dataset())]
    units = [s for s in range(1, 21) if math.gcd(s, 21) == 1]
    random.Random(f"galois_dims:{seed}:{pass_index}").shuffle(units)
    conjugates: dict = {}

    def dimension(label, ds, s, k):
        if (label, s) not in conjugates:
            conjugates[(label, s)] = ds.conjugated(s)
        return dim.dimension(conjugates[(label, s)], k)

    ops = [(f"{label}:{s}:{k}", lambda label=label, ds=ds, s=s, k=k: dimension(label, ds, s, k), int)
           for label, ds in datasets for s in units for k in range(2, TOP_WEIGHT + 1)]
    return {"units": units, "weights": list(range(2, TOP_WEIGHT + 1))}, ops


def report_cli(seed: int, pass_index: int):
    from ballquot import cli

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["report", "--format", "json"])
        return code, out.getvalue()

    return {}, [("report", run, list)]


WORKLOADS = {"order_lattice": order_lattice, "galois_dims": galois_dims, "report_cli": report_cli}


# ---------------------------------------------------------------------------

def micro(modulus: int, seed: int) -> dict:
    """Median microseconds of one CycElt multiplication and inverse, each on
    distinct seeded operands so that no call can reuse an earlier result."""
    from ballquot.cyclotomic import CycElt, euler_phi

    rng = random.Random(f"micro:{modulus}:{seed}")

    def operand():
        while True:
            c = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                      for _ in range(euler_phi(modulus)))
            if any(c):
                return CycElt(modulus, c)

    def median_us(calls):
        times = []
        for call in calls:
            t0 = perf_counter()
            call()
            times.append(perf_counter() - t0)
        return statistics.median(times) * 1e6

    operands = [operand() for _ in range(3 * MICRO_CALLS)]
    muls = [lambda a=a, b=b: a * b for a, b in zip(operands[:MICRO_CALLS], operands[MICRO_CALLS:])]
    inverses = [lambda a=a: a.inverse() for a in operands[2 * MICRO_CALLS:]]
    return {f"mul{modulus}_us": median_us(muls), f"inverse{modulus}_us": median_us(inverses)}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass", dest="pass_index", type=int, default=0)
    ap.add_argument("--mode", choices=("plain", "timers", "traced"), default="plain")
    ap.add_argument("--micro", action="store_true")
    args = ap.parse_args()

    inputs, ops = WORKLOADS[args.workload](args.seed, args.pass_index)
    tracer = None
    if args.mode == "traced":
        import ballquot
        tracer = Tracer(arg_probes={"cyclotomic.CycElt.interval": 1})
        tracer.install(ballquot)
    elif args.mode == "timers":
        from ballquot import report, singularities
        tracer = Tracer()
        tracer.wrap(report, "run_all", "report.run_all")
        tracer.wrap(report.VerificationReport, "to_json", "report.to_json")
        tracer.wrap(singularities, "solve_branch_data", "singularities.solve_branch_data")

    values = []
    ready = perf_counter()
    samples = [timed_sample(3)]
    for _, thunk, _ in ops:
        try:
            values.append((thunk(), None))
        except Exception as e:  # an operation that raises counts as failed
            values.append((None, f"{type(e).__name__}: {e}"))
        if perf_counter() - samples[-1][1] >= SAMPLE_EVERY_S:
            samples.append(timed_sample(3))
    samples.append(timed_sample(3))
    end = perf_counter()

    results = [{"op": name, "error": err} if err else {"op": name, "value": ser(value)}
               for (name, _, ser), (value, err) in zip(ops, values)]
    out = {"ready": ready, "end": end, "samples": samples, "inputs": inputs, "results": results}
    if args.mode == "traced":
        out["trace"] = tracer.summary()
    elif args.mode == "timers":
        out["timers"] = {key: stat.inclusive_s for key, stat in tracer.stats.items()}
    if args.micro:
        out["micro"] = micro(7 if args.workload == "order_lattice" else 21, args.seed)
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
