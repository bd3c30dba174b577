"""Command-line interface.

Exit codes: 0 on success, 1 when a verification entry mismatches, 2 on bad
configuration or usage.

Only the input layer `config` is imported up front; each command imports the
modules it runs when it is dispatched, so `resolve` or `--help` loads no
algebra layer.
"""

from __future__ import annotations

import argparse
import sys

from .config import (ConfigError, decimal_key, exact_integer, exact_rational, load_config,
                     local_factors, read_object, required)

MAX_WEIGHT = 401
MAX_TERMS = 10**7
MAX_CHAIN = 10**6
# the labels of singularities.QUOTIENTS, copied so that a refused group loads no
# layer; `dims` builds group g with dimension.build_<g>_dataset
GROUPS = ("gamma", "gamma_tilde")


def _cmd_volume(args) -> int:
    from . import lfunctions as lf
    chi = lf.DirichletCharacter(-7)
    print(lf.covolume(lf.riemann_zeta(2), lf.dirichlet_L_value(3, chi),
                      local_factors(load_config(args.config))))
    return 0


def _cmd_lvalue(args) -> int:
    if args.weight > MAX_WEIGHT or args.terms > MAX_TERMS:
        raise ConfigError(f"need --weight <= {MAX_WEIGHT} and --terms <= {MAX_TERMS}")
    from . import lfunctions as lf
    chi = lf.DirichletCharacter(-7)
    val = lf.dirichlet_L_value(args.weight, chi)
    lines = [str(val)]
    if args.numeric:  # computed in full before anything is printed
        series, tail = lf.l_series_oracle(args.weight, chi, args.terms)
        lines += [f"closed form = {val.to_float():.15f}",
                  f"series      = {series:.15f} (tail bound {tail:.2e})"]
    print("\n".join(lines))
    return 0


def _cmd_resolve(args) -> int:
    from . import singularities as sg
    point = sg.CyclicSingularity(args.n, args.q)
    # one blow-up per chain entry, counted without building the chain
    if sg.resolve_invariants(sg.OrbifoldSurface(0, 0, (point,)))[2] > MAX_CHAIN:
        raise ConfigError(f"the chain of ({args.n},{args.q}) is longer than {MAX_CHAIN}")
    print("".join(f"({b})" for b in sg.hj_expand(point).self_intersections))
    return 0


def _cmd_heights(args) -> int:
    from . import singularities as sg
    data = read_object(args.file, args.file)
    raw = required(data, "points", args.file)
    if not isinstance(raw, list) or not all(isinstance(p, list) and len(p) == 2 for p in raw):
        raise ConfigError("points must be a list of [n, q] pairs")
    pts = tuple(sg.CyclicSingularity(exact_integer(n, "point order n"),
                                     exact_integer(q, "point weight q")) for n, q in raw)
    x = sg.OrbifoldSurface(exact_rational(required(data, "euler", args.file), "euler"),
                           exact_rational(required(data, "signature", args.file), "signature"),
                           pts)
    print(f"euler_height     {sg.euler_height(x)}")
    print(f"signature_height {sg.signature_height(x)}")
    e, s, blow = sg.resolve_invariants(x)
    print(f"resolution       ({e}, {s}, {blow})")
    return 0


def _cmd_dims(args) -> int:
    if args.group not in GROUPS:
        raise ConfigError(f"unknown group '{args.group}' (choose from {list(GROUPS)})")
    from . import dimension as dim
    build = getattr(dim, f"build_{args.group}_dataset")
    print(dim.dimension(build(), args.weight))
    return 0


def _cmd_classify(args) -> int:
    from . import classifier as cl
    data = read_object(args.file, args.file)
    raw = data.get("plurigenera", {})
    if not isinstance(raw, dict):
        raise ConfigError("plurigenera must be a JSON object")
    plur = {decimal_key(k, "plurigenus index"): exact_integer(v, f"plurigenus P_{k}")
            for k, v in raw.items()}
    minimal = data.get("minimal", True)
    if not isinstance(minimal, bool):
        raise ConfigError(f"minimal must be true or false, got {minimal!r}")
    if "minimal" in data and "signature" not in data:
        raise ConfigError("minimal describes a resolution, which needs its signature")
    c2 = exact_rational(required(data, "c2", args.file), "c2")
    q = exact_rational(data.get("q", 0), "q")
    sig = exact_rational(data.get("signature", 0), "signature")
    for what, value in [("c2", c2), ("q", q), ("signature", sig)]:
        if value.denominator != 1:
            raise ConfigError(f"{what} is an integer for a surface, got {value}")
    for what, dim in [("q", q), *((f"plurigenus P_{k}", v) for k, v in plur.items())]:
        if dim < 0:
            raise ConfigError(f"{what} is a dimension, so it cannot be negative, got {dim}")
    if "signature" in data:
        s = cl.invariants_from_resolution(c2, sig, q, plur, minimal=minimal)
    else:
        s = cl.ball_quotient_invariants(c2, q, plur)
    kod, trace = cl.kodaira_classify(s)
    print(f"kodaira_dimension     {'-infinity' if kod == -1 else kod}")
    print(f"chi                   {s.chi}")
    print(f"c1_squared            {s.c1_sq}")
    print(f"fake_projective_plane {cl.is_fake_projective_plane(s, kod)}")
    for k, reason in sorted(trace.items()):
        print(f"  excluded {'-infinity' if k == -1 else k}: {reason}")
    return 0


def _cmd_report(args) -> int:
    from . import report as rpt
    r = rpt.run_all(args.config)
    if args.format == "md":
        print(r.to_markdown())
    else:
        print(r.to_json(with_timestamp=args.timestamp))
    return r.exit_code()


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ballquot",
                                description="exact verification of arithmetic "
                                            "ball-quotient surface invariants")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("volume", help="covolume of the principal arithmetic group")
    sp.add_argument("--config", default=None)
    sp.set_defaults(func=_cmd_volume)

    sp = sub.add_parser("lvalue", help="special L-value in closed form")
    sp.add_argument("--weight", type=int, default=3,
                    help=f"n in L(n, chi), at most {MAX_WEIGHT}")
    sp.add_argument("--numeric", action="store_true",
                    help="also compare against the direct series")
    sp.add_argument("--terms", type=int, default=100000,
                    help=f"terms of the direct series, at most {MAX_TERMS}")
    sp.set_defaults(func=_cmd_lvalue)

    sp = sub.add_parser("resolve", help="resolution chain of a cyclic quotient point, "
                                        f"at most {MAX_CHAIN} entries")
    sp.add_argument("n", type=int)
    sp.add_argument("q", type=int)
    sp.set_defaults(func=_cmd_resolve)

    sp = sub.add_parser("heights", help="orbifold heights from a JSON description")
    sp.add_argument("file")
    sp.set_defaults(func=_cmd_heights)

    sp = sub.add_parser("dims", help="dimension of the weight-k form space")
    sp.add_argument("--group", required=True)
    sp.add_argument("--weight", type=int, required=True)
    sp.set_defaults(func=_cmd_dims)

    sp = sub.add_parser("classify", help="classify a surface from a JSON description")
    sp.add_argument("file")
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("report", help="run every verification and print the report")
    sp.add_argument("--format", choices=("json", "md"), default="json")
    sp.add_argument("--config", default=None)
    sp.add_argument("--timestamp", action="store_true",
                    help="include a generation timestamp (outside the hashed body)")
    sp.set_defaults(func=_cmd_report)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (OSError, KeyError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
