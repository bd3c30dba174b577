"""End-to-end verification pipeline and report assembly.

Every quantity the library derives is recomputed here and compared against
its reference value.  `VerificationReport.add` derives every status by one
rule: `match` when computed == expected (`derived-only` for an id in
`NO_REFERENCE`, which has no independent reference); `flagged` when computed
is the value `DEVIATIONS` pins for the id, one of README's "Known deviations"
whose note gives the evidence; otherwise `mismatch`, which forces a nonzero
exit.  One entry, `l_value_closed_form`, passes `agrees=` instead of
computed == expected: its closed form must lie within the tail and rounding
bound of the direct Dirichlet series printed as its expected value.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import __version__, read_data
from . import cyclic_algebra as ca
from . import hermitian
from . import matrix3 as m3
from . import order_arithmetic as oa
from . import lfunctions as lf
from . import singularities as sg
from . import dimension as dim
from . import classifier as cl
from .symreal import SymbolicReal
# the input layer, which `config` holds so that a command can load it alone;
# `report.ConfigError`, `report.load_config` and the rest still name it
from .config import ConfigError, DEFAULT_CONFIG, exact_integer, exact_rational, load_config


DEVIATIONS = {
    "l_value_printed_constant": "32/2401 * pi^3 * 7^(1/2)",
    "order_discriminant": "2^6 * 7^3",
    "iota_b_invariance": False,
    "dim_tilde_k3": 2,
}
NO_REFERENCE = {"hb_determinant"}


class VerificationReport:
    def __init__(self) -> None:
        self.entries: list[dict] = []
        self.metadata: dict = {}

    def add(self, entry_id: str, anchor: str, expected, computed,
            note: str | None = None, agrees: bool | None = None) -> None:
        if any(e["id"] == entry_id for e in self.entries):
            raise ValueError(f"duplicate entry id {entry_id}")
        if agrees is None:
            agrees = expected == computed
        if agrees:
            status = "derived-only" if entry_id in NO_REFERENCE else "match"
        elif entry_id in DEVIATIONS and computed == DEVIATIONS[entry_id]:
            status = "flagged"
        else:
            status = "mismatch"
        entry = {"id": entry_id, "paper_anchor": anchor,
                 "expected": expected, "computed": computed, "status": status}
        if note:
            entry["note"] = note
        self.entries.append(entry)

    def mismatches(self) -> list[dict]:
        return [e for e in self.entries if e["status"] == "mismatch"]

    def exit_code(self) -> int:
        return 1 if self.mismatches() else 0

    def body(self) -> dict:
        return {"entries": self.entries, "metadata": self.metadata}

    def to_json(self, with_timestamp: bool = False) -> str:
        doc = {"report": self.body()}
        if with_timestamp:
            from datetime import datetime, timezone
            doc["generated_at"] = datetime.now(timezone.utc).isoformat()
        return json.dumps(doc, indent=1, sort_keys=True, default=str)

    def to_markdown(self) -> str:
        lines = ["| id | status | expected | computed |",
                 "|----|--------|----------|----------|"]
        for e in self.entries:
            lines.append(f"| {e['id']} | {e['status']} | {e['expected']} "
                         f"| {e['computed']} |")
        lines.append("")
        lines.append(f"mismatches: {len(self.mismatches())}")
        return "\n".join(lines)


def _frac(x) -> str:
    return str(Fraction(x))


def run_all(config_path: str | None = None) -> VerificationReport:
    cfg = load_config(config_path)
    r = VerificationReport()

    # number-theoretic pipeline
    chi7 = lf.DirichletCharacter.kronecker(-7)
    b3 = lf.generalized_bernoulli(3, chi7)
    r.add("bernoulli_b3_chi7", "generalized Bernoulli number for the quadratic character mod 7",
          "48/7", _frac(b3))
    lval = lf.dirichlet_L_value(3, chi7)
    terms = 20000
    series, tail = lf.l_series_oracle(3, chi7, terms)
    # the tail is below 1/(2 terms^2); each term is one correctly rounded division and
    # fsum rounds once, so rounding adds under (sum |term| + |series|) 2^-53 < 4 * 2^-53
    radius = Fraction(1, 2 * terms ** 2) + Fraction(1, 2 ** 51)
    box, center = lval.interval(), Fraction(series)
    agrees = center - radius <= box.a and box.b <= center + radius
    r.add("l_value_closed_form", "special L-value at 3 for the character mod 7",
          f"series {series:.12f} +- {tail:.1e}", str(lval),
          note="closed form validated against the direct Dirichlet series",
          agrees=agrees)
    printed = SymbolicReal.term(Fraction(-7, 8 * 49), 3, 1)
    r.add("l_value_printed_constant", "printed closed-form constant for the same L-value",
          str(printed), str(lval),
          note=f"printed value evaluates to {printed.to_float():.6f}, series "
               f"gives {series:.6f}; the printed constant is inconsistent and not adopted")
    z2 = lf.riemann_zeta(2)
    r.add("zeta_2", "zeta value at 2", "1/6 * pi^2", str(z2))

    vol = lf.covolume_from_config(cfg, z2, lval)
    r.add("covolume", "covolume of the principal arithmetic group", "3/7", _frac(vol))
    idx = exact_integer(cfg["indices"]["congruence"], "indices.congruence")
    c2 = lf.euler_number_of_cover(vol, idx)
    r.add("euler_number_cover", "Euler number of the congruence cover", "3", _frac(c2))

    # algebra and forms
    div, witness = ca.is_division_algebra()
    r.add("division_algebra", "the cyclic algebra is a division algebra",
          True, div, note=witness["reason"])
    hb = hermitian.H_b()
    sig = hb.signature()
    r.add("hb_signature", "signature of the twisted hermitian form",
          "1 positive, 2 negative", f"{sig.positives} positive, {sig.negatives} negative")
    r.add("hb_determinant", "determinant of the twisted hermitian form", "3",
          str(m3.det(hb.entries)))
    r.add("hc_ball_vectors", "number of standard basis vectors inside the ball",
          1, sum(map(hermitian.H_c().in_ball, hermitian.standard_basis())))

    # order arithmetic
    factors = oa.discriminant()["factorization"] or {}
    r.add("order_discriminant", "Gram determinant ideal of the standard order basis",
          "2^6", " * ".join(f"{p}^{e}" for p, e in sorted(factors.items())),
          note="the 7^3 factor is the cube of the relative discriminant of the "
               "degree-3 extension picked up by the trace form; removing it "
               "leaves exactly 2^6")
    inv_report = oa.iota_b_invariance_report(oa.OrderBasis.standard())
    # False only with the documented evidence; any other failure reports what it found
    evidence = {k: inv_report[k] for k in
                ("denominator_primes", "b_in_order", "adjugate_of_b_in_order")}
    documented = evidence == {"denominator_primes": [3], "b_in_order": True,
                              "adjugate_of_b_in_order": True}
    r.add("iota_b_invariance", "stability of the order under the twisted involution",
          True, inv_report["invariant"] or (False if documented else evidence),
          note="the crossed-product order O fails exactly at the inert prime 3: "
               "nrd(b) = 3 has 3-adic valuation 1, not a multiple of 3, so b does not "
               "normalise O, which is maximal at 3 (failing basis indices "
               f"{inv_report['failing_basis_indices']}); O is preserved at every "
               "other completion since b and its adjugate lie in it.  b^3 "
               "normalises O, so the conjugate b^-1*O*b is stable, and the "
               "lattice uses that order")
    r.add("congruence_index", "index of the principal congruence subgroup", 7,
          oa.congruence_index(2, 3))
    tors = oa.torsion_orders()
    r.add("torsion_orders", "orders of torsion elements", "{1, 7}",
          "{" + ", ".join(str(t) for t in sorted(tors.allowed_orders)) + "}",
          note="; ".join(f"{k}: {v}" for k, v in sorted(tors.excluded.items())
                         if k in (2, 14)))
    r.add("torsion_free", "congruence subgroup mod the prime above 2 is torsion free",
          True, oa.torsion_free_check(2, 7))

    # singularities and heights
    c73 = sg.CyclicSingularity(7, 3)
    c32 = sg.CyclicSingularity(3, 2)
    r.add("hj_7_3", "resolution chain of the (7,3) point", "(-3, -2, -2)",
          str(sg.hj_expand(c73).self_intersections))
    r.add("hj_3_2", "resolution chain of the (3,2) point", "(-2, -2)",
          str(sg.hj_expand(c32).self_intersections))
    rot = sg.singularity_type_from_rotation(7, 1, 3)
    r.add("rotation_type", "singularity type of the order-7 rotation", "(7, 3)",
          f"({rot.n}, {rot.q})")
    r.add("dedekind_s_3_7", "Dedekind sum s(3,7)", "-1/14", _frac(sg.dedekind_sum(3, 7)))
    r.add("dedekind_s_2_3", "Dedekind sum s(2,3)", "-1/18", _frac(sg.dedekind_sum(2, 3)))
    r.add("defect_7_3", "signature defect of a (7,3) point", "2/7",
          _frac(sg.signature_defect(c73)))
    r.add("defect_3_2", "signature defect of a (3,2) point", "2/9",
          _frac(sg.signature_defect(c32)))

    xg = sg.OrbifoldSurface(Fraction(3), Fraction(1), (c73,) * 3)
    xgt = sg.OrbifoldSurface(Fraction(3), Fraction(1), (c73,) + (c32,) * 3)
    r.add("heights_quotient", "orbifold heights of the order-7 quotient",
          "(3/7, 1/7)", f"({sg.euler_height(xg)}, {sg.signature_height(xg)})")
    r.add("heights_normalizer_quotient", "orbifold heights of the normalizer quotient",
          "(1/7, 1/21)", f"({sg.euler_height(xgt)}, {sg.signature_height(xgt)})")
    r.add("cover_multiplicativity", "height multiplicativity for degrees 7, 3, 21",
          True, sg.check_cover_multiplicativity(Fraction(3), Fraction(1), xg, 7)
          and 3 * sg.euler_height(xgt) == sg.euler_height(xg)
          and 3 * sg.signature_height(xgt) == sg.signature_height(xg)
          and sg.check_cover_multiplicativity(Fraction(3), Fraction(1), xgt, 21))
    # keyed by group, like fibrations.json: e(Y) of each resolution is what its fibers sum to
    resolved = {"gamma": sg.resolve_invariants(xg), "gamma_tilde": sg.resolve_invariants(xgt)}
    r.add("resolution_quotient", "resolved invariants of the order-7 quotient",
          "(12, -8, 9)", str(tuple(map(str, resolved["gamma"]))).replace("'", ""))
    r.add("resolution_normalizer", "resolved invariants of the normalizer quotient",
          "(12, -8, 9)", str(tuple(map(str, resolved["gamma_tilde"]))).replace("'", ""))
    sols = sg.solve_branch_data(Fraction(3), Fraction(1), [c73],
                                Fraction(1, 7), Fraction(1, 21), 12)
    found = [(n, tuple(sorted((p.n, p.q) for p in pts))) for n, pts in sols]
    r.add("branch_solver", "unique extra branch data for the normalizer quotient",
          "1 solution(s): 3 x [(3, 2), (3, 2), (3, 2)]",
          f"{len(sols)} solution(s): " + "; ".join(
              f"{n} x {list(pts)}" for n, pts in found),
          note="the search is complete: the Euler budget is 2, so r extra points "
               "need sum 1/d_i = r - 2 with r in {3, 4}, which forces every "
               "order d <= 6 and makes the d <= 12 scan exhaustive")

    # dimension formula
    g = dim.build_gamma_dataset()
    gt = dim.build_gamma_tilde_dataset()
    r.add("dim_gamma_k2", "weight-2 dimension for the congruence group", 1,
          dim.dimension(g, 2))
    r.add("dim_gamma_k3", "weight-3 dimension for the congruence group", 4,
          dim.dimension(g, 3))
    r.add("dim_tilde_k2", "weight-2 dimension for the normalizer group", 1,
          dim.dimension(gt, 2))
    r.add("dim_tilde_k3", "weight-3 dimension for the normalizer group", 1,
          dim.dimension(gt, 3),
          note="the class sum gives 2 under every normalization matching the "
               "other three dimension targets; the printed value 1 is "
               "unreachable (see the ledger analysis), so the computed value "
               "is reported instead of forced")

    # classification
    fp = cl.ball_quotient_invariants(Fraction(3), Fraction(0), {2: 10, 3: 28})
    kod_fp, _ = cl.kodaira_classify(fp)
    r.add("fake_plane", "the smooth congruence quotient is a fake projective plane",
          True, cl.is_fake_projective_plane(fp, kod_fp))
    xg_inv = cl.invariants_from_resolution(Fraction(12), Fraction(-8), Fraction(0),
                                           {2: 1, 3: 4}, minimal=True)
    r.add("kodaira_resolution_quotient", "Kodaira dimension of the resolved quotient",
          1, cl.kodaira_classify(xg_inv)[0])
    xgt_inv = cl.invariants_from_resolution(Fraction(12), Fraction(-8), Fraction(0),
                                            {2: 1, 3: 1}, minimal=True)
    r.add("kodaira_resolution_normalizer",
          "Kodaira dimension of the resolved normalizer quotient",
          1, cl.kodaira_classify(xgt_inv)[0])

    fib_raw = json.loads(read_data("fibrations.json"))
    for label, data in sorted(fib_raw.items()):
        fibers = [cl.KodairaFiber(f["kind"], f["multiplicity"], tuple(f["components"]))
                  for f in data["fibers"]]
        r.add(f"fibration_euler_{label}",
              f"fiber Euler numbers sum to the Euler number ({label})",
              True, cl.fibration_euler_check(fibers, resolved[label][0]))
        r.add(f"fibration_components_{label}",
              f"fiber component accounting ({label})",
              True, cl.fiber_component_accounting(
                  fibers, data["exceptional_minus2"], data["exceptional_minus3"]))

    import hashlib  # only the report hashes: no other subcommand loads OpenSSL

    canonical_cfg = json.dumps(cfg, sort_keys=True)
    body = json.dumps({"entries": r.entries, "config": canonical_cfg}, sort_keys=True,
                      default=str)
    r.metadata = {
        "config_hash": hashlib.sha256(body.encode()).hexdigest(),
        "version": __version__,
        "entry_count": len(r.entries),
    }
    return r
