"""References the benchmark checks the program's outputs against.

Nothing here imports `ballquot`.  Each reference reads only the inputs (the
definitions of the orders, the class datasets on disk, the height
equations) and never a result of the program:

- rational arithmetic in Q(zeta_7) on power-basis vectors, used to build
  seeded inputs and to rebuild an element exactly from its coordinates;
- the 3x3 complex-matrix embedding of the cyclic algebra with
  zeta_7 = e^(2 pi i/7) and alpha = lambda/lambda_bar, in mpmath, giving the
  reduced trace form, Gram determinants and reduced norms numerically;
- a floating-point evaluator of the fixed-point class sum, reading
  `src/ballquot/data/classes_*.json` directly;
- Dedekind sums and the two orbifold height equations in plain Fractions.

`self_check()` tests each reference against values known in closed form;
`python3 bench/references.py` runs it.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import mpmath

DPS = 30

# ---------------------------------------------------------------------------
# Q(zeta_7) on power-basis vectors of length 6 (zeta^0 .. zeta^5)

LAMBDA = [Fraction(c) for c in (0, 1, 1, 0, 1, 0)]            # zeta + zeta^2 + zeta^4
LAMBDA_BAR = [Fraction(c) for c in (-1, -1, -1, 0, -1, 0)]    # its complex conjugate


def unit(i: int) -> list[Fraction]:
    v = [Fraction(0)] * 6
    v[i] = Fraction(1)
    return v


def mul_L(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Product in Q(zeta_7): fold exponents mod 7, then use zeta^6 = -(1 + ... + zeta^5)."""
    c = [Fraction(0)] * 7
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                c[(i + j) % 7] += ai * bj
    return [ci - c[6] for ci in c[:6]]


def K_pair(c: list[Fraction]) -> tuple[Fraction, Fraction] | None:
    """(p, q) with c = p + q*lambda when c lies in K = Q(sqrt(-7)), else None."""
    p, q = c[0], c[1]
    return (p, q) if list(c) == [p, q, q, 0, q, 0] else None


def combine(basis: list[list[list[Fraction]]], pairs) -> list[list[Fraction]]:
    """sum_k (p_k + q_k*lambda) * e_k for algebra elements given as three L-vectors.

    Coefficients in K are central, so they multiply each L-component."""
    out = [[Fraction(0)] * 6 for _ in range(3)]
    for e, (p, q) in zip(basis, pairs):
        for comp in range(3):
            lam_e = mul_L(LAMBDA, e[comp]) if q else None
            for i in range(6):
                out[comp][i] += p * e[comp][i] + (q * lam_e[i] if q else 0)
    return out


def order_O() -> list[list[list[Fraction]]]:
    """Crossed-product order o_L + o_L*lambda_bar*u + o_L*lambda_bar*u^2,
    o_L-blocks {1, zeta, zeta^2}, as (x0, x1, x2) triples."""
    zero = [Fraction(0)] * 6
    basis = []
    for block in range(3):
        for j in range(3):
            coeff = unit(j) if block == 0 else mul_L(unit(j), LAMBDA_BAR)
            comps = [zero, zero, zero]
            comps[block] = coeff
            basis.append(comps)
    return basis


def element_b() -> list[list[Fraction]]:
    """b = tr(lambda) + lambda_bar*u + lambda_bar*u^2 with tr(lambda) = -1."""
    return [[Fraction(-1)] + [Fraction(0)] * 5, LAMBDA_BAR, LAMBDA_BAR]


# ---------------------------------------------------------------------------
# complex-matrix embedding (mpmath)

def _mp(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


def _zeta_powers():
    return [mpmath.expjpi(mpmath.mpf(2 * t) / 7) for t in range(7)]


def L_value(a, t: int, zpow) -> mpmath.mpc:
    """Value of a in Q(zeta_7) under zeta -> e^(2 pi i t/7)."""
    return mpmath.fsum(_mp(Fraction(c)) * zpow[(i * t) % 7] for i, c in enumerate(a) if c)


def matmul(a, b):
    return [[mpmath.fsum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)]


def trace(m):
    return m[0][0] + m[1][1] + m[2][2]


def det(m):
    return mpmath.det(mpmath.matrix(m))


def inverse(m):
    inv = mpmath.inverse(mpmath.matrix(m))
    return [[inv[i, j] for j in range(3)] for i in range(3)]


class Embedding:
    """x0 + x1*u + x2*u^2 |-> sum_j diag(x_j, x_j^s, x_j^ss) * U^j, with
    s: zeta -> zeta^2 and U the companion matrix of u^3 = alpha."""

    def __init__(self):
        with mpmath.workdps(DPS):
            self.zpow = _zeta_powers()
            lam = L_value(LAMBDA, 1, self.zpow)
            self.alpha = lam / mpmath.conj(lam)
            one, zero = mpmath.mpc(1), mpmath.mpc(0)
            u = [[zero, zero, self.alpha], [one, zero, zero], [zero, one, zero]]
            self.u_powers = [[[one if i == j else zero for j in range(3)] for i in range(3)], u,
                             matmul(u, u)]

    def matrix(self, x) -> list[list[mpmath.mpc]]:
        with mpmath.workdps(DPS):
            m = [[mpmath.mpc(0)] * 3 for _ in range(3)]
            for comp, up in zip(x, self.u_powers):
                diag = [L_value(comp, t, self.zpow) for t in (1, 2, 4)]
                for i in range(3):
                    for j in range(3):
                        if up[i][j]:
                            m[i][j] += diag[i] * up[i][j]
            return m

    def gram_abs_det(self, mats) -> mpmath.mpf:
        """|det| of the reduced-trace Gram matrix tr(x_i x_j)."""
        with mpmath.workdps(DPS):
            g = [[trace(matmul(a, b)) for b in mats] for a in mats]
            return abs(mpmath.det(mpmath.matrix(g)))


def close(a, b, tol: float = 1e-9) -> bool:
    """Entrywise agreement of numbers or 3x3 matrices, relative to their size."""
    if isinstance(a, list):
        return all(close(x, y, tol) for ra, rb in zip(a, b) for x, y in zip(ra, rb))
    return abs(a - b) <= tol * (1 + abs(a) + abs(b))


# ---------------------------------------------------------------------------
# fixed-point class sum in floating point

def R_series(r: int, k: int, eigenvalues) -> mpmath.mpc:
    """Coefficient of z^r in (1-z)^(3k-1) * prod 1/(1 - nu + nu*z), by series
    multiplication truncated after z^r."""
    series = [mpmath.mpf((-1) ** i * math.comb(3 * k - 1, i)) for i in range(r + 1)]
    for nu in eigenvalues:
        # 1/(1 - nu + nu z) = sum_i (-nu/(1-nu))^i / (1-nu) z^i
        a = 1 - nu
        inv = [(-nu / a) ** i / a for i in range(r + 1)]
        series = [mpmath.fsum(series[j] * inv[i - j] for j in range(i + 1)) for i in range(r + 1)]
    return series[r]


def load_classes(path: Path) -> dict:
    return json.loads(Path(path).read_text())


def class_sum(raw: dict, s: int, k: int) -> mpmath.mpc:
    """Weight-k class sum of a dataset with every root of unity zeta^e sent to zeta^(e*s)."""
    n = raw["cyclotomic_modulus"]
    with mpmath.workdps(DPS):
        def root(spec):
            mod, e = spec
            if mod != n:
                raise ValueError(f"root of unity modulus {mod} != {n}")
            return mpmath.expjpi(mpmath.mpf(2 * e * s) / n)

        total = mpmath.mpc(0)
        for c in raw["classes"]:
            w = Fraction(c["virtual_euler"]) / (c["m"] * (c["r"] + 1))
            nus = [root(e) for e in c["normal_eigenvalues"]]
            total += _mp(w) * root(c["j"]) ** k * R_series(c["r"], k, nus)
        return total


def dirichlet_L(s: int, discriminant: int) -> mpmath.mpf:
    """L(s, chi) for the Kronecker character of a fundamental discriminant,
    by mpmath's Hurwitz-zeta sum over one period."""
    n = abs(discriminant)
    chi = [kronecker(discriminant, m) for m in range(n)]
    return mpmath.dirichlet(s, chi)


def kronecker(d: int, m: int) -> int:
    """Kronecker symbol (d/m) for m >= 1: the 2-part from d mod 8, the odd part as a Jacobi symbol."""
    if math.gcd(d, m) != 1:
        return 0
    result = 1
    while m % 2 == 0:
        m //= 2
        result *= 1 if d % 8 in (1, 7) else -1
    # Jacobi symbol (d/m) for odd m
    a, n = d % m if m > 1 else 0, m
    while a and n > 1:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


# ---------------------------------------------------------------------------
# orbifold heights

def dedekind_sum(q: int, n: int) -> Fraction:
    def saw(x: Fraction) -> Fraction:
        x -= math.floor(x)
        return Fraction(0) if x == 0 else x - Fraction(1, 2)
    return sum((saw(Fraction(k, n)) * saw(Fraction(k * q, n)) for k in range(1, n)), Fraction(0))


def height_residuals(euler: Fraction, signature: Fraction, points,
                     target_euler: Fraction, target_signature: Fraction) -> tuple[Fraction, Fraction]:
    """Both orbifold height equations, as (computed - target) for points (n, q):
    e - sum(1 - 1/n) and sigma - sum(-4 s(q, n))."""
    e = euler - sum((1 - Fraction(1, n) for n, _ in points), Fraction(0))
    sig = signature - sum((-4 * dedekind_sum(q, n) for n, q in points), Fraction(0))
    return e - target_euler, sig - target_signature


# ---------------------------------------------------------------------------

def self_check() -> list[str]:
    """Test every reference against closed forms; returns the failures."""
    failures: list[str] = []

    def expect(name: str, ok: bool) -> None:
        if not ok:
            failures.append(name)

    # Q(zeta_7): lambda + lambda_bar = -1 and lambda * lambda_bar = 2
    expect("lambda + lambda_bar = -1",
           [a + b for a, b in zip(LAMBDA, LAMBDA_BAR)] == [-1, 0, 0, 0, 0, 0])
    expect("lambda * lambda_bar = 2", mul_L(LAMBDA, LAMBDA_BAR) == [2, 0, 0, 0, 0, 0])
    expect("zeta^7 = 1", mul_L(unit(3), mul_L(unit(2), unit(2))) == unit(0))

    emb = Embedding()
    with mpmath.workdps(DPS):
        ident = emb.u_powers[0]
        u = emb.u_powers[1]
        expect("|alpha| = 1", close(abs(emb.alpha), 1))
        expect("U^3 = alpha * I", close(matmul(u, emb.u_powers[2]),
                                        [[emb.alpha * v for v in row] for row in ident]))
        expect("det U = alpha", close(det(u), emb.alpha))
        # u a = a^(s^-1) u: the embedding respects the crossed-product relation
        z = emb.matrix([unit(1), [0] * 6, [0] * 6])
        z_s_inv = emb.matrix([unit(4), [0] * 6, [0] * 6])
        expect("u zeta = zeta^4 u", close(matmul(u, z), matmul(z_s_inv, u)))
        # nrd of the central scalar lambda_bar is lambda_bar^3
        lb = L_value(LAMBDA_BAR, 1, emb.zpow)
        expect("nrd(lambda_bar) = lambda_bar^3",
               close(det(emb.matrix([LAMBDA_BAR, [0] * 6, [0] * 6])), lb ** 3))
        # the matrix-unit order of M_3(Z) has a Gram determinant of absolute value 1
        units = [[[mpmath.mpc(1 if (i, j) == (a, c) else 0) for j in range(3)] for i in range(3)]
                 for a in range(3) for c in range(3)]
        expect("matrix-unit order |Gram det| = 1", close(emb.gram_abs_det(units), 1))
        # class-sum series: R(2, k) = C(3k-1, 2); 1/(1-w)^2 = -w^2/3 for w = e^(2 pi i/3)
        for k in range(2, 12):
            expect(f"R(2, {k}) = C({3 * k - 1}, 2)",
                   close(R_series(2, k, []), math.comb(3 * k - 1, 2)))
        w = mpmath.expjpi(mpmath.mpf(2) / 3)
        expect("R(0, k; w, w) = -w^2/3", close(R_series(0, 5, [w, w]), -w ** 2 / 3))
        # a single 2-dimensional class: the sum is e/3 * C(3k-1, 2)
        one_class = {"cyclotomic_modulus": 21, "classes": [
            {"r": 2, "virtual_euler": "3", "j": [21, 0], "m": 1, "normal_eigenvalues": []}]}
        expect("class sum of one r=2 class", close(class_sum(one_class, 5, 4), math.comb(11, 2)))

    # L-values: L(1, chi_-4) = pi/4, L(3, chi_-4) = pi^3/32, L(2, chi_-3) as a sum
    with mpmath.workdps(DPS):
        expect("L(1, chi_-4) = pi/4", close(dirichlet_L(1, -4), mpmath.pi / 4, 1e-25))
        expect("L(3, chi_-4) = pi^3/32", close(dirichlet_L(3, -4), mpmath.pi ** 3 / 32, 1e-25))
    expect("chi_-7 = (1, 1, -1, 1, -1, -1) on 1..6",
           [kronecker(-7, m) for m in range(1, 7)] == [1, 1, -1, 1, -1, -1])

    # Dedekind sums: s(1, n) = (n-1)(n-2)/(12n), and reciprocity
    for n in range(2, 15):
        expect(f"s(1, {n})", dedekind_sum(1, n) == Fraction((n - 1) * (n - 2), 12 * n))
    for q, n in ((3, 7), (2, 3), (5, 11), (4, 9)):
        expect(f"reciprocity s({q},{n})", dedekind_sum(q, n) + dedekind_sum(n, q)
               == (Fraction(q, n) + Fraction(n, q) + Fraction(1, n * q)) / 12 - Fraction(1, 4))
    return failures


if __name__ == "__main__":
    bad = self_check()
    print("references: all closed-form checks pass" if not bad else f"references: FAILED {bad}")
    raise SystemExit(1 if bad else 0)
