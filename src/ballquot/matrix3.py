"""Small exact 3x3 matrix helpers over Q(zeta_N)."""

from __future__ import annotations

from .cyclotomic import CycElt

Mat = tuple[tuple[CycElt, ...], ...]


def mat(rows) -> Mat:
    return tuple(tuple(r) for r in rows)


def identity(n_mod: int) -> Mat:
    one, zero = CycElt.one(n_mod), CycElt.zero(n_mod)
    return mat([[one if i == j else zero for j in range(3)] for i in range(3)])


def scalar(n_mod: int, a: CycElt) -> Mat:
    zero = CycElt.zero(n_mod)
    return mat([[a if i == j else zero for j in range(3)] for i in range(3)])


def mat_add(a: Mat, b: Mat) -> Mat:
    return mat([[a[i][j] + b[i][j] for j in range(3)] for i in range(3)])


def mat_mul(a: Mat, b: Mat) -> Mat:
    return mat([[sum((a[i][k] * b[k][j] for k in range(3)), CycElt.zero(a[0][0].modulus))
                 for j in range(3)] for i in range(3)])


def trace(a: Mat) -> CycElt:
    return a[0][0] + a[1][1] + a[2][2]


def det(a: Mat) -> CycElt:
    return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))


def conj_transpose(a: Mat) -> Mat:
    return mat([[a[j][i].conjugate() for j in range(3)] for i in range(3)])


def inverse(a: Mat) -> Mat:
    d = det(a)
    cof = [[None] * 3 for _ in range(3)]
    idx = [(1, 2), (0, 2), (0, 1)]
    for i in range(3):
        for j in range(3):
            r = idx[i]
            c = idx[j]
            minor = a[r[0]][c[0]] * a[r[1]][c[1]] - a[r[0]][c[1]] * a[r[1]][c[0]]
            cof[j][i] = minor * ((-1) ** (i + j))  # transposed cofactor
    dinv = d.inverse()
    return mat([[cof[i][j] * dinv for j in range(3)] for i in range(3)])


def char_poly(a: Mat) -> tuple[CycElt, CycElt, CycElt]:
    """Coefficients (c2, c1, c0) of x^3 + c2 x^2 + c1 x + c0."""
    t = trace(a)
    # sum of principal 2x2 minors
    m = CycElt.zero(a[0][0].modulus)
    for i in range(3):
        for j in range(i + 1, 3):
            m = m + (a[i][i] * a[j][j] - a[i][j] * a[j][i])
    return (-t, m, -det(a))
