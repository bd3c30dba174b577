"""Exact matrices: 3x3 closed forms over Q(zeta_N), and the one n x n elimination.

`det`, `inverse` and `char_poly` are formulas for 3x3 matrices of `CycElt`s
and need at most one field inverse.  `gauss_jordan` is the only elimination
in the package: it serves every larger exact system, over `Fraction` or
`CycElt` entries alike.

The program uses `mat`, `det`, `trace`, `char_poly` and `conj_transpose` for
the hermitian forms, and `gauss_jordan`.  `mat_mul` and `inverse` have no
caller in the program: the tests keep them as references, checking the
algebra embedding against `mat_mul` and `gauss_jordan` against `inverse`.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import CycElt

Mat = tuple[tuple[CycElt, ...], ...]


def mat(rows) -> Mat:
    return tuple(tuple(r) for r in rows)


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


class SingularMatrix(ZeroDivisionError):
    pass


def gauss_jordan(rows):
    """Gauss-Jordan reduction of an n x m matrix (m >= n) on its leading n x n block
    (Cohen, A Course in Computational Algebraic Number Theory, 2.2).

    Returns (det, reduced): det is the determinant of the leading block.  When
    det is nonzero the reduced rows hold the identity there, so reducing
    [A | B] gives [I | A^-1 B]; when det is zero they are only partly reduced.
    Entries are int, Fraction or CycElt: anything with +, -, *, truth meaning
    nonzero, and an exact 1 / x."""
    a = [list(row) for row in rows]
    n = len(a)
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return a[col][col], a  # the zero of the entries' field
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        p = a[col][col]
        det = det * p
        inv = Fraction(1) / p  # a Fraction, not a float, for an int pivot
        # the pivot row is zero left of col, so only columns col.. change
        pivot_row = a[col][col:] = [v * inv for v in a[col][col:]]
        for r in range(n):
            f = a[r][col]
            if r != col and f:
                a[r][col:] = [v - f * w for v, w in zip(a[r][col:], pivot_row)]
    return det, a
