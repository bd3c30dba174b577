"""Exact matrices: 3x3 closed forms over Q(zeta_N), and the one n x n elimination.

`det`, `inverse` and `char_poly` are formulas for 3x3 matrices of `CycElt`s
and need at most one field inverse.  `gauss_jordan` is the only elimination
in the package: it serves every larger exact system, over `Fraction` or
`CycElt` entries alike, with one update rule for each.

- Rational entries (`int` or `Fraction`) are eliminated over the integers:
  each row is cleared of its denominators, and Bareiss's fraction-free
  update a <- (p*a - f*w) // prev keeps every entry a minor of the cleared
  matrix, so no gcd is taken until the result is divided out at the end.
- `CycElt` entries keep the field update a <- a - f*(w/p).  Over Q(zeta_N)
  the exact division of Bareiss's rule is itself a field inverse, and its
  unreduced entries make every product dearer: on the 9x9 Gram matrix of
  b^-1*O*b it took 8.9 ms against 2.2 ms for the field rule.

The program uses `mat`, `det`, `trace`, `char_poly` and `conj_transpose` for
the hermitian forms, `gauss_jordan`, and `integer_inverse`, which returns the
same integer elimination's inverse as integers, without dividing it out.
`mat_mul` and `inverse` have no caller in the program: the tests keep them as
references, checking the algebra embedding against `mat_mul` and
`gauss_jordan` against `inverse`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

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
    nonzero, and an exact 1 / x.  Rational entries come back as Fractions."""
    a = [list(row) for row in rows]
    if all(isinstance(v, (int, Fraction)) for row in a for v in row):
        return _bareiss(a)
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


def _bareiss(a: list[list]) -> tuple[Fraction, list[list[Fraction]]]:
    """`gauss_jordan` of rational rows, in integers (Bareiss, Math. Comp. 22, 1968).

    Row r is scaled by the lcm scale[r] of its denominators.  After the step
    on column col, every entry is prev times the entry the field rule holds
    for the scaled rows, prev being the leading (col+1)-minor of the scaled
    rows in pivot order; so the field rule's rows for the given ones are
    these over prev, and rows not yet pivoted also over their own scale."""
    n = len(a)
    scale = [lcm(*(v.denominator for v in row)) for row in a]
    a = [[v.numerator * (c // v.denominator) for v in row] for row, c in zip(a, scale)]
    done, sign, prev = _fraction_free(a, scale)
    det = Fraction(sign * prev, prod(scale)) if done == n else Fraction(0)
    return det, _divide_out(a, done, prev, scale)


def _fraction_free(a: list[list[int]], scale: list[int]) -> tuple[int, int, int]:
    """Bareiss's update on the integer rows `a`, in place, swapping `scale`
    along with them.  Returns (done, sign, prev): the number of columns
    pivoted (fewer than n when a column has no pivot), the sign of the row
    permutation, and the leading done-minor of the rows in pivot order."""
    n = len(a)
    sign, prev = 1, 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return col, sign, prev
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            scale[col], scale[piv] = scale[piv], scale[col]
            sign = -sign
        # left of col each row is zero but for a pivot row's stale diagonal,
        # which `_divide_out` replaces by 1: only columns col.. change
        w = a[col][col:]
        p = w[0]
        for r in range(n):
            if r != col:
                f = a[r][col]
                a[r][col:] = ([(p * v - f * x) // prev for v, x in zip(a[r][col:], w)] if f
                              else [p * v // prev for v in a[r][col:]])
        prev = p
    return n, sign, prev


def integer_inverse(a: list[list[int]]) -> tuple[list[list[int]], int]:
    """The inverse of a nonsingular n x n integer matrix as integer rows over
    one positive denominator, read from the fraction-free elimination of
    [A | I] that `gauss_jordan` makes: its right block is prev * A^-1."""
    n = len(a)
    rows = [row + [int(r == j) for j in range(n)] for r, row in enumerate(a)]
    done, _, prev = _fraction_free(rows, [1] * n)
    if done < n:
        raise SingularMatrix("the matrix is singular")
    s = 1 if prev > 0 else -1
    return [[s * v for v in row[n:]] for row in rows], s * prev


def _divide_out(a: list[list[int]], done: int, prev: int,
                scale: list[int]) -> list[list[Fraction]]:
    """The field rule's rows from Bareiss's after `done` pivots: the identity
    in the first `done` columns, the rest over prev and, for rows not yet
    pivoted, over their scale too."""
    return [[Fraction(int(r == j)) for j in range(done)]
            + [Fraction(v, prev if r < done else prev * scale[r]) for v in row[done:]]
            for r, row in enumerate(a)]
