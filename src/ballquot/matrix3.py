"""Exact matrices: 3x3 closed forms over Q(zeta_N), and the one n x n elimination.

`_fraction_free` is the only elimination in the package.  It runs Bareiss's
fraction-free update a <- (p*a - f*w) // prev (Bareiss, Math. Comp. 22,
1968) over any integral domain with an exact `//`: every entry stays a minor
of the input, so each division is exact and no fraction or gcd is made.  It
has two callers:

- `determinant`, of the 9x9 reduced-trace Gram matrix in
  `order_arithmetic.discriminant`, whose rows are cleared of denominators
  into o_K = Z[lambda];
- `integer_inverse`, of the 18x18 integer system behind
  `OrderBasis.coordinates`, returned as integer rows over one denominator.

`det`, `inverse` and `char_poly` are formulas for 3x3 matrices of `CycElt`s
and need at most one field inverse.  The program uses `mat`, `det`, `trace`,
`char_poly` and `conj_transpose` for the hermitian forms.  The tests keep
the closed forms as references too: the algebra embedding is checked against
`mat_mul`, `determinant` against `det`, and `integer_inverse` against
`inverse`, which with `mat_mul` has no caller in the program.
"""

from __future__ import annotations

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


def determinant(rows):
    """The determinant of an n x n matrix over an integral domain: ints, or
    any entries with -, *, unary -, truth meaning nonzero, and an exact //
    that also takes the int 1 as divisor.  A singular matrix gives the zero
    of its entries."""
    a = [list(row) for row in rows]
    done, sign, prev = _fraction_free(a)
    if done < len(a):
        return a[done][done]  # column `done` has no pivot: this entry is zero
    return prev if sign > 0 else -prev


def _fraction_free(a: list[list]) -> tuple[int, int, object]:
    """Bareiss's update on the rows `a`, in place, on their leading n x n
    block.  Returns (done, sign, prev): the number of columns pivoted (fewer
    than n when a column has no pivot), the sign of the row permutation, and
    the leading done-minor of the rows in pivot order."""
    n = len(a)
    sign, prev = 1, 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return col, sign, prev
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        # left of col each row is zero but for a pivot row's stale diagonal,
        # which no caller reads: only columns col.. change
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
    [A | I]: its right block is prev * A^-1."""
    n = len(a)
    rows = [row + [int(r == j) for j in range(n)] for r, row in enumerate(a)]
    done, _, prev = _fraction_free(rows)
    if done < n:
        raise SingularMatrix("the matrix is singular")
    s = 1 if prev > 0 else -1
    return [[s * v for v in row[n:]] for row in rows], s * prev
