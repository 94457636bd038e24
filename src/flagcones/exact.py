"""Exact scalar arithmetic for the combinatorial layers.

Root systems, weights and representation matrices are kept over the
Gaussian rationals (complex numbers with ``fractions.Fraction`` parts);
the numerical layers convert to ``complex128`` only at the boundary.
Matrices here are plain tuples of tuples, sized at most a few dozen, so
hand-rolled Gaussian elimination is entirely adequate.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

Rational = Union[int, Fraction]


class QC:
    """Gaussian rational: ``re + im*i`` with exact rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Rational = 0, im: Rational = 0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def of(x) -> "QC":
        if isinstance(x, QC):
            return x
        if isinstance(x, (int, Fraction)):
            return QC(x, 0)
        raise TypeError(f"cannot coerce {type(x).__name__} to QC")

    def __add__(self, other):
        o = QC.of(other)
        return QC(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = QC.of(other)
        return QC(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = QC.of(other)
        return QC(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = QC.of(other)
        return QC(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = QC.of(other)
        d = o.abs2()
        if d == 0:
            raise ZeroDivisionError("QC division by zero")
        return QC((self.re * o.re + self.im * o.im) / d, (self.im * o.re - self.re * o.im) / d)

    def __neg__(self):
        return QC(-self.re, -self.im)

    real = property(lambda self: self.re)   # numpy-style name: code reads QC and numpy pivots alike

    def conj(self) -> "QC":
        return QC(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        try:
            o = QC.of(other)
        except TypeError:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        return f"QC({self.re!s}, {self.im!s})"


QI = QC(0, 1)

Mat = tuple  # tuple of tuples of QC


def qc_mat(rows: Sequence[Sequence]) -> Mat:
    return tuple(tuple(QC.of(x) if not isinstance(x, QC) else x for x in row) for row in rows)


def zeros(n: int, m: int) -> list:
    return [[QC(0) for _ in range(m)] for _ in range(n)]


def eye(n: int) -> Mat:
    return tuple(tuple(QC(1 if i == j else 0) for j in range(n)) for i in range(n))


def mat_add(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))

def mat_sub(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c, a: Mat) -> Mat:
    c = QC.of(c)
    return tuple(tuple(c * x for x in row) for row in a)


def mat_mul(a: Mat, b: Mat) -> Mat:
    n, k, m = len(a), len(b), len(b[0])
    bt = list(zip(*b))
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            s = QC(0)
            ai = a[i]
            bj = bt[j]
            for l in range(k):
                x = ai[l]
                if x:
                    s = s + x * bj[l]
            row.append(s)
        out.append(tuple(row))
    return tuple(out)


def mat_vec(a: Mat, v: Sequence[QC]) -> tuple:
    out = []
    for row in a:
        s = QC(0)
        for x, y in zip(row, v):
            if x and y:
                s = s + x * y
        out.append(s)
    return tuple(out)


def mat_comm(a: Mat, b: Mat) -> Mat:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def mat_dagger(a: Mat) -> Mat:
    """Conjugate transpose."""
    return tuple(tuple(a[j][i].conj() for j in range(len(a))) for i in range(len(a[0])))


def mat_trace(a: Mat) -> QC:
    s = QC(0)
    for i in range(len(a)):
        s = s + a[i][i]
    return s


def mat_kron(a: Mat, b: Mat) -> Mat:
    na, nb = len(a), len(b)
    ma, mb = len(a[0]), len(b[0])
    out = []
    for i in range(na * nb):
        row = []
        for j in range(ma * mb):
            row.append(a[i // nb][j // mb] * b[i % nb][j % mb])
        out.append(tuple(row))
    return tuple(out)


def solve(a: Mat, rhs: Sequence[Sequence]) -> list:
    """Solve a . x = rhs by Gaussian elimination over QC (a square, invertible)."""
    n = len(a)
    m = len(rhs[0])
    aug = [[QC.of(x) for x in row] + [QC.of(y) for y in rrow] for row, rrow in zip(a, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ValueError("singular matrix in exact solve")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = QC(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:n + m] for row in aug]


def mat_inv(a: Mat) -> Mat:
    n = len(a)
    return tuple(tuple(row) for row in solve(a, eye(n)))


def frac_solve(a: Sequence[Sequence[Fraction]], rhs: Sequence[Sequence[Fraction]]) -> list:
    """Gaussian elimination over Fraction; returns list of rows of the solution."""
    n = len(a)
    m = len(rhs[0])
    aug = [[Fraction(x) for x in row] + [Fraction(y) for y in rrow] for row, rrow in zip(a, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix in exact solve")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:n + m] for row in aug]


def to_complex_matrix(a: Mat):
    import numpy as np

    return np.array([[x.to_complex() for x in row] for row in a], dtype=complex)


def to_complex_vector(v: Sequence[QC]):
    import numpy as np

    return np.array([x.to_complex() for x in v], dtype=complex)
