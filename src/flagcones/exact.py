"""Exact scalar arithmetic for the combinatorial layers.

Root systems, weights and representation matrices are kept over the
Gaussian rationals.  A ``QC`` stores three Python ints ``(a + b i) / d``
in canonical form (``d > 0``, ``gcd(a, b, d) == 1``), so one operation
costs a few int products and a single gcd; ``fractions.Fraction`` appears
only where a real part or squared modulus leaves the class.  The
numerical layers convert to ``complex128`` only at the boundary.
Matrices here are plain tuples of tuples, sized at most a few dozen, so
hand-rolled Gaussian elimination is entirely adequate.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence, Union

Rational = Union[int, Fraction]


class QC:
    """Gaussian rational ``(a + b i) / d`` over three Python ints.

    The stored form is canonical: ``d > 0`` and ``gcd(a, b, d) == 1``, so
    equal values have equal fields.  Each operation works on the ints and
    reduces once with a single three-way ``gcd``; ``re``, ``im`` and
    ``abs2`` hand out ``Fraction``s at the boundary.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re: Rational = 0, im: Rational = 0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        p, q = re.denominator, im.denominator
        d = p // gcd(p, q) * q          # lcm of two reduced denominators: already canonical
        self.a, self.b, self.d = re.numerator * (d // p), im.numerator * (d // q), d

    @staticmethod
    def of(x) -> "QC":
        if isinstance(x, QC):
            return x
        if isinstance(x, (int, Fraction)):
            return QC(x, 0)
        raise TypeError(f"cannot coerce {type(x).__name__} to QC")

    def __add__(self, other):
        o = other if type(other) is QC else QC.of(other)
        if self.d == o.d:
            return _reduced(self.a + o.a, self.b + o.b, self.d)
        return _reduced(self.a * o.d + o.a * self.d, self.b * o.d + o.b * self.d, self.d * o.d)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is QC else QC.of(other)
        if self.d == o.d:
            return _reduced(self.a - o.a, self.b - o.b, self.d)
        return _reduced(self.a * o.d - o.a * self.d, self.b * o.d - o.b * self.d, self.d * o.d)

    def __rsub__(self, other):
        o = QC.of(other)
        if self.d == o.d:
            return _reduced(o.a - self.a, o.b - self.b, self.d)
        return _reduced(o.a * self.d - self.a * o.d, o.b * self.d - self.b * o.d, self.d * o.d)

    def __mul__(self, other):
        o = other if type(other) is QC else QC.of(other)
        a, b, c, e = self.a, self.b, o.a, o.b
        return _reduced(a * c - b * e, a * e + b * c, self.d * o.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if type(other) is QC else QC.of(other)
        a, b, c, e = self.a, self.b, o.a, o.b
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("QC division by zero")
        # ((a + b i) / d) / ((c + e i) / f) = f (a + b i)(c - e i) / (d (c^2 + e^2))
        return _reduced(o.d * (a * c + b * e), o.d * (b * c - a * e), self.d * n)

    def __neg__(self):
        return _reduced(-self.a, -self.b, self.d)

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    real = re   # numpy-style name: code reads QC and numpy pivots alike

    def conj(self) -> "QC":
        return _reduced(self.a, -self.b, self.d)

    def abs2(self) -> Fraction:
        return Fraction(self.a * self.a + self.b * self.b, self.d * self.d)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        try:
            o = QC.of(other)
        except TypeError:
            return NotImplemented
        return self.a == o.a and self.b == o.b and self.d == o.d

    def __hash__(self):
        return hash((self.re, self.im))

    def to_complex(self) -> complex:
        return complex(self.a / self.d, self.b / self.d)

    def __repr__(self):
        return f"QC({self.re!s}, {self.im!s})"


_new = object.__new__


def _reduced(a: int, b: int, d: int) -> QC:
    """A QC from fields with ``d > 0``, divided by their common gcd."""
    g = gcd(a, b, d)
    z = _new(QC)
    if g == 1:
        z.a, z.b, z.d = a, b, d
    else:
        z.a, z.b, z.d = a // g, b // g, d // g
    return z


QI = QC(0, 1)
ZERO = QC(0)        # shared start of the accumulating loops; QC values are never mutated

Mat = tuple  # tuple of tuples of QC


def qc_mat(rows: Sequence[Sequence]) -> Mat:
    return tuple(tuple(QC.of(x) if not isinstance(x, QC) else x for x in row) for row in rows)


def zeros(n: int, m: int) -> list:
    return [[ZERO] * m for _ in range(n)]


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
            s = ZERO
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
        s = ZERO
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
    s = ZERO
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
