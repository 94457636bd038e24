"""Exact scalar arithmetic for the combinatorial layers.

Root systems, weights and representation matrices are kept over the
Gaussian rationals.  A ``QC`` stores three Python ints ``(a + b i) / d``
in canonical form (``d > 0``, ``gcd(a, b, d) == 1``), so one operation
costs a few int products and a single gcd; ``fractions.Fraction`` appears
only where a real part or squared modulus leaves the class.  An operation
with a zero operand returns the canonical ``ZERO`` or the other operand
without arithmetic, which keeps sparse products cheap.

Vectors and matrices are numpy arrays, and their dtype picks the
arithmetic: an ``object`` array holds exact numbers (``QC``; ints and
``Fraction``s mix in) and every ``+ - * / @`` on it is exact; any other
array is complex128.  One function body therefore serves both paths.  The
few operations whose float rounding, exact value type or cost differs
between the two live here, as array functions that dispatch on the dtype:
``to_field`` and ``like`` (conversion), ``real``, ``abs2``, ``modulus`` and
``linear_map`` (``np.matmul``, or over ``QC`` only nonzero products).  Float
products round as numpy's array loops do, and numpy scalars round some of
them differently, so ``rows`` is the single-point rule: a function of points
it decorates runs a lone float point as a batch of one, which rounds as that
point's row of any batch.  ``QC`` converts to ``complex`` via ``__complex__``,
so ``np.asarray(a, dtype=complex)`` takes an exact array to floats.
"""
from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd
from typing import Sequence, Tuple, Union

import numpy as np

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
        if type(x) is int:              # the ints exact arrays hold: no Fraction, no gcd
            z = _new(QC)
            z.a, z.b, z.d = x, 0, 1
            return z
        if isinstance(x, QC):
            return x
        if isinstance(x, (int, Fraction)):
            return QC(x, 0)
        raise TypeError(f"cannot coerce {type(x).__name__} to QC")

    # An operand equal to zero short-cuts every operation: the result is the
    # canonical ZERO or the other operand, with no int arithmetic and no gcd.

    def __add__(self, other):
        o = other if type(other) is QC else QC.of(other)
        if not (o.a or o.b):
            return self
        if not (self.a or self.b):
            return o
        if self.d == o.d:
            return _reduced(self.a + o.a, self.b + o.b, self.d)
        return _reduced(self.a * o.d + o.a * self.d, self.b * o.d + o.b * self.d, self.d * o.d)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is QC else QC.of(other)
        if not (o.a or o.b):
            return self
        if not (self.a or self.b):
            return -o
        if self.d == o.d:
            return _reduced(self.a - o.a, self.b - o.b, self.d)
        return _reduced(self.a * o.d - o.a * self.d, self.b * o.d - o.b * self.d, self.d * o.d)

    def __rsub__(self, other):
        return QC.of(other) - self

    def __mul__(self, other):
        o = other if type(other) is QC else QC.of(other)
        if not (self.a or self.b) or not (o.a or o.b):
            return ZERO
        a, b, c, e = self.a, self.b, o.a, o.b
        return _reduced(a * c - b * e, a * e + b * c, self.d * o.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if type(other) is QC else QC.of(other)
        a, b, c, e = self.a, self.b, o.a, o.b
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("QC division by zero")
        if not (a or b):
            return ZERO
        # ((a + b i) / d) / ((c + e i) / f) = f (a + b i)(c - e i) / (d (c^2 + e^2))
        return _reduced(o.d * (a * c + b * e), o.d * (b * c - a * e), self.d * n)

    def __rtruediv__(self, other):
        return QC.of(other) / self

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
        z = _new(QC)                    # canonical fields stay canonical
        z.a, z.b, z.d = self.a, -self.b, self.d
        return z

    conjugate = conj    # the name np.conj calls on object arrays

    def abs2(self) -> Fraction:
        return Fraction(self.a * self.a + self.b * self.b, self.d * self.d)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __bool__(self):
        return self.a != 0 or self.b != 0

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

    __complex__ = to_complex    # np.asarray(..., dtype=complex) of an exact array

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


ZERO, ONE, QI = QC(0), QC(1), QC(0, 1)     # shared constants: QC values are never mutated


def solve(a: Sequence[Sequence], rhs: Sequence[Sequence]) -> list:
    """Solve ``a . x = rhs`` by Gauss-Jordan elimination; the rows of ``x``.

    Field-generic: it uses only ``+ - * /`` and truthiness, so it runs
    over ``Fraction`` or ``QC`` entries alike (``a`` square and
    invertible; ints are no field, so pass them as ``Fraction`` or ``QC``).
    """
    n = len(a)
    aug = [list(row) + list(rrow) for row, rrow in zip(a, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ValueError("singular matrix in exact solve")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def hermitian_elimination(G) -> Tuple[list, list]:
    """Unpivoted elimination of Hermitian ``G``: ``(pivots, L)`` with ``G = L diag(pivots) L*``.

    Reads the upper triangle ``G[a][b]``, ``b >= a``, of arrays over a batch
    or scalars, in either field: column c has pivot ``real(G[c][c])`` and
    multipliers ``L[i][c] = conj(G[c][i]) / pivot``.  The running products
    of the pivots are the leading principal minors (nonzero for positive
    definite ``G``).  No call per matrix: a batch of tiny matrices costs a
    few array loops.
    """
    G, pivots, L = [list(row) for row in G], [], [[] for _ in G]
    for c in range(len(G)):
        pivots.append(real(G[c][c]))
        for i in range(c + 1, len(G)):
            L[i].append(np.conj(G[c][i]) / pivots[c])
            G[i][i:] = [x - L[i][c] * y for x, y in zip(G[i][i:], G[c][i:])]
    return pivots, L


def hermitian_inverse(pivots, L) -> list:
    """All entries of ``G^-1`` from ``hermitian_elimination(G)``, by back-substitution.

    ``L* X = diag(pivots)^-1 L^-1`` is lower triangular with diagonal
    ``1 / pivot``, so from the last row up
    ``X[a][b] = delta_ab / pivot_a - sum_(k > a) conj(L[k][a]) X[k][b]`` for ``b >= a``.
    """
    r = len(pivots)
    X = [[None] * r for _ in range(r)]
    for a in range(r - 1, -1, -1):
        for b in range(r - 1, a - 1, -1):
            x = 1 / pivots[a] if a == b else 0
            for k in range(a + 1, r):
                x = x - np.conj(L[k][a]) * X[k][b]
            X[b][a], X[a][b] = np.conj(x), x
    return X


# ---------------------------------------------------------------------------
# arrays: the dtype picks the arithmetic
# ---------------------------------------------------------------------------

_to_qc = np.frompyfunc(QC.of, 1, 1)
_real = np.frompyfunc(lambda x: x.real, 1, 1)
_abs2 = np.frompyfunc(lambda x: QC.of(x).abs2(), 1, 1)


def to_field(a, dtype=None) -> np.ndarray:
    """``a`` as an array over the exact or the complex field.

    With ``dtype`` object every entry becomes a ``QC`` (a float raises
    ``TypeError``); any other ``dtype`` converts as numpy does, ``QC``
    entries through ``__complex__``.  Without ``dtype`` an object array is
    exact and anything else complex.
    """
    a = np.asarray(a)
    if dtype is None:
        dtype = object if a.dtype == object else complex
    if np.dtype(dtype) != object:
        return a.astype(dtype, copy=False)
    return np.asarray(_to_qc(a), dtype=object)


def rows(first: int):
    """Decorator: the arguments of a function from index ``first`` on are points, batched over leading axes.

    The first point passes through ``to_field``.  A float one with no batch
    axes, ``(d,)``, runs with every point lifted to a batch of one, and row 0
    comes back, a Python scalar when 0-d: numpy scalars round some operations
    (complex products, ``abs``, ``**``) differently from array loops.  Exact
    points hold Python numbers either way and, like batches, pass through.
    """
    def decorate(fn):
        @functools.wraps(fn)
        def wrapped(*args):
            x = to_field(args[first])
            if x.ndim != 1 or x.dtype == object:
                return fn(*args[:first], x, *args[first + 1:])
            out = fn(*args[:first], x[None], *(np.asarray(y)[None] for y in args[first + 1:]))[0]
            return out.item() if out.ndim == 0 else out

        return wrapped

    return decorate


def linear_map(M):
    """``(v, s) -> s (M @ v)``, batched as ``@``: a fixed ``M`` (..., d, e), ``v`` (..., e, k), a scale ``s`` (...).

    Complex: ``np.matmul``.  Exact: ``M``'s nonzero entries are listed once and only nonzero entries are multiplied.
    """
    if M.dtype != object:
        return lambda v, s: np.asarray(s)[..., None, None] * np.matmul(M, v)
    d, e = M.shape[-2:]
    columns = [[[(i, x) for i, x in enumerate(col) if x is not ZERO and x] for col in m]
               for m in M.reshape(-1, d, e).transpose(0, 2, 1).tolist()]
    which = np.arange(len(columns)).reshape(M.shape[:-2])

    def apply(v, s):
        k, out, xs = v.shape[-1], [], v.reshape(-1, e * v.shape[-1]).tolist()
        cells = np.broadcast(which, np.arange(len(xs)).reshape(v.shape[:-2]), s)
        for m, r, c in cells:
            y = [ZERO] * (d * k)
            for jc, xj in enumerate(xs[r]):
                if xj is not ZERO and xj:
                    for i, mij in columns[m][jc // k]:
                        p, ic = mij * xj, i * k + jc % k
                        y[ic] = p if y[ic] is ZERO else y[ic] + p
            out += [u if u is ZERO else c * u for u in y]
        return np.fromiter(out, dtype=object, count=len(out)).reshape(cells.shape + (d, k))

    return apply


def like(c: Fraction, x):
    """The exact constant ``c`` in the arithmetic of ``x``: unchanged beside exact values, else a float."""
    return c if np.asarray(x).dtype == object else float(c)


def real(a):
    """Real parts: ``Fraction``s (or ints) for an exact array, floats otherwise."""
    a = np.asarray(a)
    return _real(a) if a.dtype == object else a.real


def abs2(a):
    """Squared moduli: ``Fraction``s for an exact array, ``np.abs(a) ** 2`` otherwise."""
    a = np.asarray(a)
    return _abs2(a) if a.dtype == object else np.abs(a) ** 2


def modulus(a):
    """The size of a residual: ``|a|`` in floats, ``|a|^2`` (rational, unlike ``|a|``) when exact.

    Floats take ``np.hypot`` of the parts, which rounds as a complex
    scalar's ``abs`` does.
    """
    a = np.asarray(a)
    return _abs2(a) if a.dtype == object else np.hypot(a.real, a.imag)

