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
``to_field`` and ``like`` (conversion), ``real``, ``abs2``, ``modulus``, the
series ``nilpotent_series``, the quadratic ``relation_residual`` and the Hermitian
forms ``diagonal_form``, ``squared_norms`` and ``leading_gram_minors``, and the
monomial ``power_product`` of the bundle potentials.  In floats
these multiply, sum and eliminate with array loops.  Exact, they work in Gaussian
integers (Bareiss elimination for the minors): each point of a ``QC`` input is
cleared to integer numerators over one denominator once, as ``_Ints``, and a ``QC``
or ``Fraction`` is built per result.  The module route (``reps.act`` and
``derivation_matrix``, ``charts.generic_h``, ``hvcone.remmert``) hands ``_Ints``
from rule to rule, so a point is cleared once and only what a public function
returns is built.  Float products round as numpy's array loops do, and numpy
scalars round some of them differently, so ``rows`` is the single-point rule: a
function of points it decorates runs a lone float point as a batch of one.
``to_field`` passes ``_Ints`` and an all-``QC`` array through as they are;
``np.asarray(a, dtype=complex)`` takes an exact array to floats (``__complex__``).
"""
from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd, lcm, prod
from operator import add, mul
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
        if type(x) is int or type(x) is Fraction:      # reduced, so canonical: no gcd
            z = _new(QC)
            z.a, z.b, z.d = x.numerator, 0, x.denominator
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
        """Equal values hash equal: a real value hashes as its int or ``Fraction``, any other from its fields."""
        return hash((self.a, self.b, self.d)) if self.b else hash(Fraction(self.a, self.d))

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


def entry_dot(xs, ys, start=0):
    """``start + sum_j xs[j] ys[j]`` over entry arrays, summed in order."""
    out = xs[0] * ys[0] if start == 0 else start + xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        out = out + x * y
    return out


def gram_entries(E, ones=()):
    """``(conj(E), G)``: the upper triangle of ``G = E* E`` plus 1 on the diagonal at the columns ``ones``.

    ``E[i][a]`` are the rows of a frame as entry arrays over its leading axes
    (``G[a][b]`` for ``b >= a``, None below), in either field.
    """
    Ec, r = np.conj(E), E.shape[1]
    return Ec, [[entry_dot(Ec[:, a], E[:, b], int(a == b and a in ones)) if b >= a else None for b in range(r)]
                for a in range(r)]


# ---------------------------------------------------------------------------
# arrays: the dtype picks the arithmetic
# ---------------------------------------------------------------------------

_to_qc = np.frompyfunc(QC.of, 1, 1)
_real = np.frompyfunc(lambda x: x.real, 1, 1)
_abs2 = np.frompyfunc(lambda x: QC.of(x).abs2(), 1, 1)


def to_field(a, dtype=None) -> np.ndarray:
    """``a`` as an array over the exact or the complex field.

    With ``dtype`` object every entry becomes a ``QC`` (a float raises
    ``TypeError``), and an object array that holds only ``QC`` comes back
    itself, uncopied, as ``astype(copy=False)`` hands back a complex array;
    any other ``dtype`` converts as numpy does, ``QC`` entries through
    ``__complex__``.  Without ``dtype`` an object array is exact and
    anything else complex.
    """
    if type(a) is _Ints and np.dtype(dtype or object) == object:
        return a
    a = np.asarray(a)
    if dtype is None:
        dtype = object if a.dtype == object else complex
    if np.dtype(dtype) != object:
        return a.astype(dtype, copy=False)
    if a.dtype == object and all(type(x) is QC for x in a.flat):
        return a
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


def _object_array(xs: list, shape) -> np.ndarray:
    return np.fromiter(xs, dtype=object, count=len(xs)).reshape(shape)


def _cleared(xs) -> Tuple[list, list, int]:
    """``(re, im, D)``: exact entries (``QC``, ints, ``Fraction``s) as Gaussian integers ``re + i im`` over one ``D``.

    ``D`` is the lcm of the entries' denominators.
    """
    zs = [x if type(x) is QC else QC.of(x) for x in xs]
    D = lcm(*(z.d for z in zs))
    if D == 1:
        return [z.a for z in zs], [z.b for z in zs], 1
    scales = [D // z.d for z in zs]
    return [z.a * s for z, s in zip(zs, scales)], [z.b * s for z, s in zip(zs, scales)], D


class _Ints:
    """An exact array (..., *inner) as Gaussian integers: per cell of ``lead``, ``cells[p] = (re, im, D)``, the
    row-major numerators of its ``inner`` entries over one ``D > 0``, never written in place.  ``dtype`` object."""

    __slots__ = ("lead", "inner", "cells")
    dtype = np.dtype(object)
    shape = property(lambda self: self.lead + self.inner)
    ndim = property(lambda self: len(self.shape))

    def __init__(self, lead: tuple, inner: tuple, cells: list):
        self.lead, self.inner, self.cells = lead, inner, cells

    def reshape(self, shape) -> "_Ints":
        return _Ints(self.lead, tuple(shape[len(self.lead):]), self.cells)

    def __getitem__(self, key) -> "_Ints":          # x[..., j] of a vector form
        return _Ints(self.lead, (), [([re[key[1]]], [im[key[1]]], D) for re, im, D in self.cells])

    def __truediv__(self, k: int) -> "_Ints":
        return _Ints(self.lead, self.inner, [(re, im, D * k) for re, im, D in self.cells])

    def __sub__(self, ints: np.ndarray) -> "_Ints":  # minus an int array of the inner shape
        o = ints.ravel().tolist()
        return _Ints(self.lead, self.inner, [([a - D * x for a, x in zip(re, o)], im, D) for re, im, D in self.cells])

    def placed(self, inner: tuple, terms, ones=(), scale: int = 1) -> "_Ints":
        """Per cell, shape ``inner`` over ``D scale``: entry p sums ``(a + b i) x_k`` over ``terms``, plus 1 at ``ones``."""
        def cell(re, im, D):
            xr, xi = [0] * prod(inner), [0] * prod(inner)
            for p in ones:
                xr[p] = D * scale
            for p, k, a, b in terms:
                xr[p] += a * re[k] - b * im[k]
                xi[p] += a * im[k] + b * re[k]
            return xr, xi, D * scale

        return _Ints(self.lead, inner, [cell(*c) for c in self.cells])

    def qc(self) -> np.ndarray:
        return _object_array([_reduced(a, b, D) if a or b else ZERO for re, im, D in self.cells
                              for a, b in zip(re, im)], self.shape)


def _ints(a, k: int) -> _Ints:
    """An exact value or array with ``k`` inner axes as ``_Ints``, one ``_cleared`` per cell; an ``_Ints`` as it is."""
    if type(a) is _Ints:
        return a
    if type(a) is QC or type(a) is int or type(a) is Fraction:   # one scalar: no array
        a = QC.of(a)
        return _Ints((), (), [([a.a], [a.b], a.d)])
    a = np.asarray(a)
    lead, inner = a.shape[:a.ndim - k], a.shape[a.ndim - k:]
    return _Ints(lead, inner, [_cleared(x) for x in a.reshape(prod(lead), prod(inner)).tolist()])


def _flat_index(shape, lead) -> list:
    """For each cell of the leading shape ``lead``, the flat index of the entry of ``shape`` broadcast to it."""
    if shape == lead:
        return list(range(prod(lead)))
    return np.broadcast_to(np.arange(prod(shape)).reshape(shape), lead).ravel().tolist()


def nilpotent_series(M, v, scales):
    """``(acc, rest)``: ``acc = v + sum_k term_k``, ``term_k = s_k M term_(k-1)``, ``term_0 = v``, batched as ``@``.

    ``M`` (..., d, d), ``v`` (..., d, c) and the scales () or (...) broadcast.  At the first term that is
    zero in every row, ``acc`` has it added and ``rest`` is None; else ``rest`` is the last term.  Complex:
    ``s_k * np.matmul(M, term)``.  Exact: per cell, ``M`` and ``v`` as ``_Ints``, terms and sum in ints over a
    growing denominator, the sum reduced once; ``_Ints`` out if ``M`` or ``v`` is one, else one ``QC`` per entry.
    """
    if M.dtype != object:
        acc = term = v
        for s in scales:
            term = np.asarray(s)[..., None, None] * np.matmul(M, term)
            if not np.count_nonzero(term):
                return acc + term, None
            acc = acc + term
        return acc, term
    ints, (M, v) = type(M) is _Ints or type(v) is _Ints, (_ints(M, 2), _ints(v, 2))
    d, c = v.inner
    n, mats, offsets, cells = d * c, [], list(range(c)) * d, None
    for re, im, D in M.cells:                       # per entry of a term, the (i c, re, im) of its column of M
        columns = [[] for _ in range(d)]
        for k, x, y in zip(range(d * d), re, im):
            if x or y:
                columns[k % d].append((k // d * c, x, y))
        mats.append(([col for col in columns for _ in range(c)], D))
    for s in scales:
        if cells is None:                           # per cell: [matrix, term, sum, denominator]
            leads = (M.lead, v.lead, getattr(s, "shape", ()))
            lead = np.broadcast_shapes(*leads) if any(leads) else ()
            cells, live = [[mats[m], v.cells[b][:2], v.cells[b][:2], v.cells[b][2]] for m, b in
                           zip(_flat_index(M.lead, lead), _flat_index(v.lead, lead))], range(prod(lead))
        s = _ints(s.item() if type(s) is np.ndarray and not s.ndim else s, 0)
        ss = s.cells * prod(lead) if not s.lead else [s.cells[i] for i in _flat_index(s.lead, lead)]
        live, last = [], live
        for m in last:
            (columns, DM), (tr, ti), (ar, ai), D = cell = cells[m]
            ((sa,), (sb,), sd), yr, yi = ss[m], [0] * n, [0] * n
            for o, column, x, y in zip(offsets, columns, tr, ti):  # M (s term): each nonzero entry, scaled, times its column
                if x or y:
                    if sb or sa != 1:
                        x, y = sa * x - sb * y, sa * y + sb * x
                    for i, mr, mi in column:
                        yr[i + o] += mr * x - mi * y
                        yi[i + o] += mr * y + mi * x
            cell[1], f = (yr, yi), DM * sd
            if any(yr) or any(yi):
                cell[2:] = ([a * f + x for a, x in zip(ar, yr)], [a * f + y for a, y in zip(ai, yi)]), D * f
                live.append(m)
        if not live:
            break
    acc = _Ints(lead, (d, c), [([a // g for a in re], [b // g for b in im], D // g)      # the sum in lowest terms
                               for (re, im), D in (cell[2:] for cell in cells) for g in (gcd(D, *re, *im),)])
    rest = _Ints(lead, (d, c), [(*cell[1], cell[3]) for cell in cells]) if live else None
    return (acc, rest) if ints else (acc.qc(), rest if rest is None else rest.qc())


def diagonal_form(weights):
    """``v -> sum_i weights_i |v_i|^2`` over the last axis of ``v`` (..., d), for fixed rational weights.

    Complex: ``np.sum(weights * np.abs(v) ** 2, axis=-1)``.  Exact (``QC`` or ``_Ints``): each row as Gaussian
    integers over one ``D``, integer weights over one ``q``, one ``Fraction`` per row.
    """
    w = np.array(weights, dtype=float)
    q = lcm(*(Fraction(x).denominator for x in weights))
    p = [int(Fraction(x) * q) for x in weights]

    def exact(v):
        v = _ints(v, 1)
        out = [Fraction(sum(map(mul, p, map(add, map(mul, re, re), map(mul, im, im)))), q * D * D) for re, im, D in v.cells]
        return _object_array(out, v.lead) if v.lead else out[0]

    return lambda v: np.sum(w * np.abs(v) ** 2, axis=-1) if v.dtype != object else exact(v)


def squared_norms(F):
    """Squared column norms of frames (..., N, r) whose row 0 is the constant 1: (..., r); exact, each frame cleared once."""
    if F.dtype != object:
        return sum((abs2(F[..., i, :]) for i in range(1, F.shape[-2])), 1)       # row by row from that 1
    F, r = _ints(F, 2), F.shape[-1]
    return _object_array([Fraction(sum(map(mul, re[a::r], re[a::r])) + sum(map(mul, im[a::r], im[a::r])), D * D)
                          for re, im, D in F.cells for a in range(r)], F.lead + (r,))


def relation_residual(i, j):
    """``v -> max_r modulus(sum_l w[..., i[l, r]] v[..., j[l, r]])``, ``w = [v, -v, 0]``, per row of ``v`` (..., d).

    ``i`` and ``j`` (terms, relations) place the terms; ``i`` reads ``w``, so it carries each term's sign and
    padding reads its 0.  Complex: one array product per term position.  Exact: each row as Gaussian integers
    over one ``D``, each relation ``R_r`` summed in ints, one ``Fraction`` per row, ``max_r |D^2 R_r|^2 / D^4``.
    """
    relations = [list(zip(a, b)) for a, b in zip(i.T.tolist(), j.T.tolist())]

    def residual(v):
        if v.dtype != object:
            w = np.concatenate([v, -v, np.zeros_like(v[..., :1])], axis=-1)     # summed term by term, from 0
            return np.max(modulus(sum(w[..., a] * v[..., b] for a, b in zip(i, j))), axis=-1)
        out = []
        for re, im, D in _ints(v, 1).cells:
            wr, wi, worst = re + [-x for x in re] + [0], im + [-x for x in im] + [0], 0
            for relation in relations:
                x = y = 0
                for a, b in relation:
                    x, y = x + wr[a] * re[b] - wi[a] * im[b], y + wr[a] * im[b] + wi[a] * re[b]
                worst = max(worst, x * x + y * y)
            out.append(Fraction(worst, D ** 4))
        return out[0] if v.ndim == 1 else _object_array(out, v.shape[:-1])

    return residual


def leading_gram_minors(E, ones=()):
    """Leading principal minors ``det G[:k, :k]``, k = 1..r, of ``G = E* E`` plus 1 at the columns ``ones``: (..., r).

    ``E[i][a]`` are the rows of frames (..., N, r) as entry arrays, as
    ``gram_entries`` reads them.  Complex: running products of the pivots of
    ``hermitian_elimination`` on ``gram_entries``.  Exact: per frame, the
    entries are cleared to Gaussian integers over one ``D``, ``D^2 G`` is
    formed in ints (``D^2`` at ``ones``), and Bareiss elimination takes its
    minors: each step divides exactly by the previous pivot, a leading minor
    of a Hermitian positive definite matrix and so a positive int.  The only
    gcd is the one of each minor's ``Fraction``, ``det_k / D^(2k)``.
    """
    if E.dtype != object:
        out, det = [], 1
        for pivot in hermitian_elimination(gram_entries(E, ones)[1])[0]:
            det = det * pivot
            out.append(det)
        return np.stack(out, axis=-1)
    N, r = E.shape[:2]
    out = []
    for frame in E.reshape(N * r, -1).T.tolist():
        re, im, D = _cleared(frame)                 # entry (i, a) at i * r + a
        D2, cols = D * D, [(re[a::r], im[a::r]) for a in range(r)]
        Gr, Gi = [[0] * r for _ in range(r)], [[0] * r for _ in range(r)]
        for a, (xa, ya) in enumerate(cols):         # conj(x_a + i y_a)(x_b + i y_b), upper triangle
            for b in range(a, r):
                xb, yb = cols[b]
                Gr[a][b] = sum(map(mul, xa, xb)) + sum(map(mul, ya, yb)) + (D2 if a == b and a in ones else 0)
                Gi[a][b] = sum(map(mul, xa, yb)) - sum(map(mul, ya, xb))
        prev, scale = 1, 1
        for k in range(r):                          # G[k][k] is now the (k + 1)-th leading minor of D^2 G
            p, scale = Gr[k][k], scale * D2
            out.append(Fraction(p, scale))
            for i in range(k + 1, r):               # G[i][j] = (p G[i][j] - conj(G[k][i]) G[k][j]) / prev, j >= i
                ur, ui = Gr[k][i], Gi[k][i]
                for j in range(i, r):
                    wr, wi = Gr[k][j], Gi[k][j]
                    Gr[i][j] = (p * Gr[i][j] - ur * wr - ui * wi) // prev
                    Gi[i][j] = (p * Gi[i][j] - ur * wi + ui * wr) // prev
            prev = p
    return _object_array(out, E.shape[2:] + (r,))


def power_product(hs, exponents):
    """``prod_i hs[..., i] ** exponents[i]`` over the last axis of ``hs``, for fixed positive rational exponents.

    Floats, or any exponent not an integer: term by term from ``1``, each ``**`` in the arithmetic of ``hs``
    (``like``).  Exact with integer exponents: per row, int powers of each numerator and denominator and one
    ``Fraction``; a single row (``hs`` 1-d) gives the ``Fraction`` itself.
    """
    if hs.dtype != object or any(e.denominator != 1 for e in exponents):
        out = 1
        for i, e in enumerate(exponents):
            out = out * hs[..., i] ** like(e, hs)
        return out
    out = []
    for row in hs.reshape(-1, len(exponents)).tolist():
        num = den = 1
        for h, e in zip(row, exponents):
            num *= h.numerator ** e.numerator
            den *= h.denominator ** e.numerator
        out.append(Fraction(num, den))
    return out[0] if hs.ndim == 1 else _object_array(out, hs.shape[:-1])


def like(c: Fraction, x):
    """The exact constant ``c`` in the arithmetic of ``x``: unchanged beside exact values, else a float."""
    return c if (x.dtype if hasattr(x, "dtype") else np.asarray(x).dtype) == object else float(c)


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

