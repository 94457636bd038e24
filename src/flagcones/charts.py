"""Big-cell coordinate charts and the catalog of Kahler potentials.

Every catalog geometry carries its fundamental potentials
``h_alpha(z) = |n(z) v_alpha|^2`` on the opposite big cell (normalised so
``h_alpha(0) = 1``), plus a representation-theoretic path that evaluates
the same quantity through the module machinery.  Each ``h_alpha`` is a
Gram determinant of a holomorphic frame.  Both paths run the same code
over arrays batched over the leading axes of ``z``, and the dtype of ``z``
picks the arithmetic (see ``exact``): an object array of ``QC`` gives exact
potentials (``Fraction``s), anything else complex frames and float
potentials.  ``exact.rows`` is the single-point rule of ``h_closed`` and
the ``PotentialSpec`` potentials: a single float point runs as a batch of
one, so it rounds exactly as the same point inside a batch.

* type-A flag manifolds ``GL(n+1)/P`` (projective spaces, Grassmannians,
  partial and full flags) share one block big cell: the blocks
  ``(k1, k2 - k1, ..., n + 1 - kr)`` for the simple roots ``k1 < ... < kr``
  outside Theta, one coordinate at every position left of its row's block.
  ``h_s`` is the ``k_s``-th leading Gram minor of the first ``kr`` columns
  of ``n(z)``, and ``gram_minors`` gives all of them in one elimination;
* quadrics take the isotropic section ``(1, zeta / s, q(zeta)/4)`` with
  ``|s|^2 = 2`` (``s = 1 + i`` on the exact path, ``sqrt 2`` in floats);
* products take ``[1; z_j]`` per factor.

``Chart.frames`` pairs the same frames with their Jacobians, and
``log_gram_jets`` turns them into closed-form ``d log h`` and ``ddbar log h``
in either field, the analytic Kahler layer under the verification suites.
Both layers read the Gram entries of the frame rows that carry coordinates.
In floats both run one Hermitian elimination (``exact.hermitian_elimination``):
``gram_minors`` takes running products of its pivots, ``log_gram_jets``
back-substitutes for ``G^-1`` and hands back ``h``, the product of the
pivots.  Exact ``gram_minors`` eliminates in Gaussian integers instead
(``exact.leading_gram_minors``).  Each ``d_a F`` of
a wedge or product frame is one matrix unit, so their jets are gathers
through index tables built once per chart, with no LAPACK call per matrix;
the quadric section's jets are closed forms in ``z``.  Every jet has one
layout: entry arrays with the batch axes last, so each elementwise loop
runs over the batch, handed out as batch-first views.  A ``PotentialSpec``
combines a chart with bundle exponents and an outer cone exponent ``b``:

    K_1(z, w) = prod_alpha h_alpha(z)^(e_alpha) * |w|^2,
    K_b(z, w) = K_1(z, w)^b.

Catalog identifiers: ``cp:m``, ``grassmann:n:k``, ``fullflag:A:n``,
``flag:A:n:k1,...,kr``, ``quadric:N``, ``conifold``, and the aliases
``gr24`` (= grassmann:3:2), ``wallach`` (= fullflag:A:2), ``hopf:cpM``
(= cp:M).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import mul
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .exact import (ONE, ZERO, _Ints, _cleared, _ints, abs2, entry_dot, gram_entries, hermitian_elimination,
                    hermitian_inverse, leading_gram_minors, like, nilpotent_series, power_product, rows,
                    squared_norms, to_field)
from .reps import (RepSpace, act, derivation_matrix, outer_tensor, sl2_module,
                   so_radical_basis, so_vector_module, wedge_module)
from .roots import ConfigurationError, build_root_system, flag


class DomainError(ValueError):
    """Inputs outside the chart or bundle preconditions."""


# ---------------------------------------------------------------------------
# potential building blocks: big-cell frames and their Gram minors
# ---------------------------------------------------------------------------

def _big_cell(n: int, slots, z, cols: Optional[int] = None) -> np.ndarray:
    """The first ``cols`` (default all) columns of n(z) = 1 + sum_a z_a E_(slot_a) in GL(n+1).

    ``slots`` gives the (row, col) position of each coordinate below the
    diagonal, every col below ``cols``.  Batched over the leading axes of
    ``z``, in its dtype: a cached identity, copied, with ``z`` scattered in; for ``exact._Ints`` the same in ints.
    """
    r = n + 1 if cols is None else cols
    eyes, index = _cell_template(n, slots, r)
    if type(z) is _Ints:
        return z.placed((n + 1, r), [(p, k, 1, 0) for k, p in enumerate(index.tolist())], range(0, r * (r + 1), r + 1))
    M = np.empty(z.shape[:-1] + ((n + 1) * r,), dtype=z.dtype)
    M[...] = eyes[z.dtype]
    M[..., index] = z
    return M.reshape(z.shape[:-1] + (n + 1, r))


@lru_cache(maxsize=None)
def _cell_template(n: int, slots, r: int) -> tuple:
    """The first r identity columns of GL(n+1), flat and in both fields, and the flat index of the slots."""
    eye = np.array([ONE if i == j else ZERO for i in range(n + 1) for j in range(r)], dtype=object)
    return _both_fields(_read_only(eye)), _read_only(np.array([i * r + j for i, j in slots]))


@lru_cache(maxsize=None)
def _block_slots(n: int, ks: Tuple[int, ...]) -> tuple:
    """Row by row, every position (i, j) with j left of the first column of row i's block.

    The diagonal blocks of GL(n+1) are ``(k1, k2 - k1, ..., n + 1 - kr)``;
    ``ks = (k,)`` gives the row-major block below ``1_k``, ``ks = (1, ..., n)``
    the strictly lower triangle.
    """
    starts = (0,) + ks
    return tuple((i, j) for i in range(n + 1) for j in range(max(s for s in starts if s <= i)))


class UnitTables(NamedTuple):
    """Index tables of ``log_gram_jets`` for a frame with unit Jacobians, built once per chart.

    The frame is the first r columns of the identity plus each coordinate
    at its unit; ``rows`` carry coordinates, the others are identity rows
    with their 1 in the columns ``ones``.  Row-major, u indexing ``rows``:
    ``grad[a]`` indexes ``(G^-1 F*)[col, u]`` at ``(col_a, u_a)`` (``r * len(rows)``
    off the frame), ``hess[a, b]`` indexes ``P[u, u']`` at ``(u_b, u_a)`` and
    ``cols[a, b]`` ``G^-1[col, col']`` at ``(col_a, col_b)`` (-1 off the frame).
    """

    rows: np.ndarray
    ones: tuple
    grad: np.ndarray
    hess: np.ndarray
    cols: np.ndarray


def _unit_tables(rows, cols, on, r: int) -> UnitTables:
    """``d_a F = E(rows_a, cols_a)`` where ``on_a``, else zero, for a frame of r columns."""
    urows = sorted(set(rows[on].tolist()))
    u, nu = np.array([urows.index(i) if o else 0 for i, o in zip(rows.tolist(), on)]), len(urows)
    grad = np.where(on, cols * nu + u, r * nu)
    cc = np.where(~on[:, None] | ~on, -1, cols[:, None] * r + cols)
    return UnitTables(_read_only(np.array(urows)), tuple(sorted(set(range(r)) - set(urows))),
                      *map(_read_only, (grad, u * nu + u[:, None], cc)))


@lru_cache(maxsize=None)
def _frame_tables(n: int, ks: Tuple[int, ...]) -> tuple:
    """Per generator of the block chart: the ``UnitTables`` of its frame, the first ``k_s`` columns of n(z)."""
    rows, cols = map(np.array, zip(*_block_slots(n, ks)))
    return tuple(_unit_tables(rows, cols, cols < k, k) for k in ks)


@lru_cache(maxsize=None)
def _product_tables(m: int) -> tuple:
    """Per factor j of a product of m projective lines: the ``UnitTables`` of ``[1; z_j]``."""
    rows, cols = np.ones(m, dtype=int), np.zeros(m, dtype=int)
    return tuple(_unit_tables(rows, cols, np.arange(m) == j, 1) for j in range(m))


def _frame_rows(F, units=None):
    """``(E, ones)``: frame rows ``E[i][a] = F[..., i, a]`` as entry arrays, and the columns of the identity rows.

    With ``units`` only the rows that carry coordinates are read; each
    identity row's 1 goes on the Gram diagonal at its column in ``ones``.
    """
    E = _roll_axes(np.asarray(F), -2)
    return (E, ()) if units is None else (E[units.rows], units.ones)


def _roll_axes(a: np.ndarray, k: int) -> np.ndarray:
    """A view of ``a`` with its axes rolled left by k (cheaper than ``np.moveaxis``)."""
    axes = tuple(range(a.ndim))
    return a.transpose(axes[k:] + axes[:k])


def log_gram_jets(F, jac):
    """``(d_a log h, d_a dbar_b log h)`` of ``h = det G``, ``G = F* F``, batched over leading axes.

    ``(F, jac)`` is a pair of ``Chart.frames``: a holomorphic frame (..., N, r)
    in either field and its Jacobians.  With ``P = 1 - F G^-1 F*``,
    ``d_a log h = tr(G^-1 F* d_a F)`` and ``d_a dbar_b log h = tr(G^-1 (d_b F)* P d_a F)``.
    Wedge and product frames (``jac`` a ``UnitTables``) have unit Jacobians
    ``d_a F = E(row_a, col_a)`` or zero: at the frame rows that carry coordinates,
    the gradient gathers ``(G^-1 F*)[col_a, row_a]`` and each Hessian entry is
    one product ``P[row_b, row_a] G^-1[col_a, col_b]`` written into one array.
    ``G^-1`` comes from the Hermitian elimination of ``exact`` on the Gram
    entry arrays (the one float ``gram_minors`` runs) and back-substitution, so
    no call is made per matrix; these frames also hand back ``h``, the product
    of its pivots, bit for bit the float minor of ``gram_minors`` (and equal to
    the exact one).  The quadric section
    (``jac = z / 2``) takes the closed forms of ``_quadric_log_jets``, with no
    Gram inverse.  Both form ``grad`` (n_z, ...) and ``hess`` (n_z, n_z, ...) as
    entry arrays, the batch axes last, and return them as batch-first views.
    """
    if not isinstance(jac, UnitTables):
        return _quadric_log_jets(F[..., 0], jac)
    E, ones = _frame_rows(F, jac)
    Ec, G = gram_entries(E, ones)
    pivots, L = hermitian_elimination(G)
    Ginv, h = hermitian_inverse(pivots, L), functools.reduce(np.multiply, pivots)
    del pivots, L                       # free the elimination before the large temporaries below
    A = [[entry_dot(row, e) for e in Ec] for row in Ginv]             # (G^-1 F*)[j, rows_u]
    flat = [x for row in A for x in row] + [np.zeros_like(A[0][0])]
    grad = np.stack([flat[k] for k in jac.grad.tolist()])
    At, P = list(zip(*A)), [[None] * len(E) for _ in E]               # P[u][v] = P[rows_u, rows_v], Hermitian
    for u, v in combinations_with_replacement(range(len(E)), 2):
        P[u][v] = int(u == v) - entry_dot(E[u], At[v])
        P[v][u] = np.conj(P[u][v])
    P, Ginv = [x for row in P for x in row], [x for row in Ginv for x in row]
    hess = np.zeros(jac.cols.shape + grad.shape[1:], grad.dtype)       # each entry written once
    for (a, b), c in np.ndenumerate(jac.cols):
        if c >= 0:
            np.multiply(P[jac.hess[a, b]], Ginv[c], out=hess[a, b])
    return _roll_axes(grad, 1), _roll_axes(hess, 2), h


def _quadric_log_jets(s, half_z):
    """``log_gram_jets`` of the quadric section ``s = (1, z/sqrt2, q/4)`` (..., N), from ``half_z = z/2`` (..., m).

    With ``u_a = d_a s = (0, e_a/sqrt2, z_a/2)``, ``h = |s|^2``,
    ``c_a = s* u_a = zbar_a/2 + qbar z_a/8`` and ``u_b* u_a = delta_ab/2 + zbar_b z_a/4``:
    ``d_a log h = c_a / h`` and ``d_a dbar_b log h = (delta_ab/2 + z_a zbar_b/4)/h - grad_a conj(grad_b)``.
    ``z/2`` is transposed once into entry arrays, as ``log_gram_jets`` lays out every jet; ``h`` sums
    the contiguous entry axis of ``s``, where numpy sums 8 or more terms pairwise, not in order.
    """
    inv_h = 1 / np.sum(abs2(s), axis=-1)
    hz = np.ascontiguousarray(_roll_axes(half_z, -1))
    grad = (np.conj(hz) + np.conj(s[..., -1]) * hz) * inv_h
    delta = to_field(np.eye(len(hz), dtype=int), hz.dtype).reshape((len(hz),) * 2 + (1,) * (hz.ndim - 1)) / 2
    hess = (hz[:, None] * np.conj(hz) + delta) * inv_h
    hess -= grad[:, None] * np.conj(grad)
    return _roll_axes(grad, 1), _roll_axes(hess, 2)


def gram_minors(F, units=None):
    """Leading principal minors ``det G[:k, :k]``, k = 1..r, of ``G = F* F``: shape (..., r).

    ``F`` is an (..., N, r) frame.  By Cauchy-Binet the k-th minor is the
    sum of squared k x k minors of the first k columns.  With the frame's
    ``UnitTables`` only its coordinate rows are read (``_frame_rows``), bit
    for bit as the whole frame: the identity rows add exact zeros.  The
    field rule is ``exact.leading_gram_minors``: running products of the
    pivots of ``exact.hermitian_elimination`` on Gram entry arrays over the
    leading axes of ``F`` in floats, and for exact frames Bareiss elimination
    of ``D^2 G`` in Gaussian integers, one ``Fraction`` per minor.
    """
    return leading_gram_minors(*_frame_rows(F, units))


def nilpotent_log(M, dim: int):
    """log(1 + X) for strictly triangular X = M - 1, batched: ``exact.nilpotent_series`` of the terms ``(-1)^(k+1) X^k / k``."""
    X = M - np.eye(M.shape[-1], dtype=int)
    out, rest = nilpotent_series(X, X, (like(Fraction(1 - k, k), X) for k in range(2, dim + 2)))
    if rest is not None:
        raise DomainError("matrix is not unipotent")
    return out


# ---------------------------------------------------------------------------
# the chart catalog
# ---------------------------------------------------------------------------

@dataclass
class Chart:
    """A big-cell chart with bundle generators and both potential paths."""

    name: str
    kind: str                       # wedge | quadric | product
    n_z: int
    n_gen: int
    m: int                          # complex dimension of the base
    fano: int
    delta_pairings: Tuple[int, ...]
    params: dict
    _cache: dict = field(default_factory=dict, repr=False, compare=False)     # built on first use

    def _wedge(self):
        """``(n, ks, slots)``: n(z) in GL(n+1) on the block slots; generator s reads the first ``ks[s]`` columns."""
        n, ks = self.params["n"], self.params["ks"]
        return n, ks, _block_slots(n, ks)

    def _frame(self, z):
        """The one frame builder: ``(F, ks)``, F (..., N, r) in the dtype of ``z``.

        A wedge chart's ``h_s`` is the ``ks[s]``-th leading Gram minor of its
        widest frame, the first ``kr`` columns of n(z).  Otherwise ``ks`` is
        None and each column is its own frame with ``h`` its squared norm: the
        quadric section ``(1, zeta / s, q(zeta)/4)``, ``|s|^2 = 2``, or
        ``[1; z_j]`` per product factor.
        """
        if self.kind == "wedge":
            n, ks, slots = self._wedge()
            return _big_cell(n, slots, z, cols=ks[-1]), ks
        if self.kind == "quadric":
            if z.dtype == object:
                return _exact_quadric_section(z).qc(), None
            s = np.concatenate([np.ones(z.shape[:-1] + (1,), dtype=z.dtype), z / np.sqrt(2.0),
                                np.sum(z * z, axis=-1, keepdims=True) / 4], axis=-1)
            return s[..., None], None
        F = np.empty(z.shape[:-1] + (2, self.n_z), dtype=z.dtype)
        F[..., 0, :], F[..., 1, :] = ONE, z
        return F, None

    @rows(1)
    def h_closed(self, z):
        """Fundamental potentials, the Gram determinants of the chart frames: shape (..., n_gen).

        Wedge charts read the widest frame's coordinate rows (its ``UnitTables``).
        ``Fraction``s in an object array when ``z`` is exact (see ``exact.to_field``);
        the exact quadric section goes to ``squared_norms`` as the Gaussian integers it is built in.
        """
        if z.shape[-1] != self.n_z:
            raise DomainError(f"{self.name} needs {self.n_z} coordinates")
        if self.kind == "quadric" and z.dtype == object:
            return squared_norms(_exact_quadric_section(z))
        F, ks = self._frame(z)
        if ks is None:
            return squared_norms(F)
        return gram_minors(F, _frame_tables(self.params["n"], ks)[-1])[..., [k - 1 for k in ks]]

    def frames(self, z) -> list:
        """Holomorphic frames with their Jacobians, ``(F_alpha, jac)`` with ``h_alpha = det(F_alpha* F_alpha)``.

        Batched over the leading axes of ``z``, in its dtype (``exact.to_field``).
        ``jac`` is what ``log_gram_jets`` reads of ``d_a F_alpha``: the read-only
        ``UnitTables`` of the chart for wedge and product frames, whose every
        ``d_a F_alpha`` is one matrix unit or zero, and ``z / 2`` for the quadric
        section, whose ``d_a s = (0, e_a/sqrt2, z_a/2)``.
        """
        z = to_field(z)
        F, ks = self._frame(z)
        if self.kind == "wedge":
            return [(F[..., :k], units) for k, units in zip(ks, _frame_tables(self.params["n"], ks))]
        if self.kind == "quadric":
            return [(F, z / 2)]
        return [(F[..., j:j + 1], units) for j, units in enumerate(_product_tables(self.n_z))]

    def h_closed_exact(self, z) -> Tuple[Fraction, ...]:
        """``h_closed`` at a Gaussian-rational point (a list of ``QC``): a tuple of ``Fraction``s."""
        return tuple(self.h_closed(to_field(z, object)))

    # -- representation path ------------------------------------------------

    def rep(self, gen: int) -> RepSpace:
        """The module of Picard generator ``gen``; the builders cache each module."""
        if self.kind == "wedge":
            return wedge_module(self.params["n"], self.params["ks"][gen])
        if self.kind == "quadric":
            return so_vector_module(self.params["N"])
        return wedge_module(1, 1)     # product factors are projective lines

    def word_element(self, gen: int, z):
        """Algebra element X(z) whose exponential is the big-cell section, batched over the leading axes of ``z``."""
        z = to_field(z)
        if self.kind == "wedge":
            return derivation_matrix(self.params["n"], self.params["ks"][gen], self._big_cell_log(z))
        if self.kind == "quadric":
            N = self.params["N"]
            owner, i, j, entries = _radical_entries(N)
            if type(z) is _Ints:
                er, ei, De = _cleared(entries[np.dtype(object)].tolist())
                return z.placed((N, N), list(zip((i * N + j).tolist(), owner.tolist(), er, ei)), scale=De)
            X = np.full(z.shape[:-1] + (N, N), ZERO, dtype=z.dtype)
            X[..., i, j] = z[..., owner] * entries[z.dtype]
            return X
        # product: the z_gen-th factor lowering operator
        if type(z) is _Ints:
            return z.placed((2, 2), [(2, gen, 1, 0)])
        return z[..., gen, None, None] * to_field([[0, 0], [1, 0]], z.dtype)

    def _big_cell_log(self, z):
        """log n(z) of a wedge chart's big-cell section: every generator's word element is its derivation."""
        n, _, slots = self._wedge()
        return nilpotent_log(_big_cell(n, slots, z), n + 1)

    def generic_h(self, gen: int, z, exact: bool = False):
        """|exp(X(z)) v+|^2 / |v+|^2 through the module machinery; ``exact`` reads ``z`` as Gaussian rationals."""
        return self._h_of(gen, self.word_element(gen, _ints(z, 1) if exact else to_field(z, complex)))

    def _h_of(self, gen: int, X):
        """|exp(X) v+|^2 / |v+|^2 in the module of generator ``gen``, in the field of the word element ``X``."""
        rep = self.rep(gen)
        v = rep._cached("hw_ints", lambda: _ints(rep.hw_raw, 1)) if X.dtype == object else to_field(rep.hw_raw, X.dtype)
        ns = rep.norm_sq(act(rep, [(X, 1)], v))
        return ns / like(rep.hw_norm_sq, ns)

    def embedding_rep(self, exponents: Tuple[Fraction, ...]):
        """Module and word builder for the cone embedding of this bundle.

        Supported: one generator at exponent 1 (its fundamental module),
        and projective-line charts as Deligne products of sl(2) modules:
        cp:1 at any integer exponent, the conifold at (1, 1).  Anything
        else, a fractional exponent included, raises ``ConfigurationError``.
        Returns ``(rep, word(z))`` with ``word(z)`` a list of
        ``(matrix, parameter)`` pairs in the dtype of ``z``; for ``z``
        (..., n_z) the matrices or parameters carry its leading axes.  The
        pair is built once per chart and exponents and kept in ``_cache``;
        its constant complex matrices are read-only.
        """
        key = ("embedding", tuple(exponents))
        if key not in self._cache:
            self._cache[key] = self._build_embedding(key[1])
        return self._cache[key]

    def _build_embedding(self, ell: Tuple[Fraction, ...]):
        if self.n_gen == 1 and ell[0] == 1:
            return self.rep(0), lambda z: [(self.word_element(0, z), 1)]
        if not (self.kind == "wedge" and self.params["n"] == 1 or self.kind == "product" and ell == (1, 1)):
            raise ConfigurationError(f"no embedding module implemented for {self.name} with exponents {ell}")
        if any(e.denominator != 1 for e in ell):
            raise ConfigurationError(f"projective lines embed at integer exponents, got {', '.join(map(str, ell))}")
        rep = functools.reduce(outer_tensor, [sl2_module(int(e)) for e in ell])
        lowering = [_both_fields(rep.simple[j + 1][1]) for j in range(len(ell))]

        def word(z):
            z = to_field(z)
            return [(F[z.dtype], z[..., j]) for j, F in enumerate(lowering)]

        return rep, word


def _exact_quadric_section(z) -> _Ints:
    """The quadric section ``(1, z / (1 + i), q / 4)`` at exact points z (..., m) as ``_Ints`` (..., m + 2, 1).

    ``1 + i`` stands for the float section's ``sqrt 2`` (``|s|^2 = 2``) and keeps it rational.  Per point,
    ``z = (a + b i) / D`` is cleared once and the section built as Gaussian-integer numerators over ``4 D^2``:
    ``2D (a + b + (b - a) i)`` for ``z / (1 + i)`` and ``sum (a^2 - b^2) + 2 i sum a b`` for ``q = sum_j z_j^2``.
    """
    z = _ints(z, 1)
    cells = []
    for re, im, D in z.cells:
        s = 2 * D
        q = sum(map(mul, re, re)) - sum(map(mul, im, im)), 2 * sum(map(mul, re, im))
        cells.append(([s * s] + [s * (a + b) for a, b in zip(re, im)] + [q[0]],
                      [0] + [s * (b - a) for a, b in zip(re, im)] + [q[1]], s * s))
    return _Ints(z.lead, (z.inner[0] + 2, 1), cells)


@lru_cache(maxsize=None)
def _radical_entries(N: int) -> tuple:
    """``(owner, i, j, entries)`` of ``sum_j z_j Y_j``: the ``so_radical_basis(N)`` are nonzero at disjoint positions."""
    where = np.nonzero(Y := np.stack(so_radical_basis(N)))
    return tuple(map(_read_only, where)) + (_both_fields(_read_only(Y[where])),)


def _both_fields(M: np.ndarray) -> dict:
    """An exact constant matrix and its read-only complex copy, keyed by dtype."""
    return {np.dtype(object): M, np.dtype(complex): _read_only(np.asarray(M, dtype=complex))}


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _flag_data(series: str, rank: int, theta: Tuple[int, ...]):
    """``flag(build_root_system(series, rank), theta)`` for a sorted ``theta``, built once per flag."""
    return flag(build_root_system(series, rank), theta)


def _chart_flag(n: int, ks: Tuple[int, ...], name: str) -> Chart:
    """GL(n+1)/P on the block big cell: ``ks = (k1 < ... < kr)`` are the simple roots outside Theta."""
    if not ks or not 1 <= ks[0] or not all(a < b for a, b in zip(ks, ks[1:])) or ks[-1] > n:
        raise ConfigurationError(f"need 1 <= k1 < ... < kr <= {n}, got {ks}")
    fd = _flag_data("A", n, tuple(i for i in range(1, n + 1) if i not in ks))
    return _on_flag(fd, name=name, kind="wedge", n_z=len(_block_slots(n, ks)), n_gen=len(ks), params={"n": n, "ks": ks})


def _chart_quadric(N: int) -> Chart:
    if N < 5:
        raise ConfigurationError("quadric chart requires N >= 5")
    n = N // 2
    fd = _flag_data("B" if N % 2 else "D", n, tuple(range(2, n + 1)))
    return _on_flag(fd, name=f"quadric:{N}", kind="quadric", n_z=N - 2, n_gen=1, params={"N": N})


def _on_flag(fd, **fields) -> Chart:
    """A chart over the flag manifold ``fd``, whose dimension, Fano index and delta pairings it carries."""
    return Chart(m=fd.dim_complex, fano=fd.fano_index, delta_pairings=tuple(int(p) for p in fd.delta_pairings), **fields)


def _chart_conifold() -> Chart:
    return Chart(
        name="conifold",
        kind="product",
        n_z=2,
        n_gen=2,
        m=2,
        fano=2,
        delta_pairings=(2, 2),
        params={},
    )


_ALIASES = {"gr24": "grassmann:3:2", "wallach": "fullflag:a:2"}


def catalog_ids() -> list:
    return ["cp:m", "grassmann:n:k", "fullflag:A:n", "flag:A:n:k1,...,kr", "quadric:N", "conifold",
            "gr24", "wallach", "hopf:cpM"]


def resolve_case(case: str) -> Chart:
    """Build the chart for a catalog identifier."""
    case = case.strip().lower()
    case = _ALIASES.get(case, case)
    if case.startswith("hopf:cp"):
        case = "cp:" + case[len("hopf:cp"):]
    parts = case.split(":")
    try:
        if parts[0] == "cp" and len(parts) == 2:
            m = int(parts[1])
            return _chart_flag(m, (1,), f"cp:{m}")
        if parts[0] == "grassmann" and len(parts) == 3:
            n, k = int(parts[1]), int(parts[2])
            return _chart_flag(n, (k,), f"grassmann:{n}:{k}")
        if parts[0] == "fullflag" and len(parts) == 3 and parts[1] == "a":
            n = int(parts[2])
            return _chart_flag(n, tuple(range(1, n + 1)), f"fullflag:A:{n}")
        if parts[0] == "flag" and len(parts) == 4 and parts[1] == "a":
            n, ks = int(parts[2]), tuple(int(k) for k in parts[3].split(","))
            return _chart_flag(n, ks, f"flag:A:{n}:{','.join(map(str, ks))}")
        if parts[0] == "quadric" and len(parts) == 2:
            return _chart_quadric(int(parts[1]))
        if parts == ["conifold"]:
            return _chart_conifold()
    except ValueError as exc:
        raise ConfigurationError(f"malformed case id {case!r}: {exc}") from exc
    raise ConfigurationError(f"unknown case id {case!r}")


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

@dataclass
class PotentialSpec:
    """K_b(z, w) = (prod_alpha h_alpha(z)^(e_alpha) |w|^2)^b."""

    chart: Chart
    exponents: Tuple[Fraction, ...]
    b: Fraction = Fraction(1)

    def __post_init__(self):
        if len(self.exponents) != self.chart.n_gen:
            raise ConfigurationError(
                f"{self.chart.name} needs {self.chart.n_gen} exponents, got {len(self.exponents)}")
        if any(e <= 0 for e in self.exponents):
            raise DomainError("bundle exponents must be positive for a negative line bundle")
        if self.b <= 0:
            raise DomainError("outer exponent must be positive")

    @property
    def n_z(self) -> int:
        return self.chart.n_z

    @property
    def real_dim(self) -> int:
        return 2 * self.chart.n_z + 2

    @rows(1)
    def h_L(self, z):
        """prod_alpha h_alpha^(e_alpha); exact (a ``Fraction``) at an exact ``z`` with integer exponents."""
        return power_product(self.chart.h_closed(z), self.exponents)

    def _K_of(self, h_L, w):
        """``K_b = (h_L |w|^2)^b`` in floats, batched: ``field`` on ``h_L(z)``, ``cone_jet`` on its own potentials."""
        return (h_L * np.abs(w) ** 2) ** float(self.b)

    @rows(1)
    def K1(self, z, w):
        return self.h_L(z) * abs2(w)

    @rows(1)
    def K(self, z, w):
        k1 = self.K1(z, w)
        return k1 ** like(self.b, k1)

    def field(self) -> Callable[[np.ndarray], np.ndarray]:
        """Batched potential over real points (Re z_1, Im z_1, ..., Re w, Im w)."""
        def F(points: np.ndarray) -> np.ndarray:
            z, w = decode_points(points, self.chart.n_z)
            return self._K_of(self.h_L(z), w)

        return F

    def log_field(self) -> Callable[[np.ndarray], np.ndarray]:
        b = float(self.b)

        def F(points: np.ndarray) -> np.ndarray:
            z, w = decode_points(points, self.chart.n_z)
            return b * (np.log(self.h_L(z)) + 2.0 * np.log(np.abs(w)))

        return F

    def _log_jets(self, z, weights, potentials=False):
        """Weighted sums over generators of ``log_gram_jets`` of the chart frames; with ``potentials`` then ``h_closed(z)``.

        The potentials come from the same frames, bit for bit: the determinants
        the wedge jets eliminated, or the squared norms summed as ``h_closed``
        sums them (the quadric and product jets' own sums differ in the last bit).
        """
        frames = self.chart.frames(z)
        jets = [log_gram_jets(F, jac) for F, jac in frames]
        if not potentials:
            hs = ()
        elif self.chart.kind == "wedge":
            hs = (np.stack([jet[2] for jet in jets], axis=-1),)
        else:
            hs = (np.concatenate([squared_norms(F) for F, _ in frames], axis=-1),)
        del frames                      # dead before the weighted sums, where a jet call peaks
        return tuple(_weighted_sum([jet[i] for jet in jets], weights) for i in range(2)) + hs

    def cone_jet(self, with_K: bool = False, entries: bool = False) -> Callable[[np.ndarray], tuple]:
        """Batched ``(phi_a, ddbar K / K)`` over real points, from the chart frames; ``with_K`` appends ``K``.

        ``phi = log K_1`` with ``phi_w = 1/w`` on the fiber and no mixed
        terms; ``ddbar K / K = b (phi_ab + b phi_a conj(phi_b))``.  ``K`` is
        ``field`` bit for bit, from the potentials of the same frames.  The
        algebra runs in the layout of the chart jets, on entry arrays with the
        batch axes last: ``entries`` hands them out as they are, ``phi``
        (n+1, ...) and ``H`` (n+1, n+1, ...), for readers that loop over the
        batch; otherwise they come back as C-contiguous rows (..., n+1) and
        (..., n+1, n+1).
        """
        b, e = float(self.b), [float(x) for x in self.exponents]

        def jet(points: np.ndarray):
            z, w = decode_points(points, self.chart.n_z)
            grad, hess, *hs = self._log_jets(z, e, potentials=with_K)
            phi = np.empty((self.chart.n_z + 1,) + w.shape, dtype=complex)
            phi[:-1], phi[-1], hess = _roll_axes(grad, -1), 1.0 / w, _roll_axes(hess, -2)
            H = b * b * phi[:, None] * np.conj(phi)
            H[:-1, :-1] += np.multiply(b, hess, out=hess)
            if not entries:
                phi, H = np.ascontiguousarray(_roll_axes(phi, 1)), np.ascontiguousarray(_roll_axes(H, 2))
            return (phi, H) + tuple(self._K_of(power_product(h, self.exponents), w) for h in hs)

        return jet

    def base_jet(self) -> Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]:
        """Batched ``(ddbar log h_delta, log h_delta)`` over base points, one frame per point.

        ``ddbar log h_delta = sum_alpha delta_alpha ddbar log h_alpha``, and
        ``log h_delta`` is ``base_log_anticanonical`` bit for bit.
        """
        pair = [float(p) for p in self.chart.delta_pairings]

        def jet(points: np.ndarray):
            _, hess, hs = self._log_jets(decode_base_points(points, self.chart.n_z), pair, potentials=True)
            return hess, _weighted_logs(hs, pair)

        return jet

    def base_log_anticanonical(self) -> Callable[[np.ndarray], np.ndarray]:
        """log h_delta over base points (no fiber coordinate), from ``h_closed``."""
        pair = [float(p) for p in self.chart.delta_pairings]

        def F(points: np.ndarray) -> np.ndarray:
            return _weighted_logs(np.asarray(self.chart.h_closed(decode_base_points(points, self.chart.n_z))), pair)

        return F


def _weighted_sum(jets, weights):
    """``sum(wt * jet for wt, jet in zip(weights, jets))`` bit for bit, scaling each jet in place into the first.

    The jets must be the caller's own arrays.  ``sum`` starts from ``0``, and
    ``0 +`` turns a -0.0 into 0.0, so it is kept as one in-place add.
    """
    acc = np.multiply(weights[0], jets[0], out=jets[0])
    np.add(0, acc, out=acc)
    for wt, jet in zip(weights[1:], jets[1:]):
        acc += np.multiply(wt, jet, out=jet)
    return acc


def _weighted_logs(hs, weights):
    """``sum_alpha weights_alpha log hs[..., alpha]``: ``log h_delta`` from the fundamental potentials."""
    return sum(p * np.log(hs[..., i]) for i, p in enumerate(weights))


def decode_points(points: np.ndarray, n_z: int):
    """Complex ``z`` and ``w`` read as views of the interleaved real columns; do not write into them."""
    c = np.ascontiguousarray(points, dtype=float)[..., :2 * n_z + 2].view(complex)
    return c[..., :n_z], c[..., n_z]


def decode_base_points(points: np.ndarray, n_z: int):
    return np.ascontiguousarray(points, dtype=float)[..., :2 * n_z].view(complex)


def canonical_exponents(chart: Chart, ell: int = 1) -> Tuple[Fraction, ...]:
    """Exponents of the bundle O_X(-ell) (the ell-th power of the maximal root)."""
    if ell <= 0:
        raise DomainError("bundle level must be positive")
    out = tuple(Fraction(ell * p, chart.fano) for p in chart.delta_pairings)
    return out


def make_spec(case: str, exponents=None, b=None, ell: int = 1) -> PotentialSpec:
    chart = resolve_case(case)
    if exponents is None:
        exponents = canonical_exponents(chart, ell)
    else:
        exponents = tuple(Fraction(e) for e in exponents)
    return PotentialSpec(chart, exponents, Fraction(b) if b is not None else Fraction(1))


def potential_eval(spec: PotentialSpec, z, w):
    """K_b(z, w) for a single point; a value that is not positive and finite in floats is a domain error."""
    wv = complex(w)
    if abs(wv) == 0:
        raise DomainError("the fiber coordinate must be nonzero")
    value = float(spec.K(np.asarray(z, dtype=complex), wv))
    if not 0 < value < np.inf:
        raise DomainError(f"the potential is {value!r} at this point, outside (0, inf) in floats")
    return value


def log_potential_eval(spec: PotentialSpec, z, w):
    wv = complex(w)
    if abs(wv) == 0:
        raise DomainError("the fiber coordinate must be nonzero")
    return float(spec.b) * (float(np.log(spec.h_L(np.asarray(z, dtype=complex)))) + 2.0 * np.log(abs(wv)))


def generic_h(chart: Chart, z, exact: bool = False):
    """Fundamental potentials through the representation path; a wedge chart's generators share one big-cell log."""
    if chart.kind == "wedge":
        log = chart._big_cell_log(_ints(z, 1) if exact else to_field(z, complex))     # exact: cleared once per point
        out = [chart._h_of(g, derivation_matrix(chart.params["n"], k, log)) for g, k in enumerate(chart.params["ks"])]
    else:
        out = [chart.generic_h(g, z, exact=exact) for g in range(chart.n_gen)]
    return tuple(out) if exact else np.array(out)


def dhomothetic_constant(chart: Chart, ell: int = 1) -> Fraction:
    """Transverse rescaling constant ell * I / (m + 1) for the Sasaki-Einstein gauge."""
    if ell <= 0:
        raise DomainError("bundle level must be positive")
    return Fraction(ell * chart.fano, chart.m + 1)


def ricci_flat_exponent(chart: Chart, ell: int = 1) -> Fraction:
    """Cone exponent b = I / (ell (m + 1)) for which K_1^b should be Ricci-flat.

    Anchored by the flat covering of projective space, the 2/3 power on the
    conifold and the 1/2 power on the level-2 projective line; certified
    numerically by the Ricci-flatness suite rather than assumed.
    """
    if ell <= 0:
        raise DomainError("bundle level must be positive")
    return Fraction(chart.fano, ell * (chart.m + 1))
