"""Big-cell coordinate charts and the catalog of Kahler potentials.

Every catalog geometry carries its fundamental potentials
``h_alpha(z) = |n(z) v_alpha|^2`` on the opposite big cell (normalised so
``h_alpha(0) = 1``), plus a representation-theoretic path that evaluates
the same quantity through the module machinery.  Each ``h_alpha`` is a
Gram determinant of a holomorphic frame.  Both paths run the same code
over arrays batched over the leading axes of ``z``, and the dtype of ``z``
picks the arithmetic (see ``exact``): an object array of ``QC`` gives exact
potentials (``Fraction``s), anything else complex frames and float
potentials.  A single float point runs as a batch of one, so it rounds
exactly as the same point inside a batch.

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
Both layers run one Hermitian elimination (``exact.hermitian_elimination``)
on the Gram entry arrays: ``gram_minors`` takes running products of its
pivots, ``log_gram_jets`` back-substitutes for ``G^-1``.  Each ``d_a F`` of
a wedge or product frame is one matrix unit, so their jets are gathers
through index tables built once per chart, with no LAPACK call per matrix;
the quadric section's jets are closed forms in ``z``.  A ``PotentialSpec``
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
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .exact import ONE, QC, ZERO, abs2, hermitian_elimination, hermitian_inverse, like, to_field
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
    ``z``, in its dtype.
    """
    r = n + 1 if cols is None else cols
    M = np.full(z.shape[:-1] + (n + 1, r), ZERO, dtype=z.dtype)
    M[..., range(r), range(r)] = ONE
    rows, cs = zip(*slots)
    M[..., rows, cs] = z
    return M


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
    """Gather tables of ``log_gram_jets`` for a frame with unit Jacobians, built once per chart.

    The frame is the first r columns of the identity plus each coordinate
    at its unit; ``rows`` carry coordinates, the others are identity rows
    with their 1 in the columns ``ones``.  ``grad[a]``, ``hess[a, b]`` and
    ``cols[a, b]`` index one stack of ``(G^-1 F*)[col, u]``, a zero,
    ``P[u, u']`` and ``G^-1[col, col']`` (row-major, u indexing ``rows``) at
    ``(col_a, u_a)``, ``(u_b, u_a)`` and ``(col_a, col_b)``, or at the zero for
    a coordinate outside the frame.
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
    cc = np.where(~on[:, None] | ~on, r * nu, r * nu + 1 + nu * nu + cols[:, None] * r + cols)
    return UnitTables(_read_only(np.array(urows)), tuple(sorted(set(range(r)) - set(urows))),
                      *map(_read_only, (grad, r * nu + 1 + u * nu + u[:, None], cc)))


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


def _gram(F, units=None):
    """``(E, conj(E), G)``: frame rows ``E[i][a] = F[..., i, a]`` as entry arrays and the upper triangle of ``F* F``.

    With ``units`` only the rows that carry coordinates are read, and each
    identity row's 1 starts its diagonal entry.
    """
    E = _roll_axes(np.asarray(F), -2)
    ones = ()
    if units is not None:
        E, ones = E[units.rows], units.ones
    Ec, r = np.conj(E), E.shape[1]
    return E, Ec, [[_dot(Ec[:, a], E[:, b], int(a == b and a in ones)) if b >= a else None for b in range(r)]
                   for a in range(r)]


def _roll_axes(a: np.ndarray, k: int) -> np.ndarray:
    """A view of ``a`` with its axes rolled left by k (cheaper than ``np.moveaxis``)."""
    axes = tuple(range(a.ndim))
    return a.transpose(axes[k:] + axes[:k])


def _dot(xs, ys, start=0):
    """``start + sum_j xs[j] ys[j]`` over entry arrays, summed in order."""
    out = xs[0] * ys[0] if start == 0 else start + xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        out = out + x * y
    return out


def log_gram_jets(F, jac, hessian=True):
    """``(d_a log h, d_a dbar_b log h)`` of ``h = det G``, ``G = F* F``, batched over leading axes.

    ``(F, jac)`` is a pair of ``Chart.frames``: a holomorphic frame (..., N, r)
    in either field and its Jacobians.  With ``P = 1 - F G^-1 F*``,
    ``d_a log h = tr(G^-1 F* d_a F)`` and ``d_a dbar_b log h = tr(G^-1 (d_b F)* P d_a F)``.
    Wedge and product frames (``jac`` a ``UnitTables``) have unit Jacobians
    ``d_a F = E(row_a, col_a)`` or zero, so both jets are gathers from
    ``G^-1 F*`` at the frame rows that carry coordinates,
    ``(G^-1 F*)[col_a, row_a]`` and ``P[row_b, row_a] G^-1[col_a, col_b]``.
    ``G^-1`` comes from the Hermitian elimination of ``exact`` on the Gram
    entry arrays (the one ``gram_minors`` runs) and back-substitution, so no
    call is made per matrix.  The quadric section (``jac = z / 2``) takes the
    closed forms of ``_quadric_log_jets``, with no Gram inverse.  With
    ``hessian`` false only ``(d_a log h,)`` is computed.
    """
    if np.ndim(F) == 2:                 # one frame runs as a batch of one: numpy scalars round differently
        jac = jac if isinstance(jac, UnitTables) else jac[None]
        return tuple(jet[0] for jet in log_gram_jets(np.asarray(F)[None], jac, hessian))
    if not isinstance(jac, UnitTables):
        return _quadric_log_jets(F[..., 0], jac, hessian)
    E, Ec, G = _gram(F, jac)
    Ginv = hermitian_inverse(*hermitian_elimination(G))
    A = [[_dot(row, e) for e in Ec] for row in Ginv]                 # (G^-1 F*)[j, rows_u]
    flat = [x for row in A for x in row] + [np.zeros_like(A[0][0])]
    if not hessian:
        return (_roll_axes(np.array(flat)[jac.grad], 1),)
    At, P = list(zip(*A)), [[None] * len(E) for _ in E]               # P[u][v] = P[rows_u, rows_v], Hermitian
    for u, v in combinations_with_replacement(range(len(E)), 2):
        P[u][v] = int(u == v) - _dot(E[u], At[v])
        P[v][u] = np.conj(P[u][v])
    flat = np.array(flat + [x for row in P + Ginv for x in row])
    hess = flat[jac.hess]
    hess *= flat[jac.cols]
    return _roll_axes(flat[jac.grad], 1), _roll_axes(hess, 2)


def _quadric_log_jets(s, half_z, hessian=True):
    """``log_gram_jets`` of the quadric section ``s = (1, z/sqrt2, q/4)`` (..., N), from ``half_z = z/2`` (..., m).

    With ``u_a = d_a s = (0, e_a/sqrt2, z_a/2)``, ``h = |s|^2``,
    ``c_a = s* u_a = zbar_a/2 + qbar z_a/8`` and ``u_b* u_a = delta_ab/2 + zbar_b z_a/4``:
    ``d_a log h = c_a / h`` and ``d_a dbar_b log h = (delta_ab/2 + z_a zbar_b/4)/h - grad_a conj(grad_b)``.
    """
    inv_h = 1 / np.sum(abs2(s), axis=-1)[..., None]
    grad = (np.conj(half_z) + np.conj(s[..., -1:]) * half_z) * inv_h
    if not hessian:
        return (grad,)
    delta = to_field(np.eye(half_z.shape[-1], dtype=int), half_z.dtype) / 2
    hess = (half_z[..., :, None] * np.conj(half_z[..., None, :]) + delta) * inv_h[..., None]
    hess -= grad[..., :, None] * np.conj(grad[..., None, :])
    return grad, hess


def gram_minors(F):
    """Leading principal minors ``det G[:k, :k]``, k = 1..r, of ``G = F* F``: shape (..., r).

    ``F`` is an (..., N, r) frame.  By Cauchy-Binet the k-th minor is the
    sum of squared k x k minors of the first k columns.  ``G`` is Hermitian
    positive definite, so the minors are running products of the pivots of
    ``exact.hermitian_elimination``.  Each Gram entry is an array over the
    leading axes of ``F`` (a scalar for an (N, r) frame); exact frames give
    ``Fraction`` minors.
    """
    out, det = [], 1
    for pivot in hermitian_elimination(_gram(F)[2])[0]:
        det = det * pivot
        out.append(det)
    return np.stack(out, axis=-1)


def nilpotent_log(M, dim: int):
    """log(1 + X) for strictly triangular X = M - 1, as a terminating series, batched over leading axes."""
    X = M - np.eye(M.shape[-1], dtype=int)
    out = power = X
    for k in range(2, dim + 2):
        power = power @ X
        if not np.any(power):
            return out
        out = out + to_field(Fraction((-1) ** (k + 1), k), power.dtype) * power
    raise DomainError("matrix is not unipotent")


def _single_point_as_a_row(method):
    """Evaluate ``method(self, z, *w)`` at a single float point as a batch of one.

    numpy scalars round some operations (the complex products of the Gram
    entries, complex ``abs``, ``**``) differently from array loops, so a
    lone point would differ in the last bit from the same point inside a
    batch.  ``z`` arrives through ``exact.to_field``; exact points hold
    Python numbers either way and pass through.
    """
    @functools.wraps(method)
    def wrapped(self, z, *w):
        z = to_field(z)
        if z.ndim != 1 or z.dtype == object:
            return method(self, z, *w)
        return method(self, z[None], *(np.asarray(x)[None] for x in w))[0]

    return wrapped


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
    flag_info: dict
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
            s = np.concatenate([np.full(z.shape[:-1] + (1,), ONE, dtype=z.dtype), z / _ROOT_TWO[z.dtype],
                                np.sum(z * z, axis=-1, keepdims=True) / 4], axis=-1)
            return s[..., None], None
        F = np.empty(z.shape[:-1] + (2, self.n_z), dtype=z.dtype)
        F[..., 0, :], F[..., 1, :] = ONE, z
        return F, None

    @_single_point_as_a_row
    def h_closed(self, z):
        """Fundamental potentials, the Gram determinants of the chart frames: shape (..., n_gen).

        ``Fraction``s in an object array when ``z`` is exact (see ``exact.to_field``).
        """
        if z.shape[-1] != self.n_z:
            raise DomainError(f"{self.name} needs {self.n_z} coordinates")
        F, ks = self._frame(z)
        if ks is None:                  # squared column norms, row by row from the constant leading 1
            return sum((abs2(F[..., i, :]) for i in range(1, F.shape[-2])), 1)
        return gram_minors(F)[..., [k - 1 for k in ks]]

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
            n, ks, slots = self._wedge()
            return derivation_matrix(n, ks[gen], nilpotent_log(_big_cell(n, slots, z), n + 1))
        if self.kind == "quadric":
            N = self.params["N"]
            if "Y" not in self._cache:
                self._cache["Y"] = _both_fields(np.stack(so_radical_basis(N)).reshape(N - 2, N * N))
            # sum_j z_j Y_j as a product over the last axis of z, one row at a time (a row rounds as a single point)
            return np.matmul(z[..., None, :], self._cache["Y"][z.dtype])[..., 0, :].reshape(z.shape[:-1] + (N, N))
        # product: the z_gen-th factor lowering operator
        return z[..., gen, None, None] * to_field([[0, 0], [1, 0]], z.dtype)

    def generic_h(self, gen: int, z, exact: bool = False):
        """|exp(X(z)) v+|^2 / |v+|^2 through the module machinery; ``exact`` reads ``z`` as Gaussian rationals."""
        rep = self.rep(gen)
        X = self.word_element(gen, to_field(z, object if exact else complex))
        ns = rep.norm_sq(act(rep, [(X, 1)], to_field(rep.hw_raw, X.dtype)))
        return ns / like(rep.hw_norm_sq, ns)

    def embedding_rep(self, exponents: Tuple[Fraction, ...]):
        """Module and word builder for the cone embedding of this bundle.

        Supported: all exponents equal to 1 (fundamental weights and their
        Deligne products), plus arbitrary integer powers on a projective
        line.  Returns ``(rep, word(z))`` with ``word(z)`` a list of
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
        if self.kind == "product":
            if any(e != 1 for e in ell):
                raise ConfigurationError("product embeddings are implemented for exponent 1 on each factor")
            y, i2 = to_field([[0, 0], [1, 0]], object), np.eye(2, dtype=int)
            lowering = [_both_fields(np.kron(y, i2)), _both_fields(np.kron(i2, y))]

            def word(z):
                z = to_field(z)
                return [(M[z.dtype], z[..., j]) for j, M in enumerate(lowering)]

            return outer_tensor(self.rep(0), self.rep(1)), word
        if self.n_gen == 1 and ell[0] == 1:
            def word(z):
                return [(self.word_element(0, z), 1)]

            return self.rep(0), word
        if self.kind == "wedge" and self.params.get("n") == 1 and self.n_gen == 1:
            rep = sl2_module(int(ell[0]))
            F = _both_fields(rep.simple[1][1])

            def word(z):
                z = to_field(z)
                return [(F[z.dtype], z[..., 0])]

            return rep, word
        raise ConfigurationError(f"no embedding module implemented for {self.name} with exponents {ell}")


# |s|^2 = 2 for the quadric section; 1 + i keeps the exact path rational
_ROOT_TWO = {np.dtype(object): QC(1, 1), np.dtype(complex): np.sqrt(2.0)}


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
    if not 1 <= ks[0] or not all(a < b for a, b in zip(ks, ks[1:])) or ks[-1] > n:
        raise ConfigurationError(f"need 1 <= k1 < ... < kr <= {n}, got {ks}")
    fd = _flag_data("A", n, tuple(i for i in range(1, n + 1) if i not in ks))
    return Chart(
        name=name,
        kind="wedge",
        n_z=len(_block_slots(n, ks)),
        n_gen=len(ks),
        m=fd.dim_complex,
        fano=fd.fano_index,
        delta_pairings=tuple(int(p) for p in fd.delta_pairings),
        flag_info={"series": "A", "rank": n, "theta": sorted(fd.theta)},
        params={"n": n, "ks": ks},
    )


def _chart_quadric(N: int) -> Chart:
    if N < 5:
        raise ConfigurationError("quadric chart requires N >= 5")
    n = N // 2
    series = "B" if N % 2 else "D"
    fd = _flag_data(series, n, tuple(range(2, n + 1)))
    return Chart(
        name=f"quadric:{N}",
        kind="quadric",
        n_z=N - 2,
        n_gen=1,
        m=fd.dim_complex,
        fano=fd.fano_index,
        delta_pairings=tuple(int(p) for p in fd.delta_pairings),
        flag_info={"series": series, "rank": n, "theta": sorted(fd.theta)},
        params={"N": N},
    )


def _chart_conifold() -> Chart:
    return Chart(
        name="conifold",
        kind="product",
        n_z=2,
        n_gen=2,
        m=2,
        fano=2,
        delta_pairings=(2, 2),
        flag_info={"factors": ["A1/P", "A1/P"]},
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
        if parts[0] == "conifold":
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

    @_single_point_as_a_row
    def h_L(self, z):
        """prod_alpha h_alpha^(e_alpha); exact (a ``Fraction``) at an exact ``z`` with integer exponents."""
        hs = self.chart.h_closed(z)
        out = 1
        for i, e in enumerate(self.exponents):
            out = out * hs[..., i] ** like(e, hs)
        return out

    @_single_point_as_a_row
    def K1(self, z, w):
        return self.h_L(z) * abs2(w)

    @_single_point_as_a_row
    def K(self, z, w):
        k1 = self.K1(z, w)
        return k1 ** like(self.b, k1)

    def field(self) -> Callable[[np.ndarray], np.ndarray]:
        """Batched potential over real points (Re z_1, Im z_1, ..., Re w, Im w)."""
        b = float(self.b)

        def F(points: np.ndarray) -> np.ndarray:
            z, w = decode_points(points, self.chart.n_z)
            return (self.h_L(z) * np.abs(w) ** 2) ** b

        return F

    def log_field(self) -> Callable[[np.ndarray], np.ndarray]:
        b = float(self.b)

        def F(points: np.ndarray) -> np.ndarray:
            z, w = decode_points(points, self.chart.n_z)
            return b * (np.log(self.h_L(z)) + 2.0 * np.log(np.abs(w)))

        return F

    def _log_jets(self, z, weights, hessian=True):
        """Weighted sums over generators of ``log_gram_jets`` of the chart frames."""
        jets = [log_gram_jets(F, jac, hessian) for F, jac in self.chart.frames(z)]
        return tuple(sum(wt * jet[i] for wt, jet in zip(weights, jets)) for i in range(len(jets[0])))

    def cone_jet(self) -> Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]:
        """Batched ``(phi_a, ddbar K / K)`` over real points, from the chart frames.

        ``phi = log K_1`` with ``phi_w = 1/w`` on the fiber and no mixed
        terms; ``ddbar K / K = b (phi_ab + b phi_a conj(phi_b))``.
        """
        b, e = float(self.b), [float(x) for x in self.exponents]

        def jet(points: np.ndarray):
            z, w = decode_points(points, self.chart.n_z)
            grad, hess = self._log_jets(z, e)
            phi = np.concatenate([grad, 1.0 / w[..., None]], axis=-1)
            H = b * b * phi[..., :, None] * np.conj(phi[..., None, :])
            H[..., :-1, :-1] += b * hess
            return phi, H

        return jet

    def lee_form(self) -> Callable[[np.ndarray], np.ndarray]:
        """Batched Lee form ``theta = -d log K`` over real points, (m, d), from the gradient half of the jets alone."""
        b, e = float(self.b), [float(x) for x in self.exponents]

        def theta(points: np.ndarray) -> np.ndarray:
            z, w = decode_points(points, self.chart.n_z)
            (grad,) = self._log_jets(z, e, hessian=False)
            return lee_components(np.concatenate([grad, 1.0 / w[..., None]], axis=-1), b)

        return theta

    def base_hessian(self) -> Callable[[np.ndarray], np.ndarray]:
        """Batched complex Hessian of ``log h_delta``, ``sum_alpha delta_alpha ddbar log h_alpha``, over base points."""
        pair = [float(p) for p in self.chart.delta_pairings]
        return lambda points: self._log_jets(decode_base_points(points, self.chart.n_z), pair)[1]

    def base_log_anticanonical(self) -> Callable[[np.ndarray], np.ndarray]:
        """log h_delta over base points (no fiber coordinate)."""
        pair = [float(p) for p in self.chart.delta_pairings]

        def F(points: np.ndarray) -> np.ndarray:
            z = decode_base_points(points, self.chart.n_z)
            hs = np.asarray(self.chart.h_closed(z))
            return sum(p * np.log(hs[..., i]) for i, p in enumerate(pair))

        return F


def lee_components(phi: np.ndarray, b: float) -> np.ndarray:
    """``theta = -d log K_1^b`` as real components ``(-2b Re phi_a, 2b Im phi_a)``, interleaved, from ``phi = d log K_1``."""
    return -2.0 * b * np.ascontiguousarray(np.conj(phi)).view(float)


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
    """K_b(z, w) for a single point."""
    wv = complex(w)
    if abs(wv) == 0:
        raise DomainError("the fiber coordinate must be nonzero")
    return float(spec.K(np.asarray(z, dtype=complex), wv))


def log_potential_eval(spec: PotentialSpec, z, w):
    wv = complex(w)
    if abs(wv) == 0:
        raise DomainError("the fiber coordinate must be nonzero")
    return float(spec.b) * (float(np.log(spec.h_L(np.asarray(z, dtype=complex)))) + 2.0 * np.log(abs(wv)))


def generic_h(chart: Chart, z, exact: bool = False):
    """Fundamental potentials through the representation path."""
    out = []
    for g in range(chart.n_gen):
        out.append(chart.generic_h(g, z, exact=exact))
    return tuple(out) if exact else np.array(out)


def dhomothetic_constant(chart: Chart, ell: int = 1) -> Fraction:
    """Transverse rescaling constant ell * I / (m + 1) for the Sasaki-Einstein gauge."""
    return Fraction(ell * chart.fano, chart.m + 1)


def ricci_flat_exponent(chart: Chart, ell: int = 1) -> Fraction:
    """Cone exponent b = I / (ell (m + 1)) for which K_1^b should be Ricci-flat.

    Anchored by the flat covering of projective space, the 2/3 power on the
    conifold and the 1/2 power on the level-2 projective line; certified
    numerically by the Ricci-flatness suite rather than assumed.
    """
    return Fraction(chart.fano, ell * (chart.m + 1))
