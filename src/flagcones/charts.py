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

``Chart.frames`` adds the rank-one Jacobians ``d_a F = u_a v_a^T`` of the
same frames, and ``log_gram_jets`` turns them into closed-form ``d log h``
and ``ddbar log h``, the analytic Kahler layer under the verification
suites.  A ``PotentialSpec`` combines a chart with bundle exponents and an
outer cone exponent ``b``:

    K_1(z, w) = prod_alpha h_alpha(z)^(e_alpha) * |w|^2,
    K_b(z, w) = K_1(z, w)^b.

Catalog identifiers: ``cp:m``, ``grassmann:n:k``, ``fullflag:A:n``,
``flag:A:n:k1,...,kr``, ``quadric:N``, ``conifold``, and the aliases
``gr24`` (= grassmann:3:2), ``wallach`` (= fullflag:A:2), ``hopf:cpM``
(= cp:M).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Callable, Optional, Tuple

import numpy as np

from .exact import ONE, QC, ZERO, abs2, like, real, to_field
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


class Frame(tuple):
    """A holomorphic frame ``(F, U, V)`` (see ``log_gram_jets``), unpacked as a triple.

    ``units = (rows, cols, on)`` is set when every Jacobian is one matrix
    unit: ``d_a F = on_a E(rows_a, cols_a)``, where the 0/1 weights ``on``
    (None when all are 1) switch off the coordinates that do not enter the
    frame.  The chart builds it from its slots; ``U`` and ``V`` are never
    inspected for it.
    """

    def __new__(cls, F, U, V, units=None):
        frame = super().__new__(cls, (F, U, V))
        frame.units = units
        return frame


def log_gram_jets(F, U, V, units=None):
    """``(d_a log h, d_a dbar_b log h)`` of ``h = det G``, ``G = F* F``, batched over leading axes.

    ``F`` is a holomorphic frame (..., N, r) with Jacobian ``E_a = d_a F = u_a v_a^T``
    (columns of U (..., N, n_z) and V (r, n_z)).  With ``P = 1 - F G^-1 F*``:
    ``d_a log h = tr(G^-1 F* E_a) = v_a^T G^-1 F* u_a`` and
    ``d_a dbar_b log h = tr(G^-1 E_b* P E_a) = (u_b* P u_a)(v_a^T G^-1 conj(v_b))``.
    With unit factors (``Frame.units``) both are index gathers:
    ``(G^-1 F*)[col_a, row_a]`` and ``P[row_b, row_a] G^-1[col_a, col_b]``.
    """
    Fh = np.conj(np.swapaxes(F, -1, -2))
    Ginv = np.linalg.inv(Fh @ F)
    if units is None:
        AU = Ginv @ (Fh @ U)                                         # G^-1 F* u_a
        X = np.conj(np.swapaxes(U, -1, -2)) @ (U - F @ AU)           # u_b* P u_a at [b, a]
        return np.sum(V * AU, axis=-2), np.swapaxes(X, -1, -2) * (V.T @ Ginv @ np.conj(V))
    rows, cols, on = units
    A = Ginv @ Fh                                                    # G^-1 F*
    hess = (F @ A)[..., rows, rows[:, None]]                         # (F G^-1 F*)[row_b, row_a] at [a, b]
    np.subtract(np.equal.outer(rows, rows), hess, out=hess)          # P[row_b, row_a]
    hess *= Ginv[..., cols[:, None], cols]
    grad = A[..., cols, rows]
    if on is not None:
        grad *= on
        hess *= np.outer(on, on)
    return grad, hess


def gram_minors(F):
    """Leading principal minors ``det G[:k, :k]``, k = 1..r, of ``G = F* F``: shape (..., r).

    ``F`` is an (..., N, r) frame.  By Cauchy-Binet the k-th minor is the
    sum of squared k x k minors of the first k columns.  ``G`` is Hermitian
    positive definite, so unpivoted elimination on its upper triangle gives
    the minors as running products of the pivots.  Each Gram entry is an
    array over the leading axes of ``F`` (a scalar for an (N, r) frame);
    exact frames give ``Fraction`` minors.
    """
    cols = np.moveaxis(np.asarray(F), (-1, -2), (0, 1))
    r = len(cols)
    conj = [np.conj(col) for col in cols]
    G = [[sum(x * y for x, y in zip(conj[a], cols[b])) if b >= a else None for b in range(r)] for a in range(r)]
    out, det = [], 1
    for c in range(r):
        pivot = real(G[c][c])
        det = det * pivot
        out.append(det)
        for i in range(c + 1, r):
            f = np.conj(G[c][i]) / pivot
            G[i][i:] = [x - f * y for x, y in zip(G[i][i:], G[c][i:])]
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
        if ks is None:                  # squared column norms, row by row
            return sum(abs2(F[..., i, :]) for i in range(F.shape[-2]))
        return gram_minors(F)[..., [k - 1 for k in ks]]

    def frames(self, z) -> list:
        """Holomorphic frames ``(F_alpha, U, V)``: ``h_alpha = det(F_alpha* F_alpha)`` and ``d_a F_alpha = u_a v_a^T``.

        Each coordinate enters one column of a frame, so its Jacobian has
        rank one: the columns of U (..., N, n_z), constant except on quadrics,
        and of V (r, n_z).  Batched over the leading axes of complex ``z``.
        Wedge and product frames are ``Frame``s with unit factors.
        """
        z = np.asarray(z, dtype=complex)
        m, ones = self.n_z, np.ones((1, self.n_z))
        F, ks = self._frame(z)
        if self.kind == "wedge":        # d_a F = the unit matrix at slot a
            n, _, slots = self._wedge()
            rows, cols = map(np.array, zip(*slots))
            U, V = np.eye(n + 1)[:, rows], np.eye(ks[-1])[:, cols]
            frames = []
            for k in ks:
                on = cols < k               # coordinates in the first k columns; the others read column 0, weight 0
                units = (rows, np.where(on, cols, 0), None if on.all() else on.astype(float))
                frames.append(Frame(F[..., :k], U, V[:k], units))
            return frames
        if self.kind == "quadric":      # d_a s = (0, e_a/sqrt2, zeta_a/2)
            U = np.zeros(z.shape[:-1] + (m + 2, m), dtype=complex)
            U[..., range(1, m + 1), range(m)] = 1.0 / np.sqrt(2.0)
            U[..., m + 1, :] = z / 2.0
            return [(F, U, ones)]
        # product of projective lines: [1; z_j], d_a = delta_aj (0; 1)
        unit_rows, zero_cols = np.ones(m, dtype=int), np.zeros(m, dtype=int)
        return [Frame(F[..., j:j + 1], np.outer([0.0, 1.0], np.eye(m)[j]), ones, (unit_rows, zero_cols, np.eye(m)[j]))
                for j in range(self.n_gen)]

    def h_closed_exact(self, z) -> Tuple[Fraction, ...]:
        """``h_closed`` at a Gaussian-rational point (a list of ``QC``): a tuple of ``Fraction``s."""
        return tuple(self.h_closed(to_field(z, object)))

    # -- representation path ------------------------------------------------

    def rep(self, gen: int) -> RepSpace:
        key = ("rep", gen)
        if key not in self.params:
            self.params[key] = self._build_rep(gen)
        return self.params[key]

    def _build_rep(self, gen: int) -> RepSpace:
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
            if "Y" not in self.params:
                self.params["Y"] = _both_fields(np.stack(so_radical_basis(N)).reshape(N - 2, N * N))
            # sum_j z_j Y_j as a product over the last axis of z, one row at a time (a row rounds as a single point)
            return np.matmul(z[..., None, :], self.params["Y"][z.dtype])[..., 0, :].reshape(z.shape[:-1] + (N, N))
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
        pair is built once per chart and exponents and kept in ``params``;
        its constant complex matrices are read-only.
        """
        key = ("embedding", tuple(exponents))
        if key not in self.params:
            self.params[key] = self._build_embedding(key[1])
        return self.params[key]

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

def _chart_flag(n: int, ks: Tuple[int, ...], name: str) -> Chart:
    """GL(n+1)/P on the block big cell: ``ks = (k1 < ... < kr)`` are the simple roots outside Theta."""
    if not 1 <= ks[0] or not all(a < b for a, b in zip(ks, ks[1:])) or ks[-1] > n:
        raise ConfigurationError(f"need 1 <= k1 < ... < kr <= {n}, got {ks}")
    fd = flag(build_root_system("A", n), set(range(1, n + 1)) - set(ks))
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
    rs = build_root_system(series, n)
    fd = flag(rs, set(range(2, n + 1)))
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

    def _log_jets(self, z, weights):
        """Weighted sums over generators of ``log_gram_jets`` of the chart frames."""
        jets = [log_gram_jets(*frame, units=getattr(frame, "units", None)) for frame in self.chart.frames(z)]
        return tuple(sum(wt * jet[i] for wt, jet in zip(weights, jets)) for i in (0, 1))

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
