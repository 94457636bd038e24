"""Big-cell coordinate charts and the catalog of Kahler potentials.

Every catalog geometry carries direct evaluators for the fundamental
potentials ``h_alpha(z) = |n(z) v_alpha|^2`` on the opposite big cell
(normalised so ``h_alpha(0) = 1``), plus a representation-theoretic path
that evaluates the same quantity through the module machinery.  Each
``h_alpha = det(F_alpha* F_alpha)`` is the Gram determinant of a holomorphic
frame with rank-one Jacobians ``d_a F = u_a v_a^T`` (``Chart.frames``): the
first columns of the big-cell unipotent ``n(z)`` on wedge charts (projective
spaces, Grassmannians, full flags of type A), constant unit ``d_a F``, where
``h_closed`` takes the leading Gram minors (``fullflag_h``, or
``grassmann_h`` on the block below ``1_k``) by one Hermitian elimination on
both the exact and the float path; the section ``(1, zeta/sqrt2, q/4)`` on
quadrics, ``d_a F`` linear in ``zeta``; ``[1; z_j]`` per product factor.
``log_gram_jets`` turns ``(F, U, V)`` into closed-form ``d log h`` and
``ddbar log h``, the analytic Kahler layer under the verification suites.
A ``PotentialSpec`` combines a chart with bundle exponents and an outer
cone exponent ``b``:

    K_1(z, w) = prod_alpha h_alpha(z)^(e_alpha) * |w|^2,
    K_b(z, w) = K_1(z, w)^b.

Catalog identifiers: ``cp:m``, ``grassmann:n:k``, ``fullflag:A:n``,
``quadric:N``, ``conifold``, and the aliases ``gr24`` (= grassmann:3:2),
``wallach`` (= fullflag:A:2), ``hopf:cpM`` (= cp:M).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .exact import QC, mat_kron, mat_scale, qc_mat, to_complex_matrix
from .reps import (RepSpace, act, derivation_matrix, outer_tensor, sl2_module,
                   so_radical_basis, so_vector_module, wedge_module)
from .roots import ConfigurationError, build_root_system, flag


class DomainError(ValueError):
    """Inputs outside the chart or bundle preconditions."""


# ---------------------------------------------------------------------------
# potential building blocks: big-cell frames and their Gram minors
# ---------------------------------------------------------------------------

def _big_cell(n: int, slots, z, exact: bool = False, cols: Optional[int] = None):
    """The first ``cols`` (default all) columns of n(z) = 1 + sum_a z_a E_(slot_a) in GL(n+1).

    ``slots`` gives the (row, col) position of each coordinate below the
    diagonal, every col below ``cols``.  Exact (a tuple of QC rows) with
    ``exact``; otherwise batched over the leading axes of ``z``.
    """
    r = n + 1 if cols is None else cols
    if exact:
        M = [[QC(1 if i == j else 0) for j in range(r)] for i in range(n + 1)]
        for (i, j), val in zip(slots, z):
            M[i][j] = QC.of(val)
        return tuple(tuple(row) for row in M)
    z = np.asarray(z, dtype=complex)
    M = np.zeros(z.shape[:-1] + (n + 1, r), dtype=complex)
    M[..., range(r), range(r)] = 1.0
    rows, cs = zip(*slots)
    M[..., rows, cs] = z
    return M


def _grassmann_slots(n: int, k: int):
    """Row-major positions of the (n+1-k) x k block below the k x k identity."""
    return [(k + r, c) for r in range(n + 1 - k) for c in range(k)]


def _fullflag_slots(n: int):
    """Strictly lower positions of GL(n+1), row by row."""
    return [(i, j) for i in range(1, n + 1) for j in range(i)]


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


def gram_minors(F, unit_top: bool = False):
    """Leading principal minors ``det G[:k, :k]``, k = 1..r, of ``G = F* F``.

    ``F`` is an m x r frame; with ``unit_top`` it is the block below an
    r x r identity, so ``G = 1 + F* F``.  By Cauchy-Binet the k-th minor is
    the sum of squared k x k minors of the first k columns.  ``G`` is
    Hermitian positive definite, so unpivoted elimination on its upper
    triangle gives the minors as running products of the pivots.  One loop
    for both paths: exact (Fractions) when ``F`` holds QC rows, otherwise
    float with each Gram entry a batch array over the leading axes of ``F``.
    """
    exact = _is_exact_block(F)
    cols = list(zip(*F)) if exact else np.moveaxis(np.asarray(F, dtype=complex), (-1, -2), (0, 1))
    r = len(cols)
    conj = [[x.conj() for x in col] for col in cols]
    G = [[sum((x * y for x, y in zip(conj[a], cols[b])), int(unit_top and a == b)) if b >= a else None
          for b in range(r)] for a in range(r)]
    out, det = [], 1
    for c in range(r):
        pivot = G[c][c].real
        det = det * pivot
        out.append(det)
        for i in range(c + 1, r):
            f = G[c][i].conj() / pivot
            G[i][i:] = [x - f * y for x, y in zip(G[i][i:], G[c][i:])]
    return tuple(out) if exact else np.stack(out, axis=-1)


def grassmann_h(n: int, k: int, Z) -> float:
    """Gram determinant of the (n+1) x k frame [1_k; Z].

    Equals the sum of squared k x k minors of the frame.  ``Z`` is the
    (n+1-k) x k block of big-cell coordinates; batching over leading axes
    is supported.  Exact (Fraction) when Z has QC entries.
    """
    shape = (len(Z), len(Z[0])) if _is_exact_block(Z) else np.shape(Z)[-2:]
    if tuple(shape) != (n + 1 - k, k):
        raise DomainError(f"expected trailing shape {(n + 1 - k, k)}, got {tuple(shape)}")
    h = gram_minors(Z, unit_top=True)
    return h[-1] if isinstance(h, tuple) else h[..., -1]


def _is_exact_block(Z) -> bool:
    return isinstance(Z, (list, tuple)) and len(Z) > 0 and isinstance(Z[0], (list, tuple)) \
        and all(isinstance(x, QC) for row in Z for x in row)


def fullflag_h(n: int, Z):
    """Fundamental potentials ``(h_1, ..., h_n)`` of the full flag of GL(n+1).

    ``h_k`` is the Gram determinant of the first k columns of the unipotent
    1 + strictlower(Z), i.e. the k-th leading Gram minor of its first n
    columns.  ``Z`` holds the strictly lower entries row by row (length
    n(n+1)/2).  Exact (a tuple of Fractions) when Z has QC entries.
    """
    return gram_minors(_big_cell(n, _fullflag_slots(n), Z, exact=_is_exact_vecz(Z), cols=n))


def _is_exact_vecz(z) -> bool:
    return isinstance(z, (list, tuple)) and all(isinstance(x, QC) for x in z)


def quadric_h(N: int, zeta) -> float:
    """h = 1 + |zeta|^2/2 + |q(zeta)|^2/16 with q(zeta) = sum zeta_j^2.

    This is the squared norm of the isotropic big-cell section through
    ``e_1 - i e_2`` (unit-normalised).
    """
    if N < 5:
        raise DomainError("quadric chart requires N >= 5")
    if _is_exact_vecz(zeta):
        if len(zeta) != N - 2:
            raise DomainError(f"expected {N - 2} coordinates")
        q = QC(0)
        a2 = Fraction(0)
        for z in zeta:
            q = q + z * z
            a2 += z.abs2()
        return 1 + Fraction(1, 2) * a2 + Fraction(1, 16) * q.abs2()
    zeta = np.asarray(zeta, dtype=complex)
    if zeta.shape[-1] != N - 2:
        raise DomainError(f"expected {N - 2} coordinates, got {zeta.shape[-1]}")
    q = np.sum(zeta * zeta, axis=-1)
    return 1.0 + 0.5 * np.sum(np.abs(zeta) ** 2, axis=-1) + np.abs(q) ** 2 / 16.0


def product_h(h1: Callable, h2: Callable, z1, z2):
    """Potential of a product geometry: h(z1, z2) = h1(z1) * h2(z2)."""
    return h1(z1) * h2(z2)


def nilpotent_log(M, dim: int):
    """log(1 + X) for strictly triangular X = M - 1, as a terminating series."""
    if isinstance(M, tuple) or _is_exact_block(M):
        from .exact import eye, mat_add, mat_mul, mat_sub

        X = mat_sub(M, eye(len(M)))
        out = X
        power = X
        for k in range(2, dim + 2):
            power = mat_mul(power, X)
            if all(all(x.is_zero() for x in row) for row in power):
                return out
            out = mat_add(out, mat_scale(QC(Fraction((-1) ** (k + 1), k)), power))
        raise DomainError("matrix is not unipotent")
    M = np.asarray(M, dtype=complex)
    X = M - np.eye(M.shape[0])
    out = X.copy()
    power = X.copy()
    for k in range(2, dim + 2):
        power = power @ X
        if not np.any(power):
            return out
        out = out + ((-1) ** (k + 1) / k) * power
    raise DomainError("matrix is not unipotent")


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
        """``(n, r, slots)``: n(z) in GL(n+1), frame width r; generator alpha uses r - n_gen + 1 + alpha columns."""
        n = self.params["n"]
        if self.params.get("full"):
            return n, n, _fullflag_slots(n)
        return n, self.params["k"], _grassmann_slots(n, self.params["k"])

    def h_closed(self, z) -> np.ndarray:
        """Closed-form fundamental potentials, shape (..., n_gen)."""
        if self.kind == "wedge":
            n, r, slots = self._wedge()
            if self.params.get("full"):
                return fullflag_h(n, z)
            F = _big_cell(n, slots, z, exact=_is_exact_vecz(z), cols=r)     # [1_k; Z]
            h = grassmann_h(n, r, F[r:] if isinstance(F, tuple) else F[..., r:, :])
            return (h,) if isinstance(h, Fraction) else h[..., None]
        if self.kind == "quadric":
            val = quadric_h(self.params["N"], z)
            return (val,) if isinstance(val, Fraction) else np.asarray(val)[..., None]
        # product of projective lines / general product
        if _is_exact_vecz(z):
            out = []
            for j in range(self.n_gen):
                zz = z[j]
                out.append(1 + zz.abs2())
            return tuple(out)
        z = np.asarray(z, dtype=complex)
        return 1.0 + np.abs(z) ** 2

    def frames(self, z) -> list:
        """Holomorphic frames ``(F_alpha, U, V)``: ``h_alpha = det(F_alpha* F_alpha)`` and ``d_a F_alpha = u_a v_a^T``.

        Each coordinate enters one column of a frame, so its Jacobian has
        rank one: the columns of U (..., N, n_z), constant except on quadrics,
        and of V (r, n_z).  Batched over the leading axes of complex ``z``.
        Wedge and product frames are ``Frame``s with unit factors.
        """
        z = np.asarray(z, dtype=complex)
        m, ones = self.n_z, np.ones((1, self.n_z))
        if self.kind == "wedge":        # d_a F = the unit matrix at slot a
            n, r, slots = self._wedge()
            rows, cols = map(np.array, zip(*slots))
            F, U, V = _big_cell(n, slots, z, cols=r), np.eye(n + 1)[:, rows], np.eye(r)[:, cols]
            frames = []
            for k in range(r - self.n_gen + 1, r + 1):
                on = cols < k               # coordinates in the first k columns; the others read column 0, weight 0
                units = (rows, np.where(on, cols, 0), None if on.all() else on.astype(float))
                frames.append(Frame(F[..., :k], U, V[:k], units))
            return frames
        if self.kind == "quadric":      # s = (1, zeta/sqrt2, q(zeta)/4), d_a s = (0, e_a/sqrt2, zeta_a/2)
            s = np.concatenate([np.ones(z.shape[:-1] + (1,)), z / np.sqrt(2.0),
                                np.sum(z * z, axis=-1, keepdims=True) / 4.0], axis=-1)
            U = np.zeros(z.shape[:-1] + (m + 2, m), dtype=complex)
            U[..., range(1, m + 1), range(m)] = 1.0 / np.sqrt(2.0)
            U[..., m + 1, :] = z / 2.0
            return [(s[..., None], U, ones)]
        # product of projective lines: [1; z_j], d_a = delta_aj (0; 1)
        unit_rows, zero_cols = np.ones(m, dtype=int), np.zeros(m, dtype=int)
        return [Frame(_big_cell(1, ((1, 0),), z[..., j:j + 1], cols=1), np.outer([0.0, 1.0], np.eye(m)[j]), ones,
                      (unit_rows, zero_cols, np.eye(m)[j]))
                for j in range(self.n_gen)]

    def h_closed_exact(self, z) -> Tuple[Fraction, ...]:
        out = self.h_closed(z)
        if isinstance(out, tuple):
            return out
        raise DomainError("exact evaluation needs QC coordinates")

    # -- representation path ------------------------------------------------

    def rep(self, gen: int) -> RepSpace:
        key = ("rep", gen)
        if key not in self.params:
            self.params[key] = self._build_rep(gen)
        return self.params[key]

    def _build_rep(self, gen: int) -> RepSpace:
        if self.kind == "wedge":
            n = self.params["n"]
            k = gen + 1 if self.params.get("full") else self.params["k"]
            return wedge_module(n, k)
        if self.kind == "quadric":
            return so_vector_module(self.params["N"])
        return wedge_module(1, 1)     # product factors are projective lines

    def word_element(self, gen: int, z, exact: bool = False):
        """Algebra element X(z) whose exponential is the big-cell section."""
        if self.kind == "wedge":
            n, r, slots = self._wedge()
            k = r - self.n_gen + 1 + gen
            L = nilpotent_log(_big_cell(n, slots, z, exact=exact), n + 1)
            return derivation_matrix(n, k, L)
        if self.kind == "quadric":
            N = self.params["N"]
            if exact:
                from .exact import mat_add

                M = tuple(tuple(QC(0) for _ in range(N)) for _ in range(N))
                for zj, Y in zip(z, so_radical_basis(N)):
                    M = mat_add(M, mat_scale(zj, Y))
                return M
            if "Ynp" not in self.params:
                self.params["Ynp"] = np.stack([to_complex_matrix(Y) for Y in so_radical_basis(N)])
            return np.tensordot(np.asarray(z, dtype=complex), self.params["Ynp"], axes=(0, 0))
        # product: the z_gen-th factor lowering operator
        y = qc_mat([[0, 0], [1, 0]])
        if exact:
            return mat_scale(z[gen], y)
        return complex(z[gen]) * np.array([[0, 0], [1, 0]], dtype=complex)

    def generic_h(self, gen: int, z, exact: bool = False):
        """|exp(X(z)) v+|^2 / |v+|^2 through the module machinery."""
        rep = self.rep(gen)
        X = self.word_element(gen, z, exact=exact)
        if exact and not isinstance(X, tuple):
            X = qc_mat(X)
        v = act(rep, [(X, 1 if exact else 1.0)], rep.hw_raw, exact=exact)
        ns = rep.norm_sq(v)
        return ns / (rep.hw_norm_sq if exact else float(rep.hw_norm_sq))

    def embedding_rep(self, exponents: Tuple[Fraction, ...]):
        """Module and word builder for the cone embedding of this bundle.

        Supported: all exponents equal to 1 (fundamental weights and their
        Deligne products), plus arbitrary integer powers on a projective
        line.  Returns ``(rep, word(z))`` with ``word(z)`` a list of
        ``(matrix, parameter)`` pairs.  The pair is built once per chart and
        exponents and kept in ``params``; its float matrices are read-only.
        """
        key = ("embedding", tuple(exponents))
        if key not in self.params:
            self.params[key] = self._build_embedding(key[1])
        return self.params[key]

    def _build_embedding(self, ell: Tuple[Fraction, ...]):
        if self.kind == "product":
            if any(e != 1 for e in ell):
                raise ConfigurationError("product embeddings are implemented for exponent 1 on each factor")
            y, i2 = qc_mat([[0, 0], [1, 0]]), qc_mat([[1, 0], [0, 1]])
            lowering = (mat_kron(y, i2), mat_kron(i2, y))
            lowering_np = tuple(_read_only(to_complex_matrix(M)) for M in lowering)

            def word(z, exact=False):
                if exact:
                    return [(M, QC.of(zj)) for M, zj in zip(lowering, z)]
                return [(M, complex(zj)) for M, zj in zip(lowering_np, z)]

            return outer_tensor(self.rep(0), self.rep(1)), word
        if self.n_gen == 1 and ell[0] == 1:
            def word(z, exact=False):
                return [(self.word_element(0, z, exact=exact), 1 if exact else 1.0)]

            return self.rep(0), word
        if self.kind == "wedge" and self.params.get("n") == 1 and self.n_gen == 1:
            rep = sl2_module(int(ell[0]))
            F = rep.simple[1][1]
            F_np = _read_only(to_complex_matrix(F))

            def word(z, exact=False):
                return [(F, QC.of(z[0]))] if exact else [(F_np, complex(z[0]))]

            return rep, word
        raise ConfigurationError(f"no embedding module implemented for {self.name} with exponents {ell}")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def _chart_cp(m: int) -> Chart:
    rs = build_root_system("A", m) if m >= 1 else None
    fd = flag(rs, set(range(2, m + 1)))
    return Chart(
        name=f"cp:{m}",
        kind="wedge",
        n_z=m,
        n_gen=1,
        m=fd.dim_complex,
        fano=fd.fano_index,
        delta_pairings=tuple(int(p) for p in fd.delta_pairings),
        flag_info={"series": "A", "rank": m, "theta": sorted(fd.theta)},
        params={"n": m, "k": 1},
    )


def _chart_grassmann(n: int, k: int) -> Chart:
    rs = build_root_system("A", n)
    fd = flag(rs, set(range(1, n + 1)) - {k})
    return Chart(
        name=f"grassmann:{n}:{k}",
        kind="wedge",
        n_z=(n + 1 - k) * k,
        n_gen=1,
        m=fd.dim_complex,
        fano=fd.fano_index,
        delta_pairings=tuple(int(p) for p in fd.delta_pairings),
        flag_info={"series": "A", "rank": n, "theta": sorted(fd.theta)},
        params={"n": n, "k": k},
    )


def _chart_fullflag(n: int) -> Chart:
    rs = build_root_system("A", n)
    fd = flag(rs, set())
    return Chart(
        name=f"fullflag:A:{n}",
        kind="wedge",
        n_z=n * (n + 1) // 2,
        n_gen=n,
        m=fd.dim_complex,
        fano=fd.fano_index,
        delta_pairings=tuple(int(p) for p in fd.delta_pairings),
        flag_info={"series": "A", "rank": n, "theta": []},
        params={"n": n, "full": True},
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
    return ["cp:m", "grassmann:n:k", "fullflag:A:n", "quadric:N", "conifold", "gr24", "wallach", "hopf:cpM"]


def resolve_case(case: str) -> Chart:
    """Build the chart for a catalog identifier."""
    case = case.strip().lower()
    case = _ALIASES.get(case, case)
    if case.startswith("hopf:cp"):
        case = "cp:" + case[len("hopf:cp"):]
    parts = case.split(":")
    try:
        if parts[0] == "cp" and len(parts) == 2:
            return _chart_cp(int(parts[1]))
        if parts[0] == "grassmann" and len(parts) == 3:
            return _chart_grassmann(int(parts[1]), int(parts[2]))
        if parts[0] == "fullflag" and len(parts) == 3 and parts[1] == "a":
            return _chart_fullflag(int(parts[2]))
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

    def h_L(self, z) -> np.ndarray:
        hs = self.chart.h_closed(z)
        if isinstance(hs, tuple):
            out = Fraction(1)
            for h, e in zip(hs, self.exponents):
                if e.denominator != 1:
                    raise DomainError("exact evaluation needs integer exponents")
                out *= h ** int(e)
            return out
        out = np.ones(np.asarray(hs).shape[:-1])
        for i, e in enumerate(self.exponents):
            out = out * np.asarray(hs)[..., i] ** float(e)
        return out

    def K1(self, z, w):
        if _is_exact_vecz(z) and isinstance(w, QC):
            return self.h_L(z) * w.abs2()
        return self.h_L(z) * np.abs(np.asarray(w)) ** 2

    def K(self, z, w):
        k1 = self.K1(z, w)
        if isinstance(k1, Fraction):
            if self.b == 1:
                return k1
            return float(k1) ** float(self.b)
        return k1 ** float(self.b)

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


def encode_point(z: Sequence[complex], w: Optional[complex] = None) -> np.ndarray:
    out = []
    for zi in z:
        zi = complex(zi)
        out.extend([zi.real, zi.imag])
    if w is not None:
        w = complex(w)
        out.extend([w.real, w.imag])
    return np.array(out, dtype=float)


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
