"""Big-cell coordinate charts and the catalog of Kahler potentials.

Every catalog geometry carries direct evaluators for the fundamental
potentials ``h_alpha(z) = |n(z) v_alpha|^2`` on the opposite big cell
(normalised so ``h_alpha(0) = 1``), plus a representation-theoretic path
that evaluates the same quantity through the module machinery.  On the
wedge charts (projective spaces, Grassmannians, full flags of type A) the
frame ``F`` is the first columns of the big-cell unipotent ``n(z)``, and by
Cauchy-Binet ``h_alpha`` is a leading principal minor of the Gram matrix
``F* F``, a running product of the pivots of one Hermitian elimination on
both the exact and the float path (no Cholesky); quadrics and products
keep their closed norms of a single section.  A ``PotentialSpec`` combines
a chart with bundle exponents and an outer cone exponent ``b``:

    K_1(z, w) = prod_alpha h_alpha(z)^(e_alpha) * |w|^2,
    K_b(z, w) = K_1(z, w)^b.

Catalog identifiers: ``cp:m``, ``grassmann:n:k``, ``fullflag:A:n``,
``quadric:N``, ``conifold``, and the aliases ``gr24`` (= grassmann:3:2),
``wallach`` (= fullflag:A:2), ``hopf:cpM`` (= cp:M).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .exact import QC, mat_scale, qc_mat, to_complex_matrix
from .reps import (RepSpace, act, derivation_matrix, outer_tensor, sl2_module,
                   so_radical_basis, so_vector_module, wedge_module)
from .roots import ConfigurationError, build_root_system, flag


class DomainError(ValueError):
    """Inputs outside the chart or bundle preconditions."""


# ---------------------------------------------------------------------------
# potential building blocks: big-cell frames and their Gram minors
# ---------------------------------------------------------------------------

def _big_cell(n: int, slots, z, exact: bool = False):
    """The unipotent n(z) = 1 + sum_a z_a E_(slot_a) in GL(n+1).

    ``slots`` gives the (row, col) position of each coordinate below the
    diagonal.  Exact (a tuple of QC rows) with ``exact``; otherwise batched
    over the leading axes of ``z``.
    """
    if exact:
        M = [[QC(1 if i == j else 0) for j in range(n + 1)] for i in range(n + 1)]
        for (i, j), val in zip(slots, z):
            M[i][j] = QC.of(val)
        return tuple(tuple(row) for row in M)
    z = np.asarray(z, dtype=complex)
    M = np.zeros(z.shape[:-1] + (n + 1, n + 1), dtype=complex)
    M[..., range(n + 1), range(n + 1)] = 1.0
    rows, cols = zip(*slots)
    M[..., rows, cols] = z
    return M


def _grassmann_slots(n: int, k: int):
    """Row-major positions of the (n+1-k) x k block below the k x k identity."""
    return [(k + r, c) for r in range(n + 1 - k) for c in range(k)]


def _fullflag_slots(n: int):
    """Strictly lower positions of GL(n+1), row by row."""
    return [(i, j) for i in range(1, n + 1) for j in range(i)]


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
    exact = _is_exact_vecz(Z)
    M = _big_cell(n, _fullflag_slots(n), Z, exact=exact)
    if exact:
        return gram_minors([row[:n] for row in M])
    return gram_minors(M[..., :n])


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
        n = len(M)
        X = [[M[i][j] - QC(1 if i == j else 0) for j in range(n)] for i in range(n)]
        X = qc_mat(X)
        from .exact import mat_add, mat_mul

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

    def h_closed(self, z) -> np.ndarray:
        """Closed-form fundamental potentials, shape (..., n_gen)."""
        if self.kind == "wedge":
            n = self.params["n"]
            if self.params.get("full"):
                return fullflag_h(n, z)
            h = grassmann_h(n, self.params["k"], self._reshape_block(z))
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

    def h_closed_exact(self, z) -> Tuple[Fraction, ...]:
        out = self.h_closed(z)
        if isinstance(out, tuple):
            return out
        raise DomainError("exact evaluation needs QC coordinates")

    def _reshape_block(self, z):
        n, k = self.params["n"], self.params["k"]
        rows, cols = n + 1 - k, k
        if _is_exact_vecz(z):
            return [list(z[r * cols:(r + 1) * cols]) for r in range(rows)]
        z = np.asarray(z, dtype=complex)
        return z.reshape(z.shape[:-1] + (rows, cols))

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
            n = self.params["n"]
            if self.params.get("full"):
                k, slots = gen + 1, _fullflag_slots(n)
            else:
                k = self.params["k"]
                slots = _grassmann_slots(n, k)
            M = _big_cell(n, slots, z, exact=exact)
            L = nilpotent_log(M, n + 1)
            return derivation_matrix(n, k, L) if exact else _derivation_float(n, k, L)
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
        ``(matrix, parameter)`` pairs.
        """
        ell = exponents
        if self.kind == "product":
            if any(e != 1 for e in ell):
                raise ConfigurationError("product embeddings are implemented for exponent 1 on each factor")
            rep = outer_tensor(self.rep(0), self.rep(1))

            def word(z, exact=False):
                from .exact import mat_kron

                y = qc_mat([[0, 0], [1, 0]])
                i2 = qc_mat([[1, 0], [0, 1]])
                if exact:
                    return [(mat_kron(y, i2), QC.of(z[0])), (mat_kron(i2, y), QC.of(z[1]))]
                a = np.kron(np.array([[0, 0], [1, 0]], dtype=complex), np.eye(2))
                b = np.kron(np.eye(2), np.array([[0, 0], [1, 0]], dtype=complex))
                return [(a, complex(z[0])), (b, complex(z[1]))]

            return rep, word
        if self.n_gen == 1 and ell[0] == 1:
            rep = self.rep(0)

            def word(z, exact=False):
                return [(self.word_element(0, z, exact=exact), 1 if exact else 1.0)]

            return rep, word
        if self.kind == "wedge" and self.params.get("n") == 1 and self.n_gen == 1:
            l = int(ell[0])
            rep = sl2_module(l)

            def word(z, exact=False):
                F = rep.simple[1][1]
                if exact:
                    return [(F, QC.of(z[0]))]
                return [(to_complex_matrix(F), complex(z[0]))]

            return rep, word
        raise ConfigurationError(f"no embedding module implemented for {self.name} with exponents {ell}")


def _derivation_float(n: int, k: int, L: np.ndarray) -> np.ndarray:
    from math import comb

    basis = list(combinations(range(1, n + 2), k))
    index = {b: i for i, b in enumerate(basis)}
    d = comb(n + 1, k)
    out = np.zeros((d, d), dtype=complex)
    for col, subset in enumerate(basis):
        for pos, i in enumerate(subset):
            for j in range(1, n + 2):
                coef = L[j - 1, i - 1]
                if coef == 0:
                    continue
                if j in subset and j != i:
                    continue
                new = list(subset)
                new[pos] = j
                arranged = sorted(new)
                inversions = sum(1 for a in range(len(new)) for b in range(a + 1, len(new)) if new[a] > new[b])
                sign = -1 if inversions % 2 else 1
                out[index[tuple(arranged)], col] += sign * coef
    return out


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

    def base_log_anticanonical(self) -> Callable[[np.ndarray], np.ndarray]:
        """log h_delta over base points (no fiber coordinate)."""
        pair = [float(p) for p in self.chart.delta_pairings]

        def F(points: np.ndarray) -> np.ndarray:
            z = decode_base_points(points, self.chart.n_z)
            hs = np.asarray(self.chart.h_closed(z))
            return sum(p * np.log(hs[..., i]) for i, p in enumerate(pair))

        return F


def decode_points(points: np.ndarray, n_z: int):
    points = np.asarray(points, dtype=float)
    z = points[..., 0:2 * n_z:2] + 1j * points[..., 1:2 * n_z:2]
    w = points[..., 2 * n_z] + 1j * points[..., 2 * n_z + 1]
    return z, w


def decode_base_points(points: np.ndarray, n_z: int):
    points = np.asarray(points, dtype=float)
    return points[..., 0:2 * n_z:2] + 1j * points[..., 1:2 * n_z:2]


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
