"""Explicit irreducible modules with exact generator matrices.

Every catalog module carries:

* Chevalley triples ``(E_i, F_i, H_i)`` per simple-root index, as Gaussian
  rational matrices acting on a distinguished weight basis;
* a diagonal invariant inner product (``gram``), with the highest weight
  vector stored unnormalised together with its squared norm, so that all
  squared-norm computations stay rational;
* a full algebra basis in the module together with its Killing Gram
  matrix, from which Casimir operators on V and on V (x) V are assembled
  with exact dual bases.

Unipotent group elements are evaluated by truncating the exponential
series of a nilpotent matrix, which is exact over the rationals.  The
float path works over leading axes: a word step ``(M, t)`` may carry one
matrix ``(d, d)`` or one per row ``(..., d, d)``, and a scalar or per-row
parameter.  Rows whose series still has a nonzero term after ``d + 1``
steps (a non-nilpotent step, or rounding residue) fall back to a dense
``scipy.linalg.expm`` of those rows only.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Optional, Sequence, Tuple

import numpy as np

from .exact import (QC, Mat, mat_comm, mat_dagger, mat_inv, mat_kron, mat_mul,
                    mat_scale, mat_trace, mat_vec, qc_mat, to_complex_matrix,
                    to_complex_vector, zeros)
from .roots import ConfigurationError, RootSystem, Weight, build_root_system


class ExactModeError(RuntimeError):
    """Raised when an exact evaluation hits a non-nilpotent exponential."""


@dataclass
class RepSpace:
    name: str
    dim: int
    simple: dict                      # 1-based index -> (E, F, H) QC matrices
    gram: Tuple[Fraction, ...]        # diagonal Gram of the invariant product
    hw_raw: tuple                     # highest weight vector, unnormalised (QC entries)
    hw_norm_sq: Fraction
    algebra_rep: Tuple[Mat, ...]      # full algebra basis acting on the module
    algebra_gram: Tuple[tuple, ...]   # Killing Gram of that basis (QC entries)
    highest_weight: Optional[Weight] = None
    root_system: Optional[RootSystem] = None
    basis_labels: Optional[tuple] = None
    _np_cache: dict = field(default_factory=dict, repr=False)

    @property
    def hw_index(self) -> int:
        for k, x in enumerate(self.hw_raw):
            if x:
                return k
        raise ValueError("zero highest weight vector")

    def hw_unit(self) -> np.ndarray:
        """Unit-norm highest weight vector (complex, read-only)."""
        if "hw_unit" not in self._np_cache:
            v = to_complex_vector(self.hw_raw) / np.sqrt(float(self.hw_norm_sq))
            v.flags.writeable = False
            self._np_cache["hw_unit"] = v
        return self._np_cache["hw_unit"]

    def gram_np(self) -> np.ndarray:
        if "gram" not in self._np_cache:
            self._np_cache["gram"] = np.array([float(g) for g in self.gram])
        return self._np_cache["gram"]

    def simple_np(self, i: int):
        key = ("simple", i)
        if key not in self._np_cache:
            self._np_cache[key] = tuple(to_complex_matrix(m) for m in self.simple[i])
        return self._np_cache[key]

    def algebra_rep_np(self) -> np.ndarray:
        if "alg" not in self._np_cache:
            self._np_cache["alg"] = np.stack([to_complex_matrix(m) for m in self.algebra_rep])
        return self._np_cache["alg"]

    def norm_sq(self, v):
        """Squared norm in the invariant product; exact for QC vectors, per row over the last axis of arrays."""
        if _is_exact_vector(v):
            return sum((g * x.abs2() for g, x in zip(self.gram, v)), Fraction(0))
        v = np.asarray(v)
        out = np.sum(self.gram_np() * np.abs(v) ** 2, axis=-1)
        return float(out) if v.ndim == 1 else out

    def inner(self, u, v):
        u = np.asarray(u, dtype=complex)
        v = np.asarray(v, dtype=complex)
        return complex(np.sum(self.gram_np() * u * np.conj(v)))


def _is_exact_scalar(x) -> bool:
    return isinstance(x, (QC, Fraction, int))


def _is_exact_vector(v) -> bool:
    return isinstance(v, (list, tuple)) and all(isinstance(x, QC) for x in v)


# ---------------------------------------------------------------------------
# sl(2): homogeneous polynomials of degree l in X, Y
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def sl2_module(ell: int) -> RepSpace:
    """Degree-``ell`` homogeneous polynomial module of sl(2).

    Basis ``P_k = X^(l-k) Y^k`` with the invariant product
    ``|P_k|^2 = 1 / binom(l, k)``; the generators act as
    ``x = X d/dY, y = Y d/dX, h = X d/dX - Y d/dY``.
    """
    if ell < 0:
        raise ConfigurationError("polynomial degree must be nonnegative")
    d = ell + 1
    E = zeros(d, d)
    F = zeros(d, d)
    H = zeros(d, d)
    for k in range(d):
        H[k][k] = QC(ell - 2 * k)
        if k >= 1:
            E[k - 1][k] = QC(k)
        if k < ell:
            F[k + 1][k] = QC(ell - k)
    E, F, H = qc_mat(E), qc_mat(F), qc_mat(H)

    rs = build_root_system("A", 1)
    defining = [qc_mat([[0, 1], [0, 0]]), qc_mat([[0, 0], [1, 0]]), qc_mat([[1, 0], [0, -1]])]
    gram_alg = _killing_gram([(Fraction(4), defining)])
    hw = tuple(QC(1 if k == 0 else 0) for k in range(d))
    return RepSpace(
        name=f"sl2:V({ell}w)",
        dim=d,
        simple={1: (E, F, H)},
        gram=tuple(Fraction(1, comb(ell, k)) for k in range(d)),
        hw_raw=hw,
        hw_norm_sq=Fraction(1),
        algebra_rep=(E, F, H),
        algebra_gram=gram_alg,
        highest_weight=rs.weight([ell]),
        root_system=rs,
        basis_labels=tuple(ell - 2 * k for k in range(d)),
    )


def _killing_gram(factor_data) -> Tuple[tuple, ...]:
    """Gram matrix kappa(B_a, B_b) = sum_f scale_f tr(def^f_a def^f_b).

    ``factor_data`` is a list of (scale, defining-matrices) per factor; an
    element of the combined basis lives in exactly one factor and is zero
    in the others, so cross terms vanish.
    """
    offset = 0
    total = sum(len(mats) for _, mats in factor_data)
    G = [[QC(0) for _ in range(total)] for _ in range(total)]
    for scale, mats in factor_data:
        m = len(mats)
        for a in range(m):
            for b in range(a, m):
                val = mat_trace(mat_mul(mats[a], mats[b])) * scale
                G[offset + a][offset + b] = val
                G[offset + b][offset + a] = val
        offset += m
    return tuple(tuple(row) for row in G)


# ---------------------------------------------------------------------------
# sl(n+1): wedge powers of the defining module
# ---------------------------------------------------------------------------

def wedge_basis(n: int, k: int):
    return list(combinations(range(1, n + 2), k))


@lru_cache(maxsize=None)
def _derivation_table(n: int, k: int) -> tuple:
    """``(row, col, j, i, sign)`` per term of a derivation on the k-th wedge power.

    Column ``col`` is the basis wedge ``e_S``; replacing its factor ``e_i``
    by ``e_j`` (``j`` not elsewhere in ``S``) and sorting gives ``sign``
    times basis wedge ``row``, weighted by the matrix entry ``X[j][i]``
    (0-based indices).  Terms are listed in column, position, ``j`` order.
    """
    basis = wedge_basis(n, k)
    index = {b: r for r, b in enumerate(basis)}
    out = []
    for col, subset in enumerate(basis):
        for pos, i in enumerate(subset):
            for j in range(1, n + 2):
                if j in subset and j != i:
                    continue
                new = subset[:pos] + (j,) + subset[pos + 1:]
                inversions = sum(1 for a in range(k) for b in range(a + 1, k) if new[a] > new[b])
                out.append((index[tuple(sorted(new))], col, j - 1, i - 1, -1 if inversions % 2 else 1))
    return tuple(out)


@lru_cache(maxsize=None)
def _derivation_arrays(n: int, k: int) -> tuple:
    """The columns of ``_derivation_table`` as int arrays, for the float path."""
    return tuple(np.array(c) for c in zip(*_derivation_table(n, k)))


def derivation_matrix(n: int, k: int, X):
    """Action of ``X`` in gl(n+1) on the k-th wedge power, as a derivation.

    Exact (a QC matrix) for a QC matrix ``X``; complex for an ndarray,
    batched over its leading axes.
    """
    d = comb(n + 1, k)
    if isinstance(X, np.ndarray):
        rows, cols, js, is_, signs = _derivation_arrays(n, k)
        out = np.zeros(X.shape[:-2] + (d, d), dtype=complex)
        np.add.at(out, (Ellipsis, rows, cols), signs * X[..., js, is_])
        return out
    out = zeros(d, d)
    for row, col, j, i, sign in _derivation_table(n, k):
        coef = X[j][i]
        if coef:
            out[row][col] = out[row][col] + coef * sign
    return tuple(tuple(r) for r in out)


def _unit_matrix(n: int, i: int, j: int) -> Mat:
    m = zeros(n, n)
    m[i - 1][j - 1] = QC(1)
    return tuple(tuple(r) for r in m)


@lru_cache(maxsize=None)
def wedge_module(n: int, k: int) -> RepSpace:
    """k-th wedge power of the defining module of sl(n+1).

    The weight basis is the lexicographically ordered wedge basis
    ``e_{i_1} ^ ... ^ e_{i_k}``, orthonormal for the invariant product.
    The highest weight vector is ``e_1 ^ ... ^ e_k``.
    """
    if not 1 <= k <= n:
        raise ConfigurationError(f"wedge index must satisfy 1 <= k <= {n}")
    N = n + 1
    basis = wedge_basis(n, k)
    d = len(basis)

    simple = {}
    for i in range(1, n + 1):
        E = derivation_matrix(n, k, _unit_matrix(N, i, i + 1))
        F = derivation_matrix(n, k, _unit_matrix(N, i + 1, i))
        Hdef = mat_sub_units(N, i)
        H = derivation_matrix(n, k, Hdef)
        simple[i] = (E, F, H)

    defining = []
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            if i != j:
                defining.append(_unit_matrix(N, i, j))
    for i in range(1, n + 1):
        defining.append(mat_sub_units(N, i))
    in_rep = tuple(derivation_matrix(n, k, X) for X in defining)
    gram_alg = _killing_gram([(Fraction(2 * N), defining)])

    rs = build_root_system("A", n)
    hw = tuple(QC(1 if b == tuple(range(1, k + 1)) else 0) for b in basis)
    return RepSpace(
        name=f"sl{N}:wedge{k}",
        dim=d,
        simple=simple,
        gram=tuple(Fraction(1) for _ in range(d)),
        hw_raw=hw,
        hw_norm_sq=Fraction(1),
        algebra_rep=in_rep,
        algebra_gram=gram_alg,
        highest_weight=rs.fundamental_weight(k),
        root_system=rs,
        basis_labels=tuple(basis),
    )


def mat_sub_units(N: int, i: int) -> Mat:
    m = zeros(N, N)
    m[i - 1][i - 1] = QC(1)
    m[i][i] = QC(-1)
    return tuple(tuple(r) for r in m)


# ---------------------------------------------------------------------------
# so(N): the vector module on C^N preserving q(z) = sum z_k^2
# ---------------------------------------------------------------------------

def _so_pair_op(x: Sequence[QC], y: Sequence[QC]) -> Mat:
    """Antisymmetric operator v -> q(x, v) y - q(y, v) x with q = sum of products."""
    N = len(x)
    out = zeros(N, N)
    for r in range(N):
        for c in range(N):
            out[r][c] = y[r] * x[c] - x[r] * y[c]
    return tuple(tuple(r) for r in out)


def _so_uvec(N: int, l: int, bar: bool) -> tuple:
    v = [QC(0)] * N
    v[2 * l - 2] = QC(1)
    v[2 * l - 1] = QC(0, 1) if bar else QC(0, -1)
    return tuple(v)


def _so_evec(N: int, a: int) -> tuple:
    return tuple(QC(1 if k == a - 1 else 0) for k in range(N))


@lru_cache(maxsize=None)
def so_vector_module(N: int) -> RepSpace:
    """Vector module C^N of so(N) in the antisymmetric-matrix realisation.

    The bilinear form is q(z) = sum z_k^2, the highest weight vector is
    ``e_1 - i e_2`` (kept unnormalised; its squared norm 2 is stored), and
    the compact real form acts by real antisymmetric matrices.  N = 3 is
    served by the degree-2 sl(2) module; N = 4 is rejected because the
    algebra is not simple.
    """
    if N == 3:
        return sl2_module(2)
    if N == 4:
        raise ConfigurationError("so(4) is not simple; build a product of two sl(2) modules instead")
    if N < 5:
        raise ConfigurationError("vector module needs N = 3 or N >= 5")
    n = N // 2
    odd = N % 2 == 1
    rs = build_root_system("B" if odd else "D", n)

    u = [_so_uvec(N, l, bar=False) for l in range(1, n + 1)]
    ubar = [_so_uvec(N, l, bar=True) for l in range(1, n + 1)]

    half = Fraction(1, 2)
    simple = {}
    for i in range(1, n):
        E = mat_scale(half, _so_pair_op(u[i - 1], ubar[i]))
        F = mat_dagger(E)
        simple[i] = (E, F, mat_comm(E, F))
    if odd:
        E = _so_pair_op(u[n - 1], _so_evec(N, N))
        F = mat_dagger(E)
        simple[n] = (E, F, mat_comm(E, F))
    else:
        E = mat_scale(half, _so_pair_op(u[n - 2], u[n - 1]))
        F = mat_dagger(E)
        simple[n] = (E, F, mat_comm(E, F))

    basis = []
    for a in range(1, N + 1):
        for b in range(a + 1, N + 1):
            basis.append(_so_pair_op(_so_evec(N, a), _so_evec(N, b)))
    gram_alg = _killing_gram([(Fraction(N - 2), basis)])

    return RepSpace(
        name=f"so{N}:vector",
        dim=N,
        simple=simple,
        gram=tuple(Fraction(1) for _ in range(N)),
        hw_raw=u[0],
        hw_norm_sq=Fraction(2),
        algebra_rep=tuple(basis),
        algebra_gram=gram_alg,
        highest_weight=rs.fundamental_weight(1),
        root_system=rs,
    )


@lru_cache(maxsize=None)
def so_radical_basis(N: int) -> Tuple[Mat, ...]:
    """Lowering operators Y_j matching the isotropic big-cell parameterisation.

    ``exp(sum zeta_j Y_j)`` sends the highest vector e_1 - i e_2 to
    ``(e_1 - i e_2) + sum zeta_j e_(j+2) - (q(zeta)/4)(e_1 + i e_2)``.
    """
    if N < 5:
        raise ConfigurationError("isotropic chart requires N >= 5")
    ubar = _so_uvec(N, 1, bar=True)
    x = tuple(QC(Fraction(-1, 2)) * c for c in ubar)
    out = []
    for j in range(1, N - 1):
        out.append(_so_pair_op(_so_evec(N, j + 2), x))
    return tuple(out)


# ---------------------------------------------------------------------------
# outer tensor products (Deligne products across distinct algebras)
# ---------------------------------------------------------------------------

def outer_tensor(r1: RepSpace, r2: RepSpace) -> RepSpace:
    """Module of the product algebra: each factor acts on its own slot."""
    d1, d2 = r1.dim, r2.dim
    id1 = qc_mat([[1 if i == j else 0 for j in range(d1)] for i in range(d1)])
    id2 = qc_mat([[1 if i == j else 0 for j in range(d2)] for i in range(d2)])

    simple = {}
    for i, (E, F, H) in r1.simple.items():
        simple[i] = tuple(mat_kron(M, id2) for M in (E, F, H))
    off = max(r1.simple) if r1.simple else 0
    for i, (E, F, H) in r2.simple.items():
        simple[off + i] = tuple(mat_kron(id1, M) for M in (E, F, H))

    alg = tuple(mat_kron(M, id2) for M in r1.algebra_rep) + tuple(mat_kron(id1, M) for M in r2.algebra_rep)
    m1, m2 = len(r1.algebra_rep), len(r2.algebra_rep)
    G = [[QC(0) for _ in range(m1 + m2)] for _ in range(m1 + m2)]
    for a in range(m1):
        for b in range(m1):
            G[a][b] = r1.algebra_gram[a][b]
    for a in range(m2):
        for b in range(m2):
            G[m1 + a][m1 + b] = r2.algebra_gram[a][b]

    gram = tuple(g1 * g2 for g1 in r1.gram for g2 in r2.gram)
    hw = tuple(x * y for x in r1.hw_raw for y in r2.hw_raw)
    return RepSpace(
        name=f"({r1.name})x({r2.name})",
        dim=d1 * d2,
        simple=simple,
        gram=gram,
        hw_raw=hw,
        hw_norm_sq=r1.hw_norm_sq * r2.hw_norm_sq,
        algebra_rep=alg,
        algebra_gram=tuple(tuple(row) for row in G),
    )


def trivial_module() -> RepSpace:
    return RepSpace(
        name="trivial",
        dim=1,
        simple={},
        gram=(Fraction(1),),
        hw_raw=(QC(1),),
        hw_norm_sq=Fraction(1),
        algebra_rep=(),
        algebra_gram=(),
    )


# ---------------------------------------------------------------------------
# group words and exponentials
# ---------------------------------------------------------------------------

def exp_nilpotent_vec(M: Mat, t, v: tuple, max_order: Optional[int] = None):
    """exp(t M) v for nilpotent M over the Gaussian rationals (exact)."""
    t = QC.of(t)
    limit = (max_order or len(v)) + 1
    acc = list(v)
    term = list(v)
    for k in range(1, limit + 1):
        tk = t / k
        term = [x * tk for x in mat_vec(M, term)]
        if all(x.is_zero() for x in term):
            return tuple(acc)
        acc = [a + b for a, b in zip(acc, term)]
    raise ExactModeError("matrix is not nilpotent within the dimension bound")


def _exp_apply_float(M: np.ndarray, t, v: np.ndarray) -> np.ndarray:
    """exp(t M) v per row: ``M`` (d, d) or (..., d, d), ``t`` scalar or (...), ``v`` (..., d).

    The series stops once every row's term is exactly zero; the rows whose
    term is still nonzero after d + 1 steps take a dense exponential.
    """
    d = M.shape[-1]
    shape = np.broadcast_shapes(M.shape[:-2], np.shape(t), v.shape[:-1])
    acc = np.array(np.broadcast_to(v, shape + (d,)), dtype=complex)
    term = acc.copy()
    for k in range(1, d + 2):
        term = (t / k)[..., None] * np.matmul(M, term[..., None])[..., 0]
        if not np.any(term):
            return acc
        acc = acc + term
    # not nilpotent (or rounding residue) on these rows: dense exponential
    from scipy.linalg import expm

    rows = np.any(term != 0, axis=-1)
    Ms, ts = np.broadcast_to(M, shape + (d, d))[rows], np.broadcast_to(t, shape)[rows]
    vs = np.broadcast_to(v, shape + (d,))[rows]
    acc[rows] = np.matmul(expm(ts[:, None, None] * Ms), vs[..., None])[..., 0]
    return acc


def act(rep: RepSpace, word, v, exact: Optional[bool] = None):
    """Apply the group element ``prod exp(t_s M_s)`` to the vector ``v``.

    ``word`` is a sequence of ``(M, t)`` pairs applied left to right, i.e.
    the first pair acts first.  The evaluation is exact when the matrices,
    parameters and vector are all Gaussian rational and every step is
    nilpotent; otherwise it proceeds in complex128 over the leading axes of
    the matrices, parameters and vector (see ``_exp_apply_float``).
    """
    if exact is None:
        exact = _is_exact_vector(tuple(v)) and all(
            _is_exact_scalar(t) and isinstance(M, tuple) for M, t in word
        )
    if exact:
        out = tuple(v)
        for M, t in word:
            out = exp_nilpotent_vec(M, t, out, max_order=rep.dim)
        return out
    if isinstance(v, np.ndarray):
        out = v.astype(complex)
    else:
        out = np.asarray([x.to_complex() if isinstance(x, QC) else complex(x) for x in v], dtype=complex)
    for M, t in word:
        Mc = to_complex_matrix(M) if isinstance(M, tuple) else np.asarray(M, dtype=complex)
        tc = t.to_complex() if isinstance(t, QC) else np.asarray(t, dtype=complex)
        out = _exp_apply_float(Mc, tc, out)
    return out


def compact_directions(rep: RepSpace, i: int):
    """E - F, i(E + F), iH for the simple index ``i`` (exact matrices)."""
    E, F, H = rep.simple[i]
    from .exact import QI, mat_add, mat_sub

    return (mat_sub(E, F), mat_scale(QI, mat_add(E, F)), mat_scale(QI, H))


# ---------------------------------------------------------------------------
# Casimir operators
# ---------------------------------------------------------------------------

def _gram_inverse(rep: RepSpace):
    if "gram_inv" not in rep._np_cache:
        rep._np_cache["gram_inv"] = mat_inv(rep.algebra_gram)
    return rep._np_cache["gram_inv"]


def casimir_matrix(rep: RepSpace, exact: bool = False):
    """Casimir operator sum_a B_a B^a with the Killing-dual basis.

    Returns a complex matrix by default; with ``exact=True`` returns the
    Gaussian-rational matrix (use only for small modules).
    """
    if not rep.algebra_rep:
        return np.zeros((rep.dim, rep.dim), dtype=complex) if not exact else qc_mat(
            [[0] * rep.dim for _ in range(rep.dim)])
    Ginv = _gram_inverse(rep)
    if exact:
        m = len(rep.algebra_rep)
        acc = [[QC(0) for _ in range(rep.dim)] for _ in range(rep.dim)]
        for a in range(m):
            for b in range(m):
                c = Ginv[a][b]
                if not c:
                    continue
                prod = mat_mul(rep.algebra_rep[a], rep.algebra_rep[b])
                for r in range(rep.dim):
                    row = prod[r]
                    arow = acc[r]
                    for s in range(rep.dim):
                        if row[s]:
                            arow[s] = arow[s] + c * row[s]
        return tuple(tuple(r) for r in acc)
    A = rep.algebra_rep_np()
    G = np.array([[x.to_complex() for x in row] for row in Ginv])
    return np.einsum("ab,aij,bjk->ik", G, A, A)


def casimir_tensor_matrix(rep: RepSpace):
    """Casimir of the product action on V (x) V:
    Delta(C) = C (x) 1 + 1 (x) C + 2 sum_a B_a (x) B^a."""
    d = rep.dim
    C = casimir_matrix(rep)
    I = np.eye(d)
    A = rep.algebra_rep_np()
    Ginv = _gram_inverse(rep)
    G = np.array([[x.to_complex() for x in row] for row in Ginv])
    cross = np.einsum("ab,aij,bkl->ikjl", G, A, A).reshape(d * d, d * d)
    return np.kron(C, I) + np.kron(I, C) + 2 * cross
