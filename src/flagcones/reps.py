"""Explicit irreducible modules with exact generator matrices.

Every catalog module carries:

* Chevalley triples ``(E_i, F_i, H_i)`` per simple-root index, as Gaussian
  rational matrices acting on a distinguished weight basis;
* a diagonal invariant inner product (``gram``), with the highest weight
  vector stored unnormalised together with its squared norm, so that all
  squared-norm computations stay rational;
* a full algebra basis in the module together with its Killing Gram
  matrix, from which the Casimir operator on V is assembled with the exact
  dual basis; on V (x) V, Kostant's operator is kept as the rank-one terms
  of ``casimir_terms``, never as a d^2 x d^2 matrix.

Exact data are numpy object arrays of ``QC`` (see ``exact``), and every
operation here is written once: the dtype of its input picks exact or
complex arithmetic.  Unipotent group elements are evaluated by truncating
the exponential series of a nilpotent matrix, which is exact over the
rationals.  ``act`` works over leading axes: a word step ``(M, t)`` may
carry one matrix ``(d, d)`` or one per row ``(..., d, d)``, and a scalar
or per-row parameter.  The exponential policy lives in ``_exp_apply``:
the series rule ``exact.nilpotent_series`` for both fields, and a step
whose series does not terminate raises ``ExactModeError``.  On the exact
module route, ``derivation_matrix`` and ``act`` take and give each point's
Gaussian integers (``exact._Ints``), cleared once from the chart point;
a ``QC`` array in gives a ``QC`` array out.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Optional, Tuple

import numpy as np

from .exact import ONE, QC, QI, ZERO, _Ints, _ints, diagonal_form, nilpotent_series, rows, solve, to_field
from .roots import ConfigurationError, RootSystem, Weight, build_root_system, casimir_eigenvalue


class ExactModeError(RuntimeError):
    """Raised on a group-word step whose series does not terminate (exact or float)."""


@dataclass(eq=False)
class RepSpace:
    """A module whose data are exact: object arrays of ``QC``.

    Compared and hashed by identity, so cached builders can take modules
    as arguments.
    """

    name: str
    dim: int
    simple: dict                      # 1-based index -> (E, F, H), exact (d, d) arrays
    gram: Tuple[Fraction, ...]        # diagonal Gram of the invariant product
    hw_raw: np.ndarray                # highest weight vector, unnormalised, exact (d,)
    hw_norm_sq: Fraction
    algebra_rep: Tuple[np.ndarray, ...]   # full algebra basis acting on the module, exact (d, d) each
    algebra_gram: np.ndarray          # Killing Gram of that basis, exact (m, m)
    highest_weight: Optional[Weight] = None
    root_system: Optional[RootSystem] = None
    basis_labels: Optional[tuple] = None
    _np_cache: dict = field(default_factory=dict, repr=False)

    def _cached(self, key, build):
        if key not in self._np_cache:
            self._np_cache[key] = build()
        return self._np_cache[key]

    def hw_unit(self) -> np.ndarray:
        """Unit-norm highest weight vector (complex, read-only)."""
        def build():
            v = np.asarray(self.hw_raw, dtype=complex) / np.sqrt(float(self.hw_norm_sq))
            v.flags.writeable = False
            return v

        return self._cached("hw_unit", build)

    def gram_np(self) -> np.ndarray:
        return self._cached("gram", lambda: np.array(self.gram, dtype=float))

    @rows(1)
    def norm_sq(self, v):
        """Squared norm in the invariant product, per row over the last axis (``exact.diagonal_form``).

        Exact rows are summed as Gaussian-integer numerators, one ``Fraction`` per row.
        """
        return self._cached("norm_sq", lambda: diagonal_form(self.gram))(v)


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
    k = np.arange(d)
    E = to_field(np.diag(k[1:], 1), object)                 # E P_k = k P_(k-1)
    F = to_field(np.diag(ell - k[:-1], -1), object)         # F P_k = (l - k) P_(k+1)
    H = to_field(np.diag(ell - 2 * k), object)

    rs = build_root_system("A", 1)
    defining = to_field([[[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, -1]]], object)
    return RepSpace(
        name=f"sl2:V({ell}w)",
        dim=d,
        simple={1: (E, F, H)},
        gram=tuple(Fraction(1, comb(ell, k)) for k in range(d)),
        hw_raw=to_field((k == 0).astype(int), object),
        hw_norm_sq=Fraction(1),
        algebra_rep=(E, F, H),
        algebra_gram=_killing_gram(Fraction(4), defining),
        highest_weight=rs.weight([ell]),
        root_system=rs,
        basis_labels=tuple(ell - 2 * k for k in range(d)),
    )


def _killing_gram(scale: Fraction, defining: np.ndarray) -> np.ndarray:
    """Gram matrix ``kappa(B_a, B_b) = scale tr(def_a def_b)`` of a basis given in the defining module (m, N, N)."""
    return np.einsum("aij,bji->ab", defining, defining) * scale


# ---------------------------------------------------------------------------
# sl(n+1): wedge powers of the defining module
# ---------------------------------------------------------------------------

def wedge_basis(n: int, k: int):
    return list(combinations(range(1, n + 2), k))


@lru_cache(maxsize=None)
def _derivation_table(n: int, k: int) -> tuple:
    """The terms of a derivation on the k-th wedge power: flat ``(row d + col, j (n + 1) + i)`` int arrays, +1 then -1.

    Column ``col`` is the basis wedge ``e_S``; replacing its factor ``e_i``
    by ``e_j`` (``j`` not elsewhere in ``S``) and sorting gives the sign
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
                out.append((inversions % 2, (index[tuple(sorted(new))] * len(basis) + col, (j - 1) * (n + 1) + i - 1)))
    return tuple(tuple(np.array([t for odd, t in out if odd == sign], dtype=int).reshape(-1, 2).T) for sign in (0, 1))


def derivation_matrix(n: int, k: int, X):
    """Action of ``X`` in gl(n+1) on the k-th wedge power, as a derivation, batched over leading axes.

    +1 terms added, -1 subtracted: numpy scatters in floats, each point's Gaussian integers when exact (``_Ints``).
    """
    d, table = comb(n + 1, k), _derivation_table(n, k)
    if type(X) is not _Ints and np.asarray(X).dtype != object:
        X = np.asarray(X)
        out = np.zeros(X.shape[:-2] + (d * d,), dtype=np.result_type(X.dtype, complex))
        for (rows, cols), scatter in zip(table, (np.add.at, np.subtract.at)):
            scatter(out, (Ellipsis, rows), X.reshape(X.shape[:-2] + (-1,))[..., cols])
        return out.reshape(X.shape[:-2] + (d, d))
    plus, minus = (list(zip(rows.tolist(), cols.tolist())) for rows, cols in table)

    def cell(re, im, D):
        xr, xi = [0] * (d * d), [0] * (d * d)
        for p, q in plus:
            xr[p] += re[q]
            xi[p] += im[q]
        for p, q in minus:
            xr[p] -= re[q]
            xi[p] -= im[q]
        return xr, xi, D

    out = _ints(X, 2)
    out = _Ints(out.lead, (d, d), [cell(*c) for c in out.cells])
    return out if type(X) is _Ints else out.qc()


def _unit_matrix(N: int, i: int, j: int) -> np.ndarray:
    """The exact matrix unit E_ij of gl(N), 1-based."""
    m = np.full((N, N), ZERO, dtype=object)
    m[i - 1, j - 1] = ONE
    return m


def _cartan_unit(N: int, i: int) -> np.ndarray:
    """E_ii - E_(i+1)(i+1), 1-based."""
    return _unit_matrix(N, i, i) - _unit_matrix(N, i + 1, i + 1)


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

    simple = {i: tuple(derivation_matrix(n, k, X) for X in
                       (_unit_matrix(N, i, i + 1), _unit_matrix(N, i + 1, i), _cartan_unit(N, i)))
              for i in range(1, n + 1)}
    defining = np.array([_unit_matrix(N, i, j) for i in range(1, N + 1) for j in range(1, N + 1) if i != j]
                        + [_cartan_unit(N, i) for i in range(1, n + 1)])

    rs = build_root_system("A", n)
    return RepSpace(
        name=f"sl{N}:wedge{k}",
        dim=d,
        simple=simple,
        gram=tuple(Fraction(1) for _ in range(d)),
        hw_raw=to_field([int(b == tuple(range(1, k + 1))) for b in basis], object),
        hw_norm_sq=Fraction(1),
        algebra_rep=tuple(derivation_matrix(n, k, X) for X in defining),
        algebra_gram=_killing_gram(Fraction(2 * N), defining),
        highest_weight=rs.fundamental_weight(k),
        root_system=rs,
        basis_labels=tuple(basis),
    )


# ---------------------------------------------------------------------------
# so(N): the vector module on C^N preserving q(z) = sum z_k^2
# ---------------------------------------------------------------------------

def _so_pair_op(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Antisymmetric operator v -> q(x, v) y - q(y, v) x with q = sum of products."""
    return np.outer(y, x) - np.outer(x, y)


def _so_uvec(N: int, l: int, bar: bool) -> np.ndarray:
    v = np.full(N, ZERO, dtype=object)
    v[2 * l - 2] = ONE
    v[2 * l - 1] = QC(0, 1) if bar else QC(0, -1)
    return v


def _so_evec(N: int, a: int) -> np.ndarray:
    return to_field((np.arange(N) == a - 1).astype(int), object)


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
    raising = [_so_pair_op(u[i - 1], ubar[i]) * half for i in range(1, n)]
    raising.append(_so_pair_op(u[n - 1], _so_evec(N, N)) if odd else _so_pair_op(u[n - 2], u[n - 1]) * half)
    simple = {}
    for i, E in enumerate(raising, 1):
        F = np.conj(E.T)
        simple[i] = (E, F, E @ F - F @ E)

    basis = np.array([_so_pair_op(_so_evec(N, a), _so_evec(N, b))
                      for a in range(1, N + 1) for b in range(a + 1, N + 1)])
    return RepSpace(
        name=f"so{N}:vector",
        dim=N,
        simple=simple,
        gram=tuple(Fraction(1) for _ in range(N)),
        hw_raw=u[0],
        hw_norm_sq=Fraction(2),
        algebra_rep=tuple(basis),
        algebra_gram=_killing_gram(Fraction(N - 2), basis),
        highest_weight=rs.fundamental_weight(1),
        root_system=rs,
    )


@lru_cache(maxsize=None)
def so_radical_basis(N: int) -> Tuple[np.ndarray, ...]:
    """Lowering operators Y_j matching the isotropic big-cell parameterisation.

    ``exp(sum zeta_j Y_j)`` sends the highest vector e_1 - i e_2 to
    ``(e_1 - i e_2) + sum zeta_j e_(j+2) - (q(zeta)/4)(e_1 + i e_2)``.
    """
    if N < 5:
        raise ConfigurationError("isotropic chart requires N >= 5")
    x = _so_uvec(N, 1, bar=True) * QC(Fraction(-1, 2))
    return tuple(_so_pair_op(_so_evec(N, j + 2), x) for j in range(1, N - 1))


# ---------------------------------------------------------------------------
# outer tensor products (Deligne products across distinct algebras)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def outer_tensor(r1: RepSpace, r2: RepSpace) -> RepSpace:
    """Module of the product algebra: each factor acts on its own slot.

    Built once per pair of modules (modules hash by identity), as the
    catalog modules are.
    """
    d1, d2 = r1.dim, r2.dim
    id1, id2 = np.eye(d1, dtype=int), np.eye(d2, dtype=int)

    simple = {i: tuple(np.kron(M, id2) for M in mats) for i, mats in r1.simple.items()}
    off = max(r1.simple) if r1.simple else 0
    simple.update({off + i: tuple(np.kron(id1, M) for M in mats) for i, mats in r2.simple.items()})

    alg = tuple(np.kron(M, id2) for M in r1.algebra_rep) + tuple(np.kron(id1, M) for M in r2.algebra_rep)
    m1, m2 = len(r1.algebra_rep), len(r2.algebra_rep)
    G = np.full((m1 + m2, m1 + m2), ZERO, dtype=object)
    G[:m1, :m1], G[m1:, m1:] = r1.algebra_gram, r2.algebra_gram
    return RepSpace(
        name=f"({r1.name})x({r2.name})",
        dim=d1 * d2,
        simple=simple,
        gram=tuple(g1 * g2 for g1 in r1.gram for g2 in r2.gram),
        hw_raw=np.kron(r1.hw_raw, r2.hw_raw),
        hw_norm_sq=r1.hw_norm_sq * r2.hw_norm_sq,
        algebra_rep=alg,
        algebra_gram=G,
    )


@lru_cache(maxsize=None)
def trivial_module() -> RepSpace:
    return RepSpace(
        name="trivial",
        dim=1,
        simple={},
        gram=(Fraction(1),),
        hw_raw=to_field([1], object),
        hw_norm_sq=Fraction(1),
        algebra_rep=(),
        algebra_gram=np.full((0, 0), ZERO, dtype=object),
    )


# ---------------------------------------------------------------------------
# group words and exponentials
# ---------------------------------------------------------------------------

def _exp_apply(M: np.ndarray, t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """exp(t M) v per row: ``M`` (d, d) or (..., d, d), ``t`` () or (...), ``v`` (..., d), one field.

    ``exact.nilpotent_series`` with the scales ``t / k``, k = 1..d + 1.  A nilpotent step terminates: exactly
    over the rationals, within rounding in complex128.  So after the last term an exact row that is still
    nonzero, or a float row whose term exceeds unit roundoff times the row's largest entry, raises ``ExactModeError``.
    Exact steps stay Gaussian integers (``_Ints``) if ``M`` or ``v`` is: ``QC`` comes back only for ``QC`` in.
    """
    t = _ints(t, 0) if v.dtype == object else t             # exact scales t / k: Gaussian integers over k D
    acc, rest = nilpotent_series(M, v.reshape(v.shape + (1,)), (t / k for k in range(1, M.shape[-1] + 2)))
    if rest is not None and (acc.dtype == object or np.any(np.max(abs(rest), -2) > np.finfo(float).eps * np.max(abs(acc), -2))):
        raise ExactModeError("the exponential series of a step does not terminate within d + 1 terms")
    return acc.reshape(acc.shape[:-1])


def act(rep: RepSpace, word, v):
    """Apply the group element ``prod exp(t_s M_s)`` to the vector ``v``.

    ``word`` is a sequence of ``(M, t)`` pairs applied left to right, i.e.
    the first pair acts first.  Every step must be nilpotent (see
    ``_exp_apply``).  The dtype of ``v`` picks the arithmetic: exact for
    an object array, otherwise complex128, with the matrices and
    parameters converted to it.  Matrices ``(d, d)`` or ``(..., d, d)``,
    parameters scalar or ``(...)`` and ``v`` ``(..., d)`` broadcast over
    their leading axes.
    """
    v = to_field(v)
    for M, t in word:
        v = _exp_apply(M if type(M) is _Ints else np.asarray(M, dtype=v.dtype), t if v.dtype == object else to_field(t, v.dtype), v)
    return v


def compact_directions(rep: RepSpace, i: int):
    """E - F, i(E + F), iH for the simple index ``i`` (exact matrices)."""
    E, F, H = rep.simple[i]
    return (E - F, (E + F) * QI, H * QI)


# ---------------------------------------------------------------------------
# Casimir operators
# ---------------------------------------------------------------------------

def _gram_inverse(rep: RepSpace) -> np.ndarray:
    """Exact inverse of the Killing Gram of ``rep.algebra_rep``."""
    m = len(rep.algebra_rep)
    return rep._cached("gram_inv", lambda: np.array(solve(rep.algebra_gram, to_field(np.eye(m, dtype=int), object)),
                                                    dtype=object).reshape(m, m))


def casimir_matrix(rep: RepSpace, exact: bool = False):
    """Casimir operator sum_a B_a B^a with the Killing-dual basis.

    Complex by default; with ``exact=True`` the Gaussian-rational matrix
    (an object array).
    """
    dtype = object if exact else complex
    if not rep.algebra_rep:
        return np.full((rep.dim, rep.dim), ZERO, dtype=dtype)
    A = np.asarray(rep.algebra_rep, dtype=dtype)
    return np.einsum("ab,aij,bjk->ik", np.asarray(_gram_inverse(rep), dtype=dtype), A, A)


def casimir_terms(rep: RepSpace):
    """``(P, Q)``: Kostant's ``Delta(C) - c(2 lambda)`` on ``v (x) v`` as rank-one terms, built once per module.

    With ``Delta(C) = C (x) 1 + 1 (x) C + 2 sum_a B_a (x) B^a`` (``B^a`` the
    Killing dual) and ``lambda`` the highest weight, ``P`` and ``Q``
    ((3 + m) d, d) stack ``C, 1, 1, B_a`` and ``1, C, -c, 2 B^a``: the rows X
    of ``v @ P.T`` and Y of ``v @ Q.T``, (3 + m, d) each, give it as ``X^T Y``.
    """
    def build():
        one, B = np.eye(rep.dim)[None], np.asarray(rep.algebra_rep, dtype=complex)
        dual = np.einsum("ab,bij->aij", np.asarray(_gram_inverse(rep), dtype=complex), B)
        C, c = casimir_matrix(rep)[None], float(casimir_eigenvalue(2 * rep.highest_weight))
        terms = ([C, one, one, B], [one, C, -c * one, 2 * dual])
        return tuple(np.concatenate(t).reshape(-1, rep.dim) for t in terms)

    return rep._cached("casimir_terms", build)
