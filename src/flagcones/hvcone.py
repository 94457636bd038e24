"""Highest-weight cones: reduction maps, algebraic residuals, Hopf quotients.

The reduction map sends a chart point ``(z, w)`` of the punctured bundle to
``w . n(z) . v+`` in the module attached to the bundle.  Its image lies on
the affine cone cut out by quadrics (Pluecker relations, the isotropic
quadric, the rank-one determinant, or the Casimir condition on V (x) V),
and its squared norm reproduces the Kahler potential exactly.

The cyclic group generated by ``lambda . Id`` (0 < |lambda| < 1) acts by
scaling; ``gamma_canonicalize`` picks the representative whose norm lies
in the half-open annulus (|lambda|, 1], recording the integer branch.

Everything works over leading axes: ``remmert`` takes ``z`` (..., n_z)
and ``w`` (...), and the residuals, ``gamma_canonicalize`` and
``hopf_distance`` reduce over the last axis of (..., d) vectors and return
one value per row.  The residuals and ``hopf_distance`` follow the
single-point rule ``exact.rows``: a single float vector (d,) runs as a
batch of one, so it rounds as that row of a batch, and returns a scalar; a
single ``HopfPoint`` has an int branch and a float norm.  An exact vector
(an object array or a list of ``QC``) gives a quadric's squared violation
as a ``Fraction``, anything else its float modulus (``exact.modulus``).
The Casimir residual applies ``Delta(C)`` to ``v (x) v`` as rank-one terms.
The group action under ``remmert`` is ``reps.act``, whose exponential
policy ``reps._exp_apply`` states.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb, log
from typing import Tuple

import numpy as np

from .charts import DomainError, PotentialSpec
from .diffgeo import FDConfig, _first_jets
from .exact import _ints, modulus, relation_residual, rows, to_field
from .reps import RepSpace, act, casimir_terms


@dataclass(frozen=True)
class GammaGroup:
    """Cyclic scaling group generated by lambda, with 0 < |lambda| < 1."""

    lam: complex

    def __post_init__(self):
        if not 0 < abs(self.lam) < 1:
            raise DomainError("the generator must satisfy 0 < |lambda| < 1")


@dataclass
class HopfPoint:
    """Canonical representative in the annulus (|lambda|, 1], plus its branch.

    For a batch of vectors (..., d) the branch and norm are arrays (...).
    """

    representative: np.ndarray
    branch: int
    norm: float


# ---------------------------------------------------------------------------
# reduction map
# ---------------------------------------------------------------------------

def remmert(spec: PotentialSpec, z, w, exact: bool = False):
    """w . n(z) . v+ in the module of the bundle.

    Float mode returns the complex coordinate vector with the unit-norm
    highest weight vector, (..., d) for ``z`` (..., n_z) and ``w`` (...).
    Exact mode reads ``z`` and ``w`` as Gaussian rationals and returns
    ``(u, s2)`` where the physical vector is ``sqrt(s2) . u`` with ``u`` an
    exact array and ``s2`` rational, so every quadratic quantity of the
    image is exact.
    """
    rep, u = _image(spec, z, w, exact)
    return (u.qc(), 1 / rep.hw_norm_sq) if exact else u


def remmert_norm_sq(spec: PotentialSpec, z, w, exact: bool = False):
    rep, u = _image(spec, z, w, exact)
    return rep.norm_sq(u) * (1 / rep.hw_norm_sq) if exact else rep.norm_sq(u)


def _image(spec: PotentialSpec, z, w, exact: bool):
    """``(rep, u = w . n(z) . v+)``, complex from the unit ``v+`` or exact (``_Ints``, ``w`` scaling ``hw_raw``)."""
    rep, word = spec.chart.embedding_rep(spec.exponents)
    dtype = object if exact else complex
    z, w = to_field(z, dtype), to_field(w, dtype)
    if not np.all(w):
        raise DomainError("the fiber coordinate must be nonzero")
    if exact:
        return rep, act(rep, word(_ints(z, 1)), _ints(w[..., None] * rep.hw_raw, 1))
    return rep, w[..., None] * act(rep, word(z), rep.hw_unit())


# ---------------------------------------------------------------------------
# algebraic residuals
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _plucker_relations(n: int, k: int):
    """The Grassmannian quadric relations as the field rule ``exact.relation_residual`` of their term positions.

    One relation per (k-1)-tuple a and (k+1)-tuple b, in lexicographic order:
    ``sum_l (-1)^(l+1) Z[a, b_l] Z[b \\ b_l]``, with ``Z[a, b_l]`` read at ``i``, the
    sorted index of ``a + (b_l,)`` on ``[v, -v, 0]`` by its sign, and ``Z[b \\ b_l]``
    at ``j``.  Terms with a repeated index vanish; shorter relations pad with the 0.
    """
    index = {b: i for i, b in enumerate(combinations(range(1, n + 2), k))}
    d, relations = len(index), []
    for a in combinations(range(1, n + 2), k - 1):
        for b in combinations(range(1, n + 2), k + 1):
            # term l reads v, or -v at offset d, by its sign (-1)^(l + 1 + inversions)
            terms = [(index[tuple(sorted(a + (bl,)))] + d * ((l + 1 + sum(x > bl for x in a)) % 2),
                      index[b[:l] + b[l + 1:]]) for l, bl in enumerate(b) if bl not in a]
            relations.append(terms + [(2 * d, 0)] * (k + 1 - len(terms)))
    return relation_residual(*np.array(relations).T)


@rows(2)
def plucker_residual(n: int, k: int, v):
    """Largest violation of the Grassmannian quadric relations, per row of (..., d).

    The relations ``sum_l (-1)^l Z[a, b_l] Z[b \\ b_l] = 0`` run over (k-1)-tuples a and (k+1)-tuples b.
    The squared violation (a ``Fraction``) for an exact ``v``, otherwise its modulus.
    """
    if v.shape[-1] != comb(n + 1, k):
        raise DomainError("coordinate vector has the wrong dimension")
    return _plucker_relations(n, k)(v)


@rows(1)
def quadric_residual(N: int, v):
    """|q(v, v)| with q the symmetric form cutting out the quadric cone, per row of (..., d).

    For N >= 5 this is ``|sum v_k^2|`` in the standard coordinates; N = 3
    goes through the degree-2 polynomial dictionary where the cone is the
    discriminant locus ``c_1^2/4 - c_0 c_2 = 0``.  Squared and exact for
    an exact ``v``.
    """
    return modulus(v[..., 1] * v[..., 1] / 4 - v[..., 0] * v[..., 2] if N == 3 else np.sum(v * v, axis=-1))


@rows(0)
def determinant_residual(v):
    """|det W| for a vector in the 2x2 Segre product (conifold ambient), per row of (..., 4); squared and exact for an exact ``v``."""
    return modulus(v[..., 0] * v[..., 3] - v[..., 1] * v[..., 2])


@rows(1)
def casimir_quadric_residual(rep: RepSpace, v):
    """|(Delta(C) - c(2 lambda))(v (x) v)| for the unit-normalised v, per row of (..., d).

    ``lambda`` is the highest weight of ``rep``.  The operator on ``v (x) v``
    is the d x d matrix ``X^T Y`` with rows ``Cv, v, v, B_a v`` of X and
    ``v, Cv, -c v, 2 B^a v`` of Y (``reps.casimir_terms``), measured in the
    invariant norm of V (x) V.
    """
    if rep.highest_weight is None:
        raise DomainError("the Casimir residual needs a module with a highest weight")
    v = np.asarray(v, dtype=complex)
    nv = v / np.sqrt(rep.norm_sq(v))[..., None]
    X, Y = ((nv @ T.T).reshape(nv.shape[:-1] + (-1, rep.dim)) for T in casimir_terms(rep))
    g = rep.gram_np()
    return np.sqrt(np.sum(g[:, None] * g * np.abs(np.matmul(X.swapaxes(-1, -2), Y)) ** 2, axis=(-2, -1)))


def algebraic_residual(spec: PotentialSpec, v) -> Tuple[str, float]:
    """The case-appropriate cone membership residual: ``(name, value)``, one value per row of (..., d)."""
    chart = spec.chart
    if chart.kind == "product":
        name, value = "determinant", determinant_residual(v)
    elif chart.kind == "quadric":
        name, value = "quadric", quadric_residual(chart.params["N"], v)
    elif chart.n_gen > 1:
        raise DomainError("flag cones with several generators need the Casimir residual; "
                          "no single quadric family applies")
    elif chart.params["ks"] == (1,) and all(e == 1 for e in spec.exponents):
        name, value = "trivial", np.zeros(np.shape(v)[:-1])
    elif chart.params["n"] == 1:
        rep, _ = chart.embedding_rep(spec.exponents)
        name, value = "casimir", casimir_quadric_residual(rep, v)
    else:
        name, value = "plucker", plucker_residual(chart.params["n"], chart.params["ks"][0], v)
    return name, float(value) if np.ndim(value) == 0 else value


# ---------------------------------------------------------------------------
# Hopf quotient
# ---------------------------------------------------------------------------

def gamma_canonicalize(gamma: GammaGroup, v: np.ndarray, norm=None) -> HopfPoint:
    """Scale by a power of lambda into the norm annulus (|lambda|, 1], per row of (..., d).

    A representative landing exactly on the inner boundary is pushed once
    more so the annulus is genuinely half open; ties resolve upward.
    """
    v = np.asarray(v, dtype=complex)
    nv = np.asarray(np.linalg.norm(v, axis=-1) if norm is None else norm, dtype=float)
    if np.any(nv == 0):
        raise DomainError("cannot canonicalise the apex")
    if not np.all(np.isfinite(nv)):
        raise DomainError("cannot canonicalise a point whose norm is not finite")
    L = -log(abs(gamma.lam))
    n = np.ceil(np.log(nv) / L - 1e-12).astype(int)
    # lambda^n by Python's power over the few distinct branches, so each row
    # rounds as a single point does
    branches, at = np.unique(n, return_inverse=True)
    scale = np.array([gamma.lam ** k for k in branches.tolist()])[at].reshape(n.shape)
    shrink = np.array([abs(gamma.lam) ** k for k in branches.tolist()])[at].reshape(n.shape)
    rep = scale[..., None] * v
    if v.ndim == 1:
        return HopfPoint(representative=rep, branch=int(n), norm=float(nv * shrink))
    return HopfPoint(representative=rep, branch=n, norm=nv * shrink)


def kodaira_embedding(spec: PotentialSpec, gamma: GammaGroup, z, w) -> HopfPoint:
    """Canonical Hopf-manifold representative of the reduction image, per row of ``z`` (..., n_z), ``w`` (...).

    Equivariance: the input ``(z, lambda w)`` yields the same HopfPoint
    with the branch shifted by one.
    """
    rep, _ = spec.chart.embedding_rep(spec.exponents)
    v = remmert(spec, z, w)
    return gamma_canonicalize(gamma, v, norm=np.sqrt(rep.norm_sq(v)))


def hopf_distance(a: HopfPoint, b: HopfPoint):
    """max |a - b| over the coordinates of the representatives, per row."""
    return _largest_gap(a.representative, b.representative)


@rows(0)
def _largest_gap(u, v):
    """``max |u - v|`` over the last axis, per row of (..., d)."""
    return np.max(np.abs(u - v), axis=-1)


# ---------------------------------------------------------------------------
# special cone potentials
# ---------------------------------------------------------------------------

def _check_stenzel(eps: float, t: float) -> None:
    if not 0 < eps < np.inf:
        raise DomainError(f"deformation parameter must be positive and finite, got {eps!r}")
    if not 0 <= t < np.inf:
        raise DomainError(f"the radial parameter is nonnegative and finite, got {t!r}")


def stenzel_fprime(eps: float, t: float) -> float:
    """Radial derivative of the smoothed cone potential on the deformation.

    Closed form ``(3/(4 eps^2))^(1/3) (sinh 2t - 2t)^(1/3) / sinh t`` with
    the limit ``eps^(-2/3)`` at t = 0.
    """
    _check_stenzel(eps, t)
    if t < 2e-3:
        # sinh(2t) - 2t cancels catastrophically here; use its series instead
        return eps ** (-2.0 / 3.0) * (1.0 - t * t / 10.0 + 13.0 * t ** 4 / 2100.0)
    val = (3.0 / (4.0 * eps * eps)) ** (1.0 / 3.0)
    return val * np.cbrt(np.sinh(2.0 * t) - 2.0 * t) / np.sinh(t)


def stenzel_ode_residual(eps: float, t: float, fd_step: float = 1e-4) -> float:
    """Residual of eps^2 cosh(t) (F')^3 + (eps^2 sinh(t)/3) d/dt (F')^3 = 1, at two Richardson levels of ``fd_step``."""
    _check_stenzel(eps, t)
    if not 0 < fd_step < np.inf:
        raise DomainError(f"fd_step must be positive and finite, got {fd_step!r}")
    if t <= 4 * fd_step:
        raise DomainError("residual grid must stay away from t = 0")

    def cube(Q: np.ndarray) -> np.ndarray:
        return np.array([stenzel_fprime(eps, s) ** 3 for s in Q[:, 0]])

    P = np.array([[t]])
    G, dG = _first_jets(cube, P, FDConfig(richardson=2), np.array([fd_step]))
    return eps * eps * np.cosh(t) * G[0] + eps * eps * np.sinh(t) / 3.0 * dG[0, 0] - 1.0


def stenzel_potential(eps: float, t: float) -> float:
    """Smoothed cone potential as a function of the radial parameter.

    The 40-node Gauss-Legendre rule on ``[0, t]`` of ``F'(s) d(r^2)/ds``
    with ``r^2 = eps^2 cosh s``, normalised to vanish at the apex.  Only
    residual-level claims about the solution are certified; this is a
    convenience evaluator.
    """
    _check_stenzel(eps, t)
    x, wt = _legendre_rule()
    s = t / 2 * (x + 1)
    fprime = np.array([stenzel_fprime(eps, si) for si in s])
    return float(t / 2 * np.sum(wt * fprime * eps * eps * np.sinh(s)))


@lru_cache(maxsize=None)
def _legendre_rule():
    """Nodes and weights of the 40-point Gauss-Legendre rule on [-1, 1], built on first use.

    Importing the library then does not load ``numpy.polynomial``.
    """
    return np.polynomial.legendre.leggauss(40)


def singular_cone_potential(W) -> float:
    """(3/2)^(4/3) (Tr(W W+)^2)^(1/3) for a 2x2 matrix on the rank-one cone."""
    W = np.asarray(W, dtype=complex)
    r2 = float(np.sum(np.abs(W) ** 2))
    return (1.5) ** (4.0 / 3.0) * np.cbrt(r2 * r2)


def eguchi_hanson_Upsilon(x):
    """Upsilon(x) = sqrt(1 + 4x) - log((1 + sqrt(1 + 4x)) / 2); Upsilon(0) = 1."""
    x = np.asarray(x, dtype=float)
    s = np.sqrt(1.0 + 4.0 * x)
    return s - np.log((1.0 + s) / 2.0)


def eguchi_hanson_Upsilon_prime(x):
    s = np.sqrt(1.0 + 4.0 * np.asarray(x, dtype=float))
    return 2.0 / (1.0 + s)


def eguchi_hanson_potential_field(spec: PotentialSpec):
    """Pulled-back smoothed potential (1/2) log K + Upsilon(K) on the level-2 chart."""
    K = spec.field()

    def F(points: np.ndarray) -> np.ndarray:
        k = K(points)
        return 0.5 * np.log(k) + eguchi_hanson_Upsilon(k)

    return F


def eguchi_hanson_hessian_field(spec: PotentialSpec):
    """Closed-form complex Hessian ddbar F of ``eguchi_hanson_potential_field``, batched: (m, n, n).

    For ``F = f(K)``: ``ddbar F = f'(K) K (ddbar K / K) + f''(K) K^2 b^2 phi phibar^T``,
    with ``(phi, ddbar K / K, K)`` from ``spec.cone_jet(with_K=True)``, ``f = (1/2) log K + Upsilon(K)``
    and ``Upsilon'' = -4 / (s (1 + s)^2)``, ``s = sqrt(1 + 4K)``.
    """
    jet, b = spec.cone_jet(with_K=True), float(spec.b)

    def H(points: np.ndarray) -> np.ndarray:
        phi, Hc, K = jet(points)
        s = np.sqrt(1.0 + 4.0 * K)
        d1 = 0.5 + K * eguchi_hanson_Upsilon_prime(K)                          # f'(K) K
        d2 = b * b * (-0.5 - 4.0 * K * K / (s * (1.0 + s) ** 2))                # f''(K) K^2 b^2
        Hc *= d1[:, None, None]
        Hc += d2[:, None, None] * phi[:, :, None] * np.conj(phi[:, None, :])
        return Hc

    return H
