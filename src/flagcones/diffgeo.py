"""Pointwise numerical tensor calculus over real chart coordinates.

Points are real vectors ``(Re z_1, Im z_1, ..., Re z_n, Im z_n, Re w, Im w)``.
Fields must accept batched point arrays ``(m, d) -> (m, *shape)`` so that
whole stencils evaluate in one call.

Every derivative comes from one stencil primitive: a unit stencil cached
per dimension (centre, ``+-e_i``, then the four corners of each
``(e_i, e_j)`` square), evaluated at ``P + unit * h`` with per-axis steps;
first and second central differences as index arithmetic on those values;
and one Richardson loop over halved steps.  Nested pipelines (Ricci of a
metric field, Ricci form of a potential) apply the same primitive to
fields that are themselves stencil results.

Conventions (with ``d^c = i (dbar - d)`` and real potentials F):

    d^c F        =  J grad F            (as covector components)
    d d^c F      = -(H J + J H),        H the real Hessian
    kahler form  = (i/2) ddbar F = (1/4) d d^c F
    metric       g_ij = omega(e_i, J e_j) = (omega J)_ij
    ricci form   = -i ddbar log det (complex Hessian)   [i ddbar scale]

The quarter-normalised Kahler form makes ``|w|^2`` produce the standard
flat metric and gives the conformal geometry of the cone potentials the
classical product shape; with it the Lee form ``-d log K`` of a cone
potential has squared norm 4 for the associated Vaisman metric.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Tuple

import numpy as np

from .roots import ConfigurationError


class ChartDegeneracyError(ValueError):
    """Point too close to the degenerate fiber w = 0."""


@dataclass(frozen=True)
class FDConfig:
    """Finite-difference steps and extrapolation depth.

    ``base_step`` drives first derivatives; second derivatives use
    ``hessian_step`` and the nested curvature pipelines (Ricci of a metric
    field, Ricci form of a potential, Weyl-Ricci) use ``nested_step``,
    matched across nesting levels so that composite Richardson
    extrapolation cancels the leading error.
    """

    base_step: float = 1e-4
    hessian_step: float = 4e-3
    nested_step: float = 2e-2
    jet_step: float = 4e-2
    richardson: int = 2
    w_floor: float = 1e-6

    def __post_init__(self):
        for name in ("base_step", "hessian_step", "nested_step", "jet_step", "w_floor"):
            if not getattr(self, name) > 0:
                raise ConfigurationError(f"FDConfig.{name} must be positive, got {getattr(self, name)!r}")
        if self.richardson < 1:
            raise ConfigurationError(f"FDConfig.richardson must be at least 1, got {self.richardson!r}")

    def echo(self) -> dict:
        return {
            "base_step": self.base_step,
            "hessian_step": self.hessian_step,
            "nested_step": self.nested_step,
            "jet_step": self.jet_step,
            "richardson": self.richardson,
        }


def complex_structure(dim: int) -> np.ndarray:
    """Standard complex structure: J e_(2a) = e_(2a+1), J e_(2a+1) = -e_(2a)."""
    if dim % 2:
        raise ValueError("real dimension must be even")
    J = np.zeros((dim, dim))
    for a in range(dim // 2):
        J[2 * a + 1, 2 * a] = 1.0
        J[2 * a, 2 * a + 1] = -1.0
    return J


def apply_J(v: np.ndarray) -> np.ndarray:
    return complex_structure(len(v)) @ v


def _axis_steps(p: np.ndarray, step) -> np.ndarray:
    """Per-axis steps; an array is taken verbatim as absolute step sizes.

    A scalar step is scaled by ``max(1, |x|)`` of the single point ``p``,
    and callers pass the batch's first point, so every point of a batch
    shares one step.  That is deliberate: in ``ricci_form_batch`` the
    inner complex Hessians are evaluated at the outer stencil's points and
    must keep the centre's step, because per-point scaling has a kink at
    ``|x| = 1`` that the outer difference would pick up.
    """
    if isinstance(step, np.ndarray):
        return step
    return step * np.maximum(1.0, np.abs(p))


# ---------------------------------------------------------------------------
# the stencil: unit offsets, evaluation, differences, extrapolation
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _unit_stencil(d: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit offsets of the central second-order stencil in R^d.

    Rows: the centre, then ``+e_i, -e_i`` for each i, then the corners
    ``(++, +-, -+, --)`` of the (e_i, e_j) square for each i < j.  Also
    returns the pair indices (I, J) in corner order.
    """
    I, J = np.triu_indices(d, 1)
    unit = np.zeros((1 + 2 * d + 4 * len(I), d))
    axes = np.arange(d)
    unit[1 + 2 * axes, axes] = 1.0
    unit[2 + 2 * axes, axes] = -1.0
    corners = 1 + 2 * d + 4 * np.arange(len(I))[:, None] + np.arange(4)
    unit[corners, I[:, None]] = (1.0, 1.0, -1.0, -1.0)
    unit[corners, J[:, None]] = (1.0, -1.0, 1.0, -1.0)
    for a in (unit, I, J):
        a.flags.writeable = False
    return unit, I, J


def _stencil_values(field, P: np.ndarray, h: np.ndarray, second: bool = True) -> np.ndarray:
    """A batched field at ``P + unit * h``: (m, S, *shape).

    With ``second`` false only the ``+-e_i`` rows are evaluated.
    """
    m, d = P.shape
    unit = _unit_stencil(d)[0] if second else _unit_stencil(d)[0][1:2 * d + 1]
    vals = np.asarray(field((P[:, None, :] + unit * h).reshape(-1, d)))
    return vals.reshape(m, len(unit), *vals.shape[1:])


def _first_differences(v: np.ndarray, h: np.ndarray) -> np.ndarray:
    """d_a f from the ``+-e_i`` rows (m, 2d, *shape): (m, d, *shape)."""
    return (v[:, 0::2] - v[:, 1::2]) / (2.0 * h.reshape(-1, *(1,) * (v.ndim - 2)))


def _second_differences(v: np.ndarray, h: np.ndarray) -> np.ndarray:
    """d_a d_b f from the full stencil (m, S, *shape): (m, d, d, *shape)."""
    d = len(h)
    _, I, J = _unit_stencil(d)
    h = h.reshape(-1, *(1,) * (v.ndim - 2))
    c = v[:, :1]
    H = np.empty((v.shape[0], d, d) + v.shape[2:])
    axes = np.arange(d)
    H[:, axes, axes] = (v[:, 1:2 * d + 1:2] - 2 * c + v[:, 2:2 * d + 1:2]) / h ** 2
    k = 2 * d + 1
    off = (v[:, k::4] - v[:, k + 1::4] - v[:, k + 2::4] + v[:, k + 3::4]) / (4 * h[I] * h[J])
    H[:, I, J] = off
    H[:, J, I] = off
    return H


def _halvings(h0, levels: int) -> list:
    return [h0 / 2 ** level for level in range(levels)]


def _richardson(estimates: Iterable[np.ndarray]) -> np.ndarray:
    """Extrapolate estimates at steps h, h/2, h/4, ... with even error expansions."""
    est = None
    for level, new in enumerate(estimates):
        est = new if est is None else (4.0 ** level * new - est) / (4.0 ** level - 1.0)
    return est


# ---------------------------------------------------------------------------
# derivatives of batched fields
# ---------------------------------------------------------------------------

def _jacobian_of_field(field, P: np.ndarray, cfg: FDConfig, step) -> np.ndarray:
    """d/dx_a of a scalar or array-valued batched field: (m, d, *shape)."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    return _richardson(_first_differences(_stencil_values(field, P, h, second=False), h)
                       for h in _halvings(_axis_steps(P[0], step), cfg.richardson))


def grad_batch(F, P: np.ndarray, cfg: FDConfig, step: Optional[float] = None) -> np.ndarray:
    return _jacobian_of_field(F, P, cfg, cfg.base_step if step is None else step)


def d_scalar(F, p, cfg: FDConfig, step: Optional[float] = None) -> np.ndarray:
    """Exterior derivative of a scalar field at a point (a covector)."""
    return grad_batch(F, np.asarray(p)[None, :], cfg, step)[0]


def dc_scalar(F, p, cfg: FDConfig, step: Optional[float] = None) -> np.ndarray:
    """d^c F = -dF o J = J grad F."""
    d = len(p)
    return complex_structure(d) @ d_scalar(F, p, cfg, step)


def hessian_batch(F, P: np.ndarray, cfg: FDConfig, step: Optional[float] = None,
                  richardson: Optional[int] = None) -> np.ndarray:
    """Second derivatives of a scalar or array-valued batched field: (m, d, d, *shape)."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    h0 = _axis_steps(P[0], cfg.hessian_step if step is None else step)
    return _richardson(_second_differences(_stencil_values(F, P, h), h)
                       for h in _halvings(h0, cfg.richardson if richardson is None else richardson))


def kahler_form_batch(F, P: np.ndarray, cfg: FDConfig, step: Optional[float] = None) -> np.ndarray:
    """(i/2) ddbar F as real 2-form matrices: -(HJ + JH)/4."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    J = complex_structure(P.shape[1])
    H = hessian_batch(F, P, cfg, step)
    return -(H @ J + J @ H) / 4.0


def kahler_form(F, p, cfg: FDConfig, step: Optional[float] = None) -> np.ndarray:
    return kahler_form_batch(F, np.asarray(p)[None, :], cfg, step)[0]


def i_del_delbar(F, p, cfg: FDConfig, step: Optional[float] = None) -> np.ndarray:
    """i ddbar F (twice the quarter-normalised Kahler form)."""
    return 2.0 * kahler_form(F, p, cfg, step)


def metric_from_form(omega: np.ndarray) -> np.ndarray:
    """g(X, Y) = omega(X, JY)."""
    J = complex_structure(omega.shape[-1])
    return omega @ J


def metric_batch(F, P: np.ndarray, cfg: FDConfig, step: Optional[float] = None) -> np.ndarray:
    return kahler_form_batch(F, P, cfg, step) @ complex_structure(np.atleast_2d(P).shape[1])


def complex_hessian_batch(F, P: np.ndarray, cfg: FDConfig, step: Optional[float] = None,
                          richardson: Optional[int] = None) -> np.ndarray:
    """Mixed holomorphic Hessians d^2 F / dz_a dzbar_b, (m, nc, nc) complex."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    H = hessian_batch(F, P, cfg, step, richardson)
    d = P.shape[1]
    xx = H[:, 0:d:2, 0:d:2]
    yy = H[:, 1:d:2, 1:d:2]
    xy = H[:, 0:d:2, 1:d:2]
    yx = H[:, 1:d:2, 0:d:2]
    return 0.25 * ((xx + yy) + 1j * (xy - yx))


def ricci_form_batch(F, P: np.ndarray, cfg: FDConfig, step: Optional[float] = None) -> np.ndarray:
    """Ricci form -i ddbar log det(complex Hessian of F), (m, d, d).

    Fourth derivatives of F: inner complex Hessians and the outer ddbar
    run at a matched step so a single composite Richardson extrapolation
    controls the truncation error.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    J = complex_structure(P.shape[1])

    def rho_at(h) -> np.ndarray:
        def logdet(Q: np.ndarray) -> np.ndarray:
            Hc = complex_hessian_batch(F, Q, cfg, step=h, richardson=1)
            sign, logabs = np.linalg.slogdet(Hc)
            return logabs

        HG = hessian_batch(logdet, P, cfg, step=h, richardson=1)
        return (HG @ J + J @ HG) / 2.0

    return _richardson(rho_at(h) for h in _halvings(cfg.nested_step if step is None else step,
                                                     cfg.richardson))


def ricci_form(F, p, cfg: FDConfig, step: Optional[float] = None) -> np.ndarray:
    return ricci_form_batch(F, np.asarray(p)[None, :], cfg, step)[0]


# ---------------------------------------------------------------------------
# one-forms, two-forms
# ---------------------------------------------------------------------------

def d_oneform(omega_field, p, cfg: FDConfig, step: Optional[float] = None) -> np.ndarray:
    """(d omega)_ij = d_i omega_j - d_j omega_i for a batched covector field."""
    D = _jacobian_of_field(omega_field, np.asarray(p)[None, :], cfg, cfg.base_step if step is None else step)[0]
    return D - D.T


def d_twoform(Omega_field, p, cfg: FDConfig, step: Optional[float] = None) -> np.ndarray:
    """(d Omega)_ijk for an antisymmetric-matrix-valued field."""
    D = _jacobian_of_field(Omega_field, np.asarray(p)[None, :], cfg, cfg.nested_step / 2 if step is None else step)[0]
    return D - np.transpose(D, (1, 0, 2)) + np.transpose(D, (1, 2, 0))


def wedge_one_two(theta: np.ndarray, Omega: np.ndarray) -> np.ndarray:
    """(theta ^ Omega)_ijk with the same component convention as d_twoform."""
    t1 = theta[:, None, None] * Omega[None, :, :]
    t2 = theta[None, :, None] * Omega[:, None, :]
    t3 = theta[None, None, :] * Omega[:, :, None]
    return t1 - t2 + t3


# ---------------------------------------------------------------------------
# connections and curvature
# ---------------------------------------------------------------------------

def christoffel_batch(g_field, P: np.ndarray, cfg: FDConfig, step: Optional[float] = None) -> np.ndarray:
    """Levi-Civita symbols Gamma[k, i, j] for a batched metric field."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    dg = _jacobian_of_field(g_field, P, cfg, cfg.hessian_step if step is None else step)   # dg[m, a, i, j] = d_a g_ij
    g = g_field(P)
    ginv = np.linalg.inv(g)
    # S[m, i, j, l] = d_i g_jl + d_j g_il - d_l g_ij
    S = dg + dg.transpose(0, 2, 1, 3) - dg.transpose(0, 2, 3, 1)
    return 0.5 * np.einsum("mkl,mijl->mkij", ginv, S)


def christoffel(g_field, p, cfg: FDConfig, step: Optional[float] = None) -> np.ndarray:
    return christoffel_batch(g_field, np.asarray(p)[None, :], cfg, step)[0]


def nabla_oneform(theta_field, g_field, p, cfg: FDConfig, step: Optional[float] = None) -> np.ndarray:
    """(nabla theta)_ij = d_i theta_j - Gamma^k_ij theta_k."""
    p = np.asarray(p, dtype=float)
    D = _jacobian_of_field(theta_field, p[None, :], cfg, cfg.hessian_step if step is None else step)[0]
    G = christoffel(g_field, p, cfg, step)
    th = theta_field(p[None, :])[0]
    return D - np.einsum("kij,k->ij", G, th)


def _ricci_from_symbols(G: np.ndarray, dG: np.ndarray) -> np.ndarray:
    """Ric_jk from connection coefficients and their derivatives dG[a,k,i,j]."""
    t1 = np.einsum("iijk->jk", dG)
    t2 = np.einsum("jiik->jk", dG)
    t3 = np.einsum("iim,mjk->jk", G, G)
    t4 = np.einsum("ijm,mik->jk", G, G)
    return t1 - t2 + t3 - t4


def _metric_jets(g_field, p, cfg: FDConfig, step: Optional[float] = None):
    """Metric, first and second derivatives at a point.

    Returns (g, dg, ddg) with dg[a, i, j] = d_a g_ij and
    ddg[a, b, i, j] = d_a d_b g_ij, all read from one full stencil
    evaluation per Richardson level.
    """
    P = np.asarray(p, dtype=float)[None, :]
    d = P.shape[1]
    h0 = _axis_steps(P[0], cfg.jet_step if step is None else step)
    levels = [(_stencil_values(g_field, P, h), h) for h in _halvings(h0, cfg.richardson)]
    g = levels[0][0][0, 0]
    dg = _richardson(_first_differences(v[:, 1:2 * d + 1], h) for v, h in levels)
    ddg = _richardson(_second_differences(v, h) for v, h in levels)
    return g, dg[0], ddg[0]


def _symbol_jets(g, dg, ddg):
    """Levi-Civita symbols and their first derivatives from metric jets."""
    ginv = np.linalg.inv(g)
    S = dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)               # S[i,j,l]
    G = 0.5 * np.einsum("kl,ijl->kij", ginv, S)
    dginv = -np.einsum("km,amn,nl->akl", ginv, dg, ginv)
    # dS[a,i,j,l] = d_a S_ijl from the symmetric second derivatives
    dS = ddg + ddg.transpose(0, 2, 1, 3) - ddg.transpose(0, 2, 3, 1)
    dG = 0.5 * (np.einsum("akl,ijl->akij", dginv, S) + np.einsum("kl,aijl->akij", ginv, dS))
    return ginv, G, dG


def ricci(g_field, p, cfg: FDConfig, step: Optional[float] = None) -> np.ndarray:
    """Ricci tensor of a batched metric field.

    The Christoffel derivatives are assembled algebraically from first and
    second finite differences of the metric itself, so no finite
    difference is ever nested inside another.
    """
    g, dg, ddg = _metric_jets(g_field, p, cfg, step)
    _, G, dG = _symbol_jets(g, dg, ddg)
    return _ricci_from_symbols(G, dG)


def weyl_christoffel_batch(g_field, theta_field, P: np.ndarray, cfg: FDConfig,
                           step: Optional[float] = None) -> np.ndarray:
    """Symbols of D = nabla - (theta . id + id . theta - g tensor A)/2."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    G = christoffel_batch(g_field, P, cfg, step)
    g = g_field(P)
    th = theta_field(P)
    A = np.einsum("mkl,ml->mk", np.linalg.inv(g), th)
    d = P.shape[1]
    eye = np.eye(d)
    corr = (np.einsum("mi,kj->mkij", th, eye) + np.einsum("mj,ki->mkij", th, eye)
            - np.einsum("mij,mk->mkij", g, A))
    return G - 0.5 * corr


def weyl_connection(g_field, theta_field, p, cfg: FDConfig, step: Optional[float] = None) -> np.ndarray:
    return weyl_christoffel_batch(g_field, theta_field, np.asarray(p)[None, :], cfg, step)[0]


def weyl_ricci(g_field, theta_field, p, cfg: FDConfig,
               step: Optional[float] = None) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ricci of the Weyl connection, from curvature and from the identity.

    The curvature path assembles the derivative of the Weyl symbols from
    metric and Lee-form jets and contracts the curvature directly.  The
    identity path evaluates the conformal-rescaling formula

        Ric^D = Ric + div(t) g + (n-2)(nabla t - |t|^2 g + t (x) t),

    with ``t = theta/2``: the Weyl connection attached to a Higgs field
    ``theta`` (our ``D g = theta (x) g`` convention) is the one the
    half-field conformal bookkeeping describes.  Both are returned so
    callers can report the cross-validation residual, followed by the
    Levi-Civita Ricci tensor ``Ric`` of the same metric jets.
    """
    p = np.asarray(p, dtype=float)
    n = len(p)
    g, dg, ddg = _metric_jets(g_field, p, cfg, step)
    ginv, G, dG = _symbol_jets(g, dg, ddg)
    th = theta_field(p[None, :])[0]
    dth = _jacobian_of_field(theta_field, p[None, :], cfg, cfg.jet_step if step is None else step)[0]
    A = ginv @ th
    eye = np.eye(n)
    W = -0.5 * (np.einsum("i,kj->kij", th, eye) + np.einsum("j,ki->kij", th, eye)
                - np.einsum("ij,k->kij", g, A))
    dginv = -np.einsum("km,amn,nl->akl", ginv, dg, ginv)
    dA = np.einsum("akl,l->ak", dginv, th) + np.einsum("kl,al->ak", ginv, dth)
    dW = -0.5 * (np.einsum("ai,kj->akij", dth, eye) + np.einsum("aj,ki->akij", dth, eye)
                 - np.einsum("aij,k->akij", dg, A) - np.einsum("ij,ak->akij", g, dA))
    ric_curv = _ricci_from_symbols(G + W, dG + dW)

    t = th / 2.0
    dt = dth / 2.0
    ric_g = _ricci_from_symbols(G, dG)
    nab = dt - np.einsum("kij,k->ij", G, t)
    div = np.einsum("ij,ij->", ginv, nab)
    norm2 = t @ ginv @ t
    ric_formula = ric_g + div * g + (n - 2) * (nab - norm2 * g + np.outer(t, t))
    return ric_curv, ric_formula, ric_g
