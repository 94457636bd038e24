"""Pointwise numerical tensor calculus over real chart coordinates.

Points are real vectors ``(Re z_1, Im z_1, ..., Re z_n, Im z_n, Re w, Im w)``.
Fields must accept batched point arrays ``(m, d) -> (m, *shape)`` so that
whole stencils evaluate in one call.

Every derivative comes from one stencil primitive: a unit stencil cached
per dimension (centre, ``+-e_i``, then the four corners of each
``(e_i, e_j)`` square), evaluated at ``P + unit * h`` with per-axis steps;
first and second central differences as index arithmetic on those values;
and one Richardson tableau over halved steps.  Two drivers run it on any
array-valued field at a batch of points: ``_jacobian_of_field`` reads only
the ``+-e_i`` rows, and ``_metric_jets`` returns the values, first and
second derivatives from the full stencil.  Their steps ``h`` are always
explicit arrays: ``(d,)`` shared by every point of a batch, or ``(m, d)``,
one row per point, which is how a batch of samples keeps the steps each
sample would get alone; ``scaled_steps`` gives ``step * max(1, |x|)``.
Kahler forms, metrics, complex Hessians and Ricci forms are algebra on
the second derivatives.  ``ricci_form_of_metric`` differences ``log det``
of an exact complex Hessian field once, taking ``log det`` as the sum of
the logs of the pivots of ``exact.hermitian_elimination`` on the entry
arrays, the elimination the Kahler potentials run, with no LAPACK call per
matrix.

The connection and curvature algebra (``weyl_ricci_of_jets``,
``nabla_of_jets``, ``weyl_symbols_of_jets``, ``weyl_metric_derivative``)
runs on the jets, batched over leading axes, so one cone field -- the
complex entries of an n x n complex Hessian as floats, then a Lee form,
``(m, 2n^2 + d)``, expanded by ``split_cone`` -- feeds it from a single
stencil for a whole batch.  Its Ricci tensors read two traces of the symbol
derivatives by batched matmul (``_symbol_traces``), and a caller holding
``g^-1`` passes it in.

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

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Tuple

import numpy as np

from .exact import hermitian_elimination
from .roots import ConfigurationError, integer_setting


class ChartDegeneracyError(ValueError):
    """Point too close to the degenerate fiber w = 0."""


@dataclass(frozen=True)
class FDConfig:
    """Finite-difference base step and Richardson depth (the number of halved steps).

    Every step is a fixed multiple ``default * (base_step / 1e-4)``, so
    ``FDConfig(base_step=x)`` scales them all, as ``--fd-step x`` does; no
    difference runs at ``base_step`` itself.  Each step, its multiple and its users:

      * ``hessian_step``, 40x: every stencil of the five finite-difference
        suites, at ``scaled_steps(P, hessian_step)`` -- the cone stencils of
        ``lck``, ``vaisman`` and ``einstein-weyl``, the ``log det`` Hessians of
        ``kahler-einstein`` and ``ricci-flat`` and every ``metric_agreement``.
    """

    base_step: float = 1e-4
    richardson: int = 2
    hessian_step = property(lambda self: 4e-3 * (self.base_step / 1e-4))

    def __post_init__(self):
        object.__setattr__(self, "richardson", integer_setting("FDConfig.richardson", self.richardson, 1))
        if isinstance(self.base_step, bool):
            raise ConfigurationError(f"FDConfig.base_step must be a real number, got {self.base_step!r}")
        for name, value in self.echo().items():
            if not 0 < value < np.inf:
                raise ConfigurationError(f"FDConfig.{name} must be positive and finite, got {value!r} "
                                         f"(every step is a multiple of base_step = {self.base_step!r})")

    def echo(self) -> dict:
        return {"base_step": self.base_step, "hessian_step": self.hessian_step, "richardson": self.richardson}


@lru_cache(maxsize=None)
def complex_structure(dim: int) -> np.ndarray:
    """Standard complex structure: J e_(2a) = e_(2a+1), J e_(2a+1) = -e_(2a); read-only, built once per dimension."""
    if dim % 2:
        raise ValueError("real dimension must be even")
    J = np.zeros((dim, dim))
    a = np.arange(0, dim, 2)
    J[a + 1, a] = 1.0
    J[a, a + 1] = -1.0
    J.flags.writeable = False
    return J


def scaled_steps(p: np.ndarray, step: float) -> np.ndarray:
    """Per-axis steps ``step * max(1, |x|)`` at a point (d,) or at each of m points (m, d)."""
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
    """A batched field at ``P + unit * h``: (m, S, *shape); ``h`` is (d,) or per point (m, d).

    With ``second`` false only the ``+-e_i`` rows are evaluated.
    """
    m, d = P.shape
    unit = _unit_stencil(d)[0] if second else _unit_stencil(d)[0][1:2 * d + 1]
    vals = np.asarray(field((P[:, None, :] + unit * h[..., None, :]).reshape(-1, d)))
    return vals.reshape(m, len(unit), *vals.shape[1:])


def _step_axes(h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Steps (d,) or (m, d) broadcast against differences (m, d, *shape)."""
    return h.reshape(h.shape + (1,) * (v.ndim - 2))


def _first_differences(v: np.ndarray, h: np.ndarray) -> np.ndarray:
    """d_a f from the ``+-e_i`` rows (m, 2d, *shape): (m, d, *shape)."""
    D = v[:, 0::2] - v[:, 1::2]
    D /= 2.0 * _step_axes(h, v)
    return D


def _second_differences(v: np.ndarray, h: np.ndarray) -> np.ndarray:
    """d_a d_b f from the full stencil (m, S, *shape): (m, d, d, *shape)."""
    d, axis = h.shape[-1], h.ndim - 1
    _, I, J = _unit_stencil(d)
    h = _step_axes(h, v)
    c = v[:, :1]
    H = np.empty((v.shape[0], d, d) + v.shape[2:])
    axes = np.arange(d)
    H[:, axes, axes] = (v[:, 1:2 * d + 1:2] - 2 * c + v[:, 2:2 * d + 1:2]) / h ** 2
    k = 2 * d + 1
    off = (v[:, k::4] - v[:, k + 1::4] - v[:, k + 2::4] + v[:, k + 3::4]) / (4 * h.take(I, axis) * h.take(J, axis))
    H[:, I, J] = off
    H[:, J, I] = off
    return H


def _halvings(h0, levels: int) -> list:
    return [h0 / 2 ** level for level in range(levels)]


def _richardson(estimates: Iterable[np.ndarray]) -> np.ndarray:
    """Extrapolate estimates at steps h, h/2, h/4, ... with even error expansions.

    A Neville tableau: each new estimate starts a row whose j-th entry
    cancels the h^(2j) term against the previous row.
    """
    prev = []
    for new in estimates:
        row = [new]
        for j in range(1, len(prev) + 1):
            est = 4.0 ** j * row[j - 1]
            est -= prev[j - 1]
            est /= 4.0 ** j - 1.0
            row.append(est)
        prev = row
    return prev[-1]


# ---------------------------------------------------------------------------
# derivatives of batched fields
# ---------------------------------------------------------------------------

def _jacobian_of_field(field, P: np.ndarray, cfg: FDConfig, h: np.ndarray) -> np.ndarray:
    """d/dx_a of a scalar or array-valued batched field at the points P (m, d): (m, d, *shape).

    Only the ``+-e_i`` rows of the stencil are evaluated, at steps ``h``.
    """
    return _richardson(_first_differences(_stencil_values(field, P, hk, second=False), hk)
                       for hk in _halvings(h, cfg.richardson))


def _metric_jets(field, P: np.ndarray, cfg: FDConfig, h: np.ndarray):
    """Values, first and second derivatives of a batched field at the points P (m, d), at steps ``h``.

    Returns (g, dg, ddg) with g (m, *shape), dg[:, a] = d_a g and
    ddg[:, a, b] = d_a d_b g, all read from one full stencil evaluation per
    Richardson level; any array-valued field works, a joint metric and
    Lee-form field included.  Each level's stencil values are dropped once
    its differences are taken.
    """
    d = P.shape[1]
    firsts, seconds = [], []
    for hk in _halvings(h, cfg.richardson):
        v = _stencil_values(field, P, hk)
        if not firsts:
            g = v[:, 0].copy()
        firsts.append(_first_differences(v[:, 1:2 * d + 1], hk))
        seconds.append(_second_differences(v, hk))
        del v
    return g, _richardson(firsts), _richardson(seconds)


def kahler_form_of_hessian(H: np.ndarray) -> np.ndarray:
    """(i/2) ddbar F from real Hessians (..., d, d): -(HJ + JH)/4."""
    J = complex_structure(H.shape[-1])
    return -(H @ J + J @ H) / 4.0


def complex_hessian(H: np.ndarray) -> np.ndarray:
    """d^2 F / dz_a dzbar_b from real Hessians (..., d, d): (..., d/2, d/2) complex."""
    xx, yy = H[..., 0::2, 0::2], H[..., 1::2, 1::2]
    xy, yx = H[..., 0::2, 1::2], H[..., 1::2, 0::2]
    return 0.25 * ((xx + yy) + 1j * (xy - yx))


def split_cone(v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(g, theta)`` from cone values or jets (..., 2n^2 + d), d = 2n: a complex Hessian ``Hc`` as floats, then theta.

    ``g`` is the metric ``omega J`` of the quarter-normalised Kahler form of ``Hc``:
    ``g[2a, 2b] = g[2a+1, 2b+1] = Re Hc_ab`` and ``g[2a, 2b+1] = -g[2a+1, 2b] = Im Hc_ab``.
    Copies and negations only, so expanding the differences of a cone field
    equals differencing the expanded field, bit for bit up to the sign of zero.
    """
    d = math.isqrt(2 * v.shape[-1] + 1) - 1
    Hc = v[..., :-d].view(complex).reshape(v.shape[:-1] + (d // 2, d // 2))
    g = np.empty(v.shape[:-1] + (d, d))
    g[..., 0::2, 0::2] = g[..., 1::2, 1::2] = Hc.real
    g[..., 0::2, 1::2] = Hc.imag
    np.negative(Hc.imag, out=g[..., 1::2, 0::2])
    return g, np.ascontiguousarray(v[..., -d:])


def _log_det(H: np.ndarray) -> np.ndarray:
    """log |det H| of Hermitian matrices (..., n, n): the sum of the logs of their elimination pivots."""
    return sum(np.log(np.abs(p)) for p in hermitian_elimination(np.moveaxis(H, (-2, -1), (0, 1)))[0])


def ricci_form_of_log_det(H: np.ndarray) -> np.ndarray:
    """Ricci form -i ddbar log det g, (..., d, d), from real Hessians (..., d, d) of ``log det g``."""
    return -2.0 * kahler_form_of_hessian(H)


def ricci_form_of_metric(H_field, P: np.ndarray, cfg: FDConfig, h: np.ndarray) -> np.ndarray:
    """Ricci form -i ddbar log det H, (m, d, d), of a batched complex Hessian field H, at steps ``h``."""
    return ricci_form_of_log_det(_metric_jets(lambda Q: _log_det(H_field(Q)), P, cfg, h)[2])


# ---------------------------------------------------------------------------
# one-forms, two-forms
# ---------------------------------------------------------------------------

def d_twoform_of_jets(dOmega: np.ndarray) -> np.ndarray:
    """(d Omega)_ijk from ``dOmega[..., a, i, j] = d_a Omega_ij``, batched over leading axes."""
    out = dOmega - np.swapaxes(dOmega, -3, -2)
    out += np.moveaxis(dOmega, -3, -1)
    return out


def wedge_one_two(theta: np.ndarray, Omega: np.ndarray) -> np.ndarray:
    """(theta ^ Omega)_ijk with the same component convention as d_twoform_of_jets, batched over leading axes."""
    out = theta[..., :, None, None] * Omega[..., None, :, :]
    out -= theta[..., None, :, None] * Omega[..., :, None, :]
    out += theta[..., None, None, :] * Omega[..., :, :, None]
    return out


# ---------------------------------------------------------------------------
# connections and curvature: algebra on jets
# ---------------------------------------------------------------------------
#
# Jets, each with the same leading batch axes: a metric g, dg[..., a, i, j] =
# d_a g_ij, ddg[..., a, b, i, j] = d_a d_b g_ij, a Lee form theta and
# dtheta[..., a, i] = d_a theta_i.  Contractions are matmuls on reshaped arrays.

def _fold(a: np.ndarray, k: int, *shape: int) -> np.ndarray:
    """``a`` with its last k axes reshaped to ``shape``."""
    return a.reshape(a.shape[:a.ndim - k] + shape)


def _first_kind(dg: np.ndarray) -> np.ndarray:
    """S[..., l, i, j] = d_i g_jl + d_j g_il - d_l g_ij from dg[..., a, i, j], C-contiguous.

    numpy lays out the sum of these transposed views in a strided order once
    it reaches 32,768 elements; the matmuls on its reshape would then sum in
    an order that depends on the number of samples in a block.
    """
    return np.ascontiguousarray(np.moveaxis(dg, -1, -3) + np.swapaxes(dg, -3, -1) - dg)


def _christoffel(ginv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Levi-Civita symbols Gamma[..., k, i, j] = g^kl S_lij / 2 from the inverse metric and dg."""
    d = dg.shape[-1]
    return _fold(ginv @ _fold(_first_kind(dg), 3, d, d * d), 2, d, d, d) / 2.0


def _symbol_traces(ginv: np.ndarray, dg: np.ndarray, ddg: np.ndarray):
    """``(Gamma, div, dtr, u)``: Levi-Civita symbols and the two traces of their derivatives that Ricci reads.

    With ``d_a g^-1 = -g^-1 (d_a g) g^-1`` and ``u_l = sum_i d_i g^il``:
    ``div[..., j, k] = sum_i d_i Gamma^i_jk = (u_l S_ljk + g^il d_i S_ljk) / 2``, where
    ``g^il d_i S_ljk = X_jk + X_kj - g^il d_i d_l g_jk`` and ``X_jk = g^il d_i d_j g_kl``;
    ``dtr[..., j, k] = d_j sum_i Gamma^i_ik = d_j (g^il d_k g_il) / 2``.
    """
    d = dg.shape[-1]
    gi = ginv[..., None, :, :]
    dginv = -(gi @ dg @ gi)
    u = np.trace(dginv, axis1=-3, axis2=-2)
    flat = _fold(ddg, 4, d * d, d * d)
    X = _fold(np.sum(_fold(ddg, 3, d * d, d) @ ginv[..., None], axis=-3), 2, d, d)
    div = X + np.swapaxes(X, -1, -2) - _fold(_fold(ginv, 2, 1, d * d) @ flat, 2, d, d)
    div += _fold(u[..., None, :] @ _fold(_first_kind(dg), 3, d, d * d), 2, d, d)
    dtr = _fold(flat @ _fold(ginv, 2, d * d, 1), 2, d, d)
    dtr += _fold(dginv, 3, d, d * d) @ np.swapaxes(_fold(dg, 3, d, d * d), -1, -2)
    return _christoffel(ginv, dg), div / 2.0, dtr / 2.0, u


def _ricci_of_traces(G: np.ndarray, div: np.ndarray, dtr: np.ndarray) -> np.ndarray:
    """Ric_jk = div_jk - dtr_jk + Gamma^i_im Gamma^m_jk - Gamma^i_jm Gamma^m_ik (see ``_symbol_traces``)."""
    d = G.shape[-1]
    vG = _fold(np.trace(G, axis1=-3, axis2=-2)[..., None, :] @ _fold(G, 3, d, d * d), 2, d, d)
    Gs = np.ascontiguousarray(np.swapaxes(G, -3, -2))                       # Gs[j, i, m] = Gamma^i_jm
    return div - dtr + vG - _fold(Gs, 3, d, d * d) @ _fold(Gs, 3, d * d, d)


def _weyl_shift(g: np.ndarray, theta: np.ndarray, A: np.ndarray) -> np.ndarray:
    """W[..., k, i, j] = -(theta_i delta^k_j + theta_j delta^k_i - g_ij A^k)/2, A = g^-1 theta."""
    T = theta[..., None, :, None] * np.eye(theta.shape[-1])[:, None, :]
    return (A[..., :, None, None] * g[..., None, :, :] - T - np.swapaxes(T, -2, -1)) / 2.0


def nabla_of_jets(g, dg, theta, dtheta) -> np.ndarray:
    """(nabla theta)_ij = d_i theta_j - (g^-1 theta)^l S_lij / 2, the Levi-Civita derivative, batched."""
    d = theta.shape[-1]
    A = np.linalg.solve(g, theta[..., None])
    return dtheta - _fold(np.swapaxes(A, -1, -2) @ _fold(_first_kind(dg), 3, d, d * d), 2, d, d) / 2.0


def weyl_symbols_of_jets(g, dg, theta, ginv=None) -> np.ndarray:
    """Symbols Gamma[..., k, i, j] of D = nabla + W (``_weyl_shift``), batched; ``ginv`` is g^-1 when given."""
    ginv = np.linalg.inv(g) if ginv is None else ginv
    return _christoffel(ginv, dg) + _weyl_shift(g, theta, (ginv @ theta[..., None])[..., 0])


def weyl_metric_derivative(g, dg, theta, ginv=None) -> np.ndarray:
    """(D g)[..., a, i, j] for the Weyl connection D of (g, theta), which equals theta_a g_ij."""
    d = theta.shape[-1]
    GD = _fold(weyl_symbols_of_jets(g, dg, theta, ginv), 3, d, d * d)
    X = _fold(np.swapaxes(GD, -1, -2) @ g, 2, d, d, d)                             # GD^k_ai g_kj
    return dg - X - np.swapaxes(X, -1, -2)


def weyl_ricci_of_jets(g, dg, ddg, theta, dtheta, ginv=None) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ricci of the Weyl connection, from curvature and from the identity, batched over leading axes.

    The curvature path contracts the curvature of the symbols ``Gamma + W``
    from the traces of their derivatives.  The identity path evaluates the
    conformal-rescaling formula

        Ric^D = Ric + div(t) g + (n-2)(nabla t - |t|^2 g + t (x) t),

    with ``t = theta/2``: the Weyl connection attached to a Higgs field
    ``theta`` (our ``D g = theta (x) g`` convention) is the one the
    half-field conformal bookkeeping describes.  Both are returned so
    callers can report the cross-validation residual, followed by the
    Levi-Civita Ricci tensor ``Ric`` of the same metric jets.  ``ginv`` is
    g^-1 when given.
    """
    n = theta.shape[-1]
    ginv = np.linalg.inv(g) if ginv is None else ginv
    G, div, dtr, u = _symbol_traces(ginv, dg, ddg)
    A = (ginv @ theta[..., None])[..., 0]
    # the traces of d W: d_i A^i = u . theta + g^il d_i theta_l, and sum_i W^i_ik = -(n/2) theta_k as g A = theta
    divA = np.sum(u * theta, axis=-1) + np.sum(ginv * dtheta, axis=(-2, -1))
    Adg = _fold(A[..., None, :] @ _fold(dg, 3, n, n * n), 2, n, n)                  # A^i d_i g_jk
    div_w = (Adg + divA[..., None, None] * g - dtheta - np.swapaxes(dtheta, -1, -2)) / 2.0
    ric_curv = _ricci_of_traces(G + _weyl_shift(g, theta, A), div + div_w, dtr - n / 2.0 * dtheta)

    t = theta / 2.0
    ric_g = _ricci_of_traces(G, div, dtr)
    nab = dtheta / 2.0 - _fold(t[..., None, :] @ _fold(G, 3, n, n * n), 2, n, n)
    div_t = np.sum(ginv * nab, axis=(-2, -1))[..., None, None]
    norm2 = t[..., None, :] @ ginv @ t[..., :, None]
    ric_formula = ric_g + div_t * g + (n - 2) * (nab - norm2 * g + t[..., :, None] * t[..., None, :])
    return ric_curv, ric_formula, ric_g
