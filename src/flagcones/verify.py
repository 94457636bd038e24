"""Named verification suites over seeded sample sets.

Each suite composes the pointwise tensor calculus into residuals for a
structural claim (locally conformally Kahler, parallel Lee form,
Kahler-Einstein base, Ricci-flat cone, Einstein-Weyl, cone embedding) and
returns a ``VerificationReport`` with per-residual max/mean, tolerances
and verdicts.  Reports are deterministic functions of (case, seed, FD
configuration).

Einstein-Weyl conventions: the suite metric is the conformal gauge
``g = e^(-2 psi) . (cone metric of K_1^b)`` with Lee form
``theta = -2 d psi = -d log K_1^b``.  The Weyl connection uses the Lee
form itself (``D g = theta (x) g``), while the curvature identities are
stated through the half field ``t = theta/2``, whose norm is 1 in this
gauge: ``Ric = (n-2)(|t|^2 g - t (x) t)`` and ``Ric^D = 0``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from . import diffgeo
from .charts import (PotentialSpec, decode_points, make_spec, resolve_case,
                     ricci_flat_exponent)
from .diffgeo import FDConfig
from .hvcone import (GammaGroup, algebraic_residual, hopf_distance,
                     kodaira_embedding, remmert)
from .roots import ConfigurationError

DEFAULT_TOLERANCES = {
    "algebraic": 1e-12,
    "first_derivative": 1e-8,
    "lck": 1e-5,
    "vaisman": 1e-5,
    "curvature": 1e-4,
    "embedding_algebraic": 1e-10,
    "equivariance": 1e-9,
    "separation": 1e-8,
}


@dataclass(frozen=True)
class SampleSet:
    """Seeded chart samples: |z_j| <= 1.5 and |w| in [0.5, 2]."""

    seed: int
    count: int
    points: np.ndarray
    base_only: bool = False


def sample_points(spec: PotentialSpec, seed: int, count: int, base_only: bool = False) -> SampleSet:
    rng = np.random.default_rng(seed)
    n_z = spec.chart.n_z
    radius = 1.5 * np.sqrt(rng.uniform(0.0, 1.0, size=(count, n_z)))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(count, n_z))
    z = radius * np.exp(1j * phase)
    cols = [np.empty((count, 2 * n_z))]
    cols[0][:, 0::2] = z.real
    cols[0][:, 1::2] = z.imag
    if not base_only:
        wmod = rng.uniform(0.5, 2.0, size=count)
        wph = rng.uniform(0.0, 2.0 * np.pi, size=count)
        w = wmod * np.exp(1j * wph)
        cols.append(np.stack([w.real, w.imag], axis=1))
    return SampleSet(seed=seed, count=count, points=np.concatenate(cols, axis=1), base_only=base_only)


@dataclass
class ResidualRecord:
    name: str
    max: float
    mean: float
    tolerance: float
    passed: bool
    advisory: bool = False

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "max": self.max,
            "mean": self.mean,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "advisory": self.advisory,
        }


@dataclass
class VerificationReport:
    case: str
    suite: str
    seed: int
    count: int
    fd: dict
    residuals: List[ResidualRecord] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def verdict(self) -> bool:
        return all(r.passed for r in self.residuals if not r.advisory)

    def add(self, name: str, values: Sequence[float], tolerance: float, advisory: bool = False) -> None:
        arr = np.asarray(values, dtype=float)
        self.residuals.append(ResidualRecord(
            name=name,
            max=float(np.max(arr)),
            mean=float(np.mean(arr)),
            tolerance=float(tolerance),
            passed=bool(np.max(arr) < tolerance),
            advisory=advisory,
        ))

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "suite": self.suite,
            "seed": self.seed,
            "sample_count": self.count,
            "fd_config": self.fd,
            "residuals": [r.to_dict() for r in self.residuals],
            "verdict": self.verdict,
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# field builders
# ---------------------------------------------------------------------------

def coordinate_scales(spec: PotentialSpec, ref: np.ndarray) -> np.ndarray:
    """Per-axis step scales: unity floor on base pairs, |w| on the fiber pair.

    The fiber modulus is the distance to the degenerate w = 0 locus and
    sets the local feature size of every cone quantity, so fiber steps
    shrink with it.
    """
    n_z = spec.chart.n_z
    s = np.ones(2 * n_z + 2)
    for a in range(n_z):
        s[2 * a] = s[2 * a + 1] = max(1.0, float(np.hypot(ref[2 * a], ref[2 * a + 1])))
    wmod = float(np.hypot(ref[2 * n_z], ref[2 * n_z + 1]))
    s[2 * n_z] = s[2 * n_z + 1] = max(wmod, 1e-3)
    return s


def conformal_fields(spec: PotentialSpec, cfg: FDConfig, ref=None):
    """Batched fields of the conformal cone geometry of K = K_1^b.

    Returns (K, g_tilde, theta, Omega_tilde, cone_metric): the Vaisman
    gauge ``e^(-2 psi) omega_C(., J.)`` with ``psi = log K / 2`` and the
    Lee form ``theta = -d log K``.  When a reference point is supplied the
    potential is divided by its value there; every returned conformal
    quantity is invariant under that constant rescaling, which keeps the
    finite differences well conditioned when K is large.
    """
    F0 = spec.field()
    logF = spec.log_field()
    scale = 1.0
    h2 = cfg.hessian_step
    h1 = cfg.base_step
    if ref is not None:
        ref = np.asarray(ref, dtype=float)
        scale = float(F0(ref[None, :])[0])
        s = coordinate_scales(spec, ref)
        h2 = cfg.hessian_step * s
        h1 = cfg.base_step * s

    def F(P):
        return F0(P) / scale

    def check_w(P):
        if np.any(np.hypot(P[..., 2 * spec.chart.n_z], P[..., 2 * spec.chart.n_z + 1]) < cfg.w_floor):
            raise diffgeo.ChartDegeneracyError("sample too close to the w = 0 fiber")

    def g_tilde(P):
        P = np.atleast_2d(P)
        check_w(P)
        return diffgeo.metric_batch(F, P, cfg, step=h2) / np.asarray(F(P))[:, None, None]

    def theta(P):
        P = np.atleast_2d(P)
        check_w(P)
        return -diffgeo.grad_batch(logF, P, cfg, step=h1)

    def Omega(P):
        P = np.atleast_2d(P)
        check_w(P)
        return diffgeo.kahler_form_batch(F, P, cfg, step=h2) / np.asarray(F(P))[:, None, None]

    def cone_metric(P):
        P = np.atleast_2d(P)
        check_w(P)
        return diffgeo.metric_batch(F, P, cfg, step=h2)

    return F, g_tilde, theta, Omega, cone_metric


def lck_data(spec: PotentialSpec, p, cfg: Optional[FDConfig] = None):
    """Pointwise Lee form, anti-Lee form, conformal 2-form and metric."""
    cfg = cfg or FDConfig()
    p = np.asarray(p, dtype=float)
    _, g_tilde, theta, Omega, _ = conformal_fields(spec, cfg, ref=p)
    th = theta(p[None, :])[0]
    J = diffgeo.complex_structure(len(p))
    return {
        "theta": th,
        "anti_lee": J @ th,
        "omega": Omega(p[None, :])[0],
        "metric": g_tilde(p[None, :])[0],
        "psi": 0.5 * float(spec.log_field()(p[None, :])[0]),
    }


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def check_lck(spec: PotentialSpec, samples: SampleSet, cfg: Optional[FDConfig] = None,
              tolerance: float = DEFAULT_TOLERANCES["lck"], case: str = "",
              corrupt_theta: float = 1.0) -> VerificationReport:
    """d Omega = theta ^ Omega, d theta = 0 and constancy of |theta|.

    ``corrupt_theta`` rescales the Lee form to provide a negative control.
    """
    cfg = cfg or FDConfig()
    rep = VerificationReport(case=case or spec.chart.name, suite="lck", seed=samples.seed,
                             count=samples.count, fd=cfg.echo())
    r_lck, r_dth, norms = [], [], []
    for p in samples.points:
        _, g_tilde, theta, Omega, _ = conformal_fields(spec, cfg, ref=p)
        th = corrupt_theta * theta(p[None, :])[0]
        Om = Omega(p[None, :])[0]
        dOm = diffgeo.d_twoform(Omega, p, cfg)
        wedge = diffgeo.wedge_one_two(th, Om)
        scale = max(np.max(np.abs(wedge)), 1e-30)
        r_lck.append(np.max(np.abs(dOm - wedge)) / scale)
        dth = diffgeo.d_oneform(theta, p, cfg)
        r_dth.append(np.max(np.abs(dth)) / max(np.max(np.abs(th)), 1e-30))
        g = g_tilde(p[None, :])[0]
        norms.append(float(th @ np.linalg.solve(g, th)))
    rep.add("lck_two_form", r_lck, tolerance)
    rep.add("lee_closed", r_dth, tolerance)
    norms = np.asarray(norms)
    rep.add("lee_norm_constant", np.abs(norms - norms.mean()) / norms.mean(), tolerance)
    return rep


def check_vaisman(spec: PotentialSpec, samples: SampleSet, cfg: Optional[FDConfig] = None,
                  tolerance: float = DEFAULT_TOLERANCES["vaisman"], case: str = "",
                  metric: str = "vaisman") -> VerificationReport:
    """Parallelism of the Lee form; ``metric='cone'`` is a negative control."""
    cfg = cfg or FDConfig()
    rep = VerificationReport(case=case or spec.chart.name, suite="vaisman", seed=samples.seed,
                             count=samples.count, fd=cfg.echo())
    vals = []
    for p in samples.points:
        _, g_tilde, theta, _, cone_metric = conformal_fields(spec, cfg, ref=p)
        gfield = g_tilde if metric == "vaisman" else cone_metric
        nab = diffgeo.nabla_oneform(theta, gfield, p, cfg)
        th = theta(p[None, :])[0]
        vals.append(np.max(np.abs(nab)) / max(np.max(np.abs(th)), 1e-30))
    rep.add("lee_parallel", vals, tolerance)
    if metric != "vaisman":
        rep.notes.append("negative control: Lee form differentiated with the unrescaled cone metric")
    return rep


def check_kahler_einstein_base(case: str, samples: SampleSet, cfg: Optional[FDConfig] = None,
                               tolerance: float = DEFAULT_TOLERANCES["curvature"]) -> VerificationReport:
    """Ricci form of the anticanonical potential equals i ddbar log h_delta."""
    cfg = cfg or FDConfig()
    spec = make_spec(case)
    rep = VerificationReport(case=case, suite="kahler-einstein", seed=samples.seed,
                             count=samples.count, fd=cfg.echo())
    Fb = spec.base_log_anticanonical()
    vals = []
    for p in samples.points:
        rho = diffgeo.ricci_form(Fb, p, cfg)
        comp = diffgeo.i_del_delbar(Fb, p, cfg)
        vals.append(np.max(np.abs(rho - comp)) / max(np.max(np.abs(comp)), 1e-30))
    rep.add("kahler_einstein", vals, tolerance)
    return rep


def check_cone_ricci_flat(spec: PotentialSpec, samples: SampleSet, cfg: Optional[FDConfig] = None,
                          tolerance: float = DEFAULT_TOLERANCES["curvature"], case: str = "") -> VerificationReport:
    """Vanishing Ricci form of the rescaled cone potential K_1^b."""
    cfg = cfg or FDConfig()
    rep = VerificationReport(case=case or spec.chart.name, suite="ricci-flat", seed=samples.seed,
                             count=samples.count, fd=cfg.echo())
    rep.notes.append(f"outer exponent b = {spec.b}")
    F0 = spec.field()
    vals = []
    for p in samples.points:
        scale = float(F0(p[None, :])[0])
        F = lambda P, s=scale: F0(P) / s
        nest = cfg.nested_step * coordinate_scales(spec, p)
        rho = diffgeo.ricci_form(F, p, cfg, step=nest)
        om = diffgeo.i_del_delbar(F, p, cfg)
        vals.append(np.max(np.abs(rho)) / max(np.max(np.abs(om)), 1e-30))
    rep.add("ricci_flat", vals, tolerance)
    return rep


def check_einstein_weyl(spec: PotentialSpec, samples: SampleSet, cfg: Optional[FDConfig] = None,
                        tolerance: float = DEFAULT_TOLERANCES["curvature"], case: str = "") -> VerificationReport:
    """Einstein-Weyl residuals of the conformal gauge of K_1^b.

    Reports, with t = theta/2 (unit in this gauge):
      * ``einstein_weyl_ricci``:   Ric - (n-2)(|t|^2 g - t (x) t)
      * ``weyl_ricci_curvature``:  Ric^D from the connection coefficients
      * ``weyl_ricci_identity``:   Ric^D from the conformal identity
      * ``weyl_ricci_agreement``:  cross-validation of the two paths
      * ``higgs_compatibility``:   D g - theta (x) g
    Below six real dimensions the records are advisory only.
    """
    cfg = cfg or FDConfig()
    rep = VerificationReport(case=case or spec.chart.name, suite="einstein-weyl", seed=samples.seed,
                             count=samples.count, fd=cfg.echo())
    rep.notes.append(f"outer exponent b = {spec.b}")
    n = spec.real_dim
    advisory = n < 6
    if advisory:
        rep.notes.append("real dimension below 6: residuals reported informationally")
    r_ric, r_dcurv, r_dform, r_agree, r_higgs = [], [], [], [], []
    for p in samples.points:
        _, g_tilde, theta, _, _ = conformal_fields(spec, cfg, ref=p)
        jet_step = cfg.jet_step * coordinate_scales(spec, p)
        g = g_tilde(p[None, :])[0]
        ginv = np.linalg.inv(g)
        th = theta(p[None, :])[0]
        t = th / 2.0
        target = (n - 2) * ((t @ ginv @ t) * g - np.outer(t, t))
        scale = max(np.max(np.abs(target)), 1e-30)
        rc, rf, ric = diffgeo.weyl_ricci(g_tilde, theta, p, cfg, step=jet_step)
        r_ric.append(np.max(np.abs(ric - target)) / scale)
        r_dcurv.append(np.max(np.abs(rc)) / scale)
        r_dform.append(np.max(np.abs(rf)) / scale)
        r_agree.append(np.max(np.abs(rc - rf)) / scale)
        # D g = theta (x) g
        nest = cfg.nested_step * coordinate_scales(spec, p)
        GD_field = lambda P: diffgeo.weyl_christoffel_batch(g_tilde, theta, P, cfg, step=nest)
        dg = diffgeo._jacobian_of_field(g_tilde, p[None, :], cfg, nest)[0]
        GD = GD_field(p[None, :])[0]
        cov = dg - np.einsum("kai,kj->aij", GD, g) - np.einsum("kaj,ik->aij", GD, g)
        tgt = np.einsum("a,ij->aij", th, g)
        r_higgs.append(np.max(np.abs(cov - tgt)) / max(np.max(np.abs(tgt)), 1e-30))
    rep.add("einstein_weyl_ricci", r_ric, tolerance, advisory)
    rep.add("weyl_ricci_curvature", r_dcurv, tolerance, advisory)
    rep.add("weyl_ricci_identity", r_dform, tolerance, advisory)
    rep.add("weyl_ricci_agreement", r_agree, tolerance, advisory)
    rep.add("higgs_compatibility", r_higgs, tolerance, advisory)
    return rep


def check_embedding_consistency(spec: PotentialSpec, samples: SampleSet, lam: complex = 0.5,
                                cfg: Optional[FDConfig] = None, case: str = "",
                                tol_algebraic: float = DEFAULT_TOLERANCES["embedding_algebraic"],
                                tol_norm: float = 1e-12,
                                tol_equivariance: float = DEFAULT_TOLERANCES["equivariance"],
                                min_separation: float = DEFAULT_TOLERANCES["separation"]) -> VerificationReport:
    """Reduction-map consistency: norms, quadric membership, Hopf quotient."""
    cfg = cfg or FDConfig()
    rep = VerificationReport(case=case or spec.chart.name, suite="embedding", seed=samples.seed,
                             count=samples.count, fd=cfg.echo())
    gamma = GammaGroup(lam)
    module, _ = spec.chart.embedding_rep(spec.exponents)
    r_norm, r_alg, r_equi = [], [], []
    canon = []
    name = "algebraic"
    for p in samples.points:
        z, w = decode_points(p, spec.chart.n_z)
        v = remmert(spec, z, complex(w))
        nsq = module.norm_sq(v)
        K1 = float(spec.K1(z, complex(w)))
        r_norm.append(abs(nsq - K1) / K1)
        unit = v / np.sqrt(nsq)
        name, resid = algebraic_residual(spec, unit)
        r_alg.append(resid)
        h1 = kodaira_embedding(spec, gamma, z, complex(w))
        h2 = kodaira_embedding(spec, gamma, z, lam * complex(w))
        r_equi.append(hopf_distance(h1, h2))
        if not (abs(gamma.lam) - 1e-12 < h1.norm <= 1.0 + 1e-12):
            rep.notes.append("canonical representative escaped the annulus")
        canon.append(h1.representative)
    rep.add("norm_matches_potential", r_norm, tol_norm)
    rep.add(f"{name}_residual", r_alg, tol_algebraic)
    rep.add("gamma_equivariance", r_equi, tol_equivariance)
    canon = np.asarray(canon)
    if len(canon) > 1:
        dists = []
        for i in range(len(canon)):
            for j in range(i + 1, len(canon)):
                dists.append(np.max(np.abs(canon[i] - canon[j])))
        rep.add("injectivity_separation", [min_separation / max(min(dists), 1e-300)], 1.0)
        rep.notes.append(f"minimum pairwise separation {min(dists):.3e}")
    return rep


# ---------------------------------------------------------------------------
# suite dispatch
# ---------------------------------------------------------------------------

SUITES = ("lck", "vaisman", "kahler-einstein", "ricci-flat", "einstein-weyl", "embedding")

_DEFAULT_COUNTS = {
    "lck": 20, "vaisman": 20, "kahler-einstein": 20,
    "ricci-flat": 20, "einstein-weyl": 10, "embedding": 50,
}


def run_suite(suite: str, case: str, seed: int = 7, count: Optional[int] = None,
              cfg: Optional[FDConfig] = None, exponents=None, ell: int = 1,
              b=None, lam: complex = 0.5, tolerance: Optional[float] = None) -> VerificationReport:
    """Run one named suite on a catalog case with seeded samples."""
    if suite not in SUITES:
        raise ConfigurationError(f"unknown suite {suite!r}; expected one of {SUITES}")
    cfg = cfg or FDConfig()
    if count is None:
        count = _DEFAULT_COUNTS[suite]
    elif count < 1:
        raise ConfigurationError(f"sample count must be at least 1, got {count}")
    chart = resolve_case(case)
    if b is None and suite in ("ricci-flat", "einstein-weyl"):
        b = ricci_flat_exponent(chart, ell)
    spec = make_spec(case, exponents=exponents, b=b, ell=ell)
    base_only = suite == "kahler-einstein"
    samples = sample_points(spec, seed, count, base_only=base_only)
    kwargs = {} if tolerance is None else {"tolerance": tolerance}
    if suite == "lck":
        return check_lck(spec, samples, cfg, case=case, **kwargs)
    if suite == "vaisman":
        return check_vaisman(spec, samples, cfg, case=case, **kwargs)
    if suite == "kahler-einstein":
        return check_kahler_einstein_base(case, samples, cfg, **kwargs)
    if suite == "ricci-flat":
        return check_cone_ricci_flat(spec, samples, cfg, case=case, **kwargs)
    if suite == "einstein-weyl":
        return check_einstein_weyl(spec, samples, cfg, case=case, **kwargs)
    if tolerance is not None:
        return check_embedding_consistency(spec, samples, lam=lam, cfg=cfg, case=case,
                                           tol_algebraic=tolerance)
    return check_embedding_consistency(spec, samples, lam=lam, cfg=cfg, case=case)
