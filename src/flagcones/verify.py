"""Named verification suites over seeded sample sets.

Each suite composes the pointwise tensor calculus into residuals for a
structural claim (locally conformally Kahler, parallel Lee form,
Kahler-Einstein base, Ricci-flat cone, Einstein-Weyl, cone embedding) and
returns a ``VerificationReport`` with per-residual max/mean, tolerances
and verdicts.  Reports are deterministic functions of (case, seed, FD
configuration).

The inner fields are analytic: ``g_tilde``, ``theta``, ``Omega`` and the
complex Hessians under the Ricci forms come in closed form from the chart
frames (``PotentialSpec.cone_jet``, ``base_hessian``), so one finite-difference
level is left above them.  ``g_tilde`` and ``theta`` travel as one joint
field (``conformal_fields``): each stencil evaluates the cone jet once and
reads the metric, the Lee form and ``Omega = -g_tilde J`` from it.  Finite differences of the potential stay as an
independent route: each finite-difference suite ends with a
``metric_agreement`` residual, the relative gap per sample between the
analytic complex Hessian (``kahler-einstein``, ``ricci-flat``) or
``g_tilde`` (the others) and its finite-difference counterpart.

Einstein-Weyl conventions: the suite metric is the conformal gauge
``g = e^(-2 psi) . (cone metric of K_1^b)`` with Lee form
``theta = -2 d psi = -d log K_1^b``.  The Weyl connection uses the Lee
form itself (``D g = theta (x) g``), while the curvature identities are
stated through the half field ``t = theta/2``, whose norm is 1 in this
gauge: ``Ric = (n-2)(|t|^2 g - t (x) t)`` and ``Ric^D = 0``.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

import numpy as np

from . import diffgeo
from .charts import PotentialSpec, decode_points, make_spec, ricci_flat_exponent
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
    "metric_agreement": 1e-8,
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
    """The potential and the joint conformal field of the cone geometry of K = K_1^b.

    Returns ``(K, cone)``.  ``cone(P)`` is one batched field (m, d+1, d)
    read from a single cone-jet ``(phi_a, ddbar K / K)`` evaluation: rows
    0..d-1 hold the Vaisman gauge ``g_tilde = e^(-2 psi) omega_C(., J.)``
    with ``psi = log K / 2`` (the real form of ``ddbar K / K``) and row d the
    Lee form ``theta = -d log K``, with components ``(-2b Re phi_a, 2b Im phi_a)``.
    ``diffgeo.split_joint`` separates the two; ``Omega_tilde = -g_tilde J``
    and the cone metric ``g_tilde K`` are read from the metric rows.  When a
    reference point is supplied ``K`` is divided by its value there, which
    keeps finite differences of it well conditioned when K is large; the
    conformal quantities do not depend on that constant.
    """
    F0 = spec.field()
    jet = spec.cone_jet()
    b = float(spec.b)
    scale = 1.0 if ref is None else float(F0(np.asarray(ref, dtype=float)[None, :])[0])

    def F(P):
        return F0(P) / scale

    def cone(P):
        P = np.atleast_2d(P)
        if np.any(np.hypot(P[..., 2 * spec.chart.n_z], P[..., 2 * spec.chart.n_z + 1]) < cfg.w_floor):
            raise diffgeo.ChartDegeneracyError("sample too close to the w = 0 fiber")
        phi, H = jet(P)
        theta = -2.0 * b * np.ascontiguousarray(np.conj(phi)).view(float)   # interleaved (Re, -Im) of conj(phi_a)
        return np.concatenate([diffgeo.metric_of_complex_hessian(H), theta[:, None, :]], axis=1)

    return F, cone


def _open_report(suite: str, spec: PotentialSpec, samples: SampleSet, cfg: Optional[FDConfig],
                 tolerance: Optional[float], case: str):
    """``(cfg, report, suite gate, metric_agreement gate)``: the defaults, or ``tolerance`` for every residual."""
    cfg = cfg or FDConfig()
    rep = VerificationReport(case=case or spec.chart.name, suite=suite, seed=samples.seed,
                             count=samples.count, fd=cfg.echo())
    if tolerance is None:
        return (cfg, rep, DEFAULT_TOLERANCES.get(suite, DEFAULT_TOLERANCES["curvature"]),
                DEFAULT_TOLERANCES["metric_agreement"])
    return cfg, rep, tolerance, tolerance


def _gap(ref: np.ndarray, other: np.ndarray) -> float:
    """max |ref - other| relative to max |ref|."""
    return np.max(np.abs(ref - other)) / max(np.max(np.abs(ref)), 1e-30)


def _metric_agreement(spec: PotentialSpec, cfg: FDConfig, F, p: np.ndarray, g: np.ndarray) -> float:
    """Gap between the analytic ``g_tilde`` at p and the finite-difference ``metric_batch(F) / F``."""
    fd = diffgeo.metric_batch(F, p[None, :], cfg, step=cfg.hessian_step * coordinate_scales(spec, p))[0]
    return _gap(g, fd / F(p[None, :])[0])


def lck_data(spec: PotentialSpec, p, cfg: Optional[FDConfig] = None):
    """Pointwise Lee form, anti-Lee form, conformal 2-form and metric."""
    cfg = cfg or FDConfig()
    p = np.asarray(p, dtype=float)
    _, cone = conformal_fields(spec, cfg, ref=p)
    g, th = diffgeo.split_joint(cone(p[None, :])[0])
    J = diffgeo.complex_structure(len(p))
    return {
        "theta": th,
        "anti_lee": J @ th,
        "omega": -g @ J,
        "metric": g,
        "psi": 0.5 * float(spec.log_field()(p[None, :])[0]),
    }


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def check_lck(spec: PotentialSpec, samples: SampleSet, cfg: Optional[FDConfig] = None,
              tolerance: Optional[float] = None, case: str = "",
              corrupt_theta: float = 1.0) -> VerificationReport:
    """d Omega = theta ^ Omega, d theta = 0 and constancy of |theta|.

    ``corrupt_theta`` rescales the Lee form to provide a negative control.
    """
    cfg, rep, tolerance, tol_agree = _open_report("lck", spec, samples, cfg, tolerance, case)
    J = diffgeo.complex_structure(spec.real_dim)
    r_lck, r_dth, norms, r_agree = [], [], [], []
    for p in samples.points:
        F, cone = conformal_fields(spec, cfg, ref=p)
        g, th = diffgeo.split_joint(cone(p[None, :])[0])
        th = corrupt_theta * th
        Om = -g @ J
        dOm = diffgeo.d_twoform(lambda P: -diffgeo.split_joint(cone(P))[0] @ J, p, cfg)
        wedge = diffgeo.wedge_one_two(th, Om)
        scale = max(np.max(np.abs(wedge)), 1e-30)
        r_lck.append(np.max(np.abs(dOm - wedge)) / scale)
        dth = diffgeo.d_oneform(lambda P: cone(P)[:, -1], p, cfg)
        r_dth.append(np.max(np.abs(dth)) / max(np.max(np.abs(th)), 1e-30))
        norms.append(float(th @ np.linalg.solve(g, th)))
        r_agree.append(_metric_agreement(spec, cfg, F, p, g))
    rep.add("lck_two_form", r_lck, tolerance)
    rep.add("lee_closed", r_dth, tolerance)
    norms = np.asarray(norms)
    rep.add("lee_norm_constant", np.abs(norms - norms.mean()) / norms.mean(), tolerance)
    rep.add("metric_agreement", r_agree, tol_agree)
    return rep


def _with_cone_metric(cone, F):
    """The joint field with the unrescaled cone metric ``g_tilde K`` in its metric rows."""
    def field(P):
        v = cone(P)
        v[:, :-1] *= F(P)[:, None, None]
        return v

    return field


def check_vaisman(spec: PotentialSpec, samples: SampleSet, cfg: Optional[FDConfig] = None,
                  tolerance: Optional[float] = None, case: str = "",
                  metric: str = "vaisman") -> VerificationReport:
    """Parallelism of the Lee form; ``metric='cone'`` is a negative control."""
    cfg, rep, tolerance, tol_agree = _open_report("vaisman", spec, samples, cfg, tolerance, case)
    vals, r_agree = [], []
    for p in samples.points:
        F, cone = conformal_fields(spec, cfg, ref=p)
        g, th = diffgeo.split_joint(cone(p[None, :])[0])
        field, gp = cone, g
        if metric != "vaisman":
            field, gp = _with_cone_metric(cone, F), g * F(p[None, :])[0]
        dg, dth = diffgeo.split_joint(diffgeo._jacobian_of_field(field, p[None, :], cfg, cfg.hessian_step)[0])
        nab = diffgeo.nabla_of_jets(gp, dg, th, dth)
        vals.append(np.max(np.abs(nab)) / max(np.max(np.abs(th)), 1e-30))
        r_agree.append(_metric_agreement(spec, cfg, F, p, g))
    rep.add("lee_parallel", vals, tolerance)
    rep.add("metric_agreement", r_agree, tol_agree)
    if metric != "vaisman":
        rep.notes.append("negative control: Lee form differentiated with the unrescaled cone metric")
    return rep


def check_kahler_einstein_base(spec: PotentialSpec, samples: SampleSet, cfg: Optional[FDConfig] = None,
                               tolerance: Optional[float] = None, case: str = "") -> VerificationReport:
    """Ricci form of the anticanonical potential equals i ddbar log h_delta.

    The Ricci form is one finite-difference Hessian of log det of the
    analytic base Hessian; ``i ddbar log h_delta`` is finite differences of
    ``log h_delta`` itself.
    """
    cfg, rep, tolerance, tol_agree = _open_report("kahler-einstein", spec, samples, cfg, tolerance, case)
    Fb = spec.base_log_anticanonical()
    Hb = spec.base_hessian()
    vals, r_agree = [], []
    for p in samples.points:
        rho = diffgeo.ricci_form_of_metric(Hb, p[None, :], cfg)[0]
        H = diffgeo.hessian_batch(Fb, p[None, :], cfg)[0]     # i ddbar and ddbar, one FD Hessian
        comp = 2.0 * diffgeo.kahler_form_of_hessian(H)
        vals.append(_gap(comp, rho))
        r_agree.append(_gap(Hb(p[None, :])[0], diffgeo.complex_hessian(H)))
    rep.add("kahler_einstein", vals, tolerance)
    rep.add("metric_agreement", r_agree, tol_agree)
    return rep


def check_cone_ricci_flat(spec: PotentialSpec, samples: SampleSet, cfg: Optional[FDConfig] = None,
                          tolerance: Optional[float] = None, case: str = "") -> VerificationReport:
    """Vanishing Ricci form of the rescaled cone potential K_1^b.

    The Ricci form is one finite-difference Hessian of log det of the
    analytic ``ddbar K = K (ddbar K / K)``.
    """
    cfg, rep, tolerance, tol_agree = _open_report("ricci-flat", spec, samples, cfg, tolerance, case)
    rep.notes.append(f"outer exponent b = {spec.b}")
    F0 = spec.field()
    jet = spec.cone_jet()
    vals, r_agree = [], []
    for p in samples.points:
        scale = float(F0(p[None, :])[0])
        F = lambda P, s=scale: F0(P) / s
        H = lambda P, F=F: jet(P)[1] * F(P)[:, None, None]
        step = cfg.hessian_step * coordinate_scales(spec, p)
        rho = diffgeo.ricci_form_of_metric(H, p[None, :], cfg, step=step)[0]
        fd = diffgeo.hessian_batch(F, p[None, :], cfg)[0]     # i ddbar and ddbar, one FD Hessian
        om = 2.0 * diffgeo.kahler_form_of_hessian(fd)
        vals.append(np.max(np.abs(rho)) / max(np.max(np.abs(om)), 1e-30))
        r_agree.append(_gap(H(p[None, :])[0], diffgeo.complex_hessian(fd)))
    rep.add("ricci_flat", vals, tolerance)
    rep.add("metric_agreement", r_agree, tol_agree)
    return rep


def check_einstein_weyl(spec: PotentialSpec, samples: SampleSet, cfg: Optional[FDConfig] = None,
                        tolerance: Optional[float] = None, case: str = "") -> VerificationReport:
    """Einstein-Weyl residuals of the conformal gauge of K_1^b.

    Reports, with t = theta/2 (unit in this gauge):
      * ``einstein_weyl_ricci``:   Ric - (n-2)(|t|^2 g - t (x) t)
      * ``weyl_ricci_curvature``:  Ric^D from the connection coefficients
      * ``weyl_ricci_identity``:   Ric^D from the conformal identity
      * ``weyl_ricci_agreement``:  cross-validation of the two paths
      * ``higgs_compatibility``:   D g - theta (x) g
      * ``metric_agreement``:      analytic g_tilde against metric_batch(F) / F
    Below six real dimensions the records are advisory only.
    """
    cfg, rep, tolerance, tol_agree = _open_report("einstein-weyl", spec, samples, cfg, tolerance, case)
    rep.notes.append(f"outer exponent b = {spec.b}")
    n = spec.real_dim
    advisory = n < 6
    if advisory:
        rep.notes.append("real dimension below 6: residuals reported informationally")
    r_ric, r_dcurv, r_dform, r_agree, r_higgs, r_metric = [], [], [], [], [], []
    for p in samples.points:
        F, cone = conformal_fields(spec, cfg, ref=p)
        # one joint stencil gives g and theta at p and their jets
        jets = diffgeo._metric_jets(cone, p, cfg, step=cfg.jet_step * coordinate_scales(spec, p))
        (g, th), (dg, dth), (ddg, _) = map(diffgeo.split_joint, jets)
        ginv = np.linalg.inv(g)
        t = th / 2.0
        target = (n - 2) * ((t @ ginv @ t) * g - np.outer(t, t))
        scale = max(np.max(np.abs(target)), 1e-30)
        rc, rf, ric = diffgeo.weyl_ricci_of_jets(g, dg, ddg, th, dth)
        r_ric.append(np.max(np.abs(ric - target)) / scale)
        r_dcurv.append(np.max(np.abs(rc)) / scale)
        r_dform.append(np.max(np.abs(rf)) / scale)
        r_agree.append(np.max(np.abs(rc - rf)) / scale)
        # D g = theta (x) g, with dg at the nested step
        nest = cfg.nested_step * coordinate_scales(spec, p)
        dg, _ = diffgeo.split_joint(diffgeo._jacobian_of_field(cone, p[None, :], cfg, nest)[0])
        cov = diffgeo.weyl_metric_derivative(g, dg, th)
        tgt = np.einsum("a,ij->aij", th, g)
        r_higgs.append(np.max(np.abs(cov - tgt)) / max(np.max(np.abs(tgt)), 1e-30))
        r_metric.append(_metric_agreement(spec, cfg, F, p, g))
    rep.add("einstein_weyl_ricci", r_ric, tolerance, advisory)
    rep.add("weyl_ricci_curvature", r_dcurv, tolerance, advisory)
    rep.add("weyl_ricci_identity", r_dform, tolerance, advisory)
    rep.add("weyl_ricci_agreement", r_agree, tolerance, advisory)
    rep.add("higgs_compatibility", r_higgs, tolerance, advisory)
    rep.add("metric_agreement", r_metric, tol_agree, advisory)
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
        dists = np.max(np.abs(canon[:, None] - canon[None]), axis=-1)
        sep = float(np.min(dists[np.triu_indices(len(canon), 1)]))
        rep.add("injectivity_separation", [min_separation / max(sep, 1e-300)], 1.0)
        rep.notes.append(f"minimum pairwise separation {sep:.3e}")
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
    spec = make_spec(case, exponents=exponents, b=b, ell=ell)
    if b is None and suite in ("ricci-flat", "einstein-weyl"):
        spec = replace(spec, b=ricci_flat_exponent(spec.chart, ell))
    base_only = suite == "kahler-einstein"
    samples = sample_points(spec, seed, count, base_only=base_only)
    if suite == "embedding":
        kwargs = {} if tolerance is None else {"tol_algebraic": tolerance}
        return check_embedding_consistency(spec, samples, lam=lam, cfg=cfg, case=case, **kwargs)
    check = {"lck": check_lck, "vaisman": check_vaisman, "kahler-einstein": check_kahler_einstein_base,
             "ricci-flat": check_cone_ricci_flat, "einstein-weyl": check_einstein_weyl}[suite]
    return check(spec, samples, cfg, tolerance=tolerance, case=case)
