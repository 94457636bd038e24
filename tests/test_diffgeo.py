"""Finite-difference tensor calculus: exactness, convergence, curvature probes."""
import dataclasses
import json

import numpy as np
import pytest

from flagcones import diffgeo
from flagcones.charts import make_spec
from flagcones.roots import ConfigurationError
from flagcones.diffgeo import FDConfig, complex_structure, scaled_steps, wedge_one_two

CFG = FDConfig()


def _grad(F, P, step=CFG.base_step, cfg=CFG):
    """First derivatives of a batched field at the points P, at steps ``scaled_steps(P, step)``."""
    return diffgeo._jacobian_of_field(F, P, cfg, scaled_steps(P, step))


def _hessian(F, P, step=CFG.hessian_step, cfg=CFG):
    """Second derivatives of a batched field at the points P, at steps ``scaled_steps(P, step)``."""
    return diffgeo._metric_jets(F, P, cfg, scaled_steps(P, step))[2]


def _d_oneform(omega, P, step=CFG.base_step):
    """(d omega)_ij = d_i omega_j - d_j omega_i of a batched covector field."""
    D = _grad(omega, P, step)
    return D - np.swapaxes(D, -1, -2)


def _metric_field(F, p):
    """The finite-difference metric ``omega(F) J`` as a batched field, every point at the steps of p.

    A field nested inside an outer stencil keeps the centre's steps: per-point
    scaling would vary them across the stencil.
    """
    h = scaled_steps(p, CFG.hessian_step)
    return lambda P: diffgeo.kahler_form_of_hessian(diffgeo._metric_jets(F, P, CFG, h)[2]) @ complex_structure(len(p))


def _christoffel(gfield, P, step=CFG.hessian_step):
    """Levi-Civita symbols of a batched metric field at the points P, from one Jacobian."""
    return diffgeo._christoffel(np.linalg.inv(gfield(P)), _grad(gfield, P, step))


def _ricci(gfield, P, step=CFG.hessian_step):
    """Ricci tensors of a batched metric field at the points P, from its jets at ``scaled_steps(P, step)``."""
    g, dg, ddg = diffgeo._metric_jets(gfield, P, CFG, scaled_steps(P, step))
    G, div, dtr, _ = diffgeo._symbol_traces(np.linalg.inv(g), dg, ddg)
    return diffgeo._ricci_of_traces(G, div, dtr)


def _joint(gfield, theta):
    """One field (m, d+1, d) carrying a metric field's rows and a one-form field's row."""
    return lambda P: np.concatenate([gfield(P), theta(P)[:, None, :]], axis=1)


def _split_joint(v):
    """Metric rows and one-form row of ``_joint`` values or jets (..., d+1, d)."""
    return np.ascontiguousarray(v[..., :-1, :]), np.ascontiguousarray(v[..., -1, :])


def test_d_scalar_linear_exact():
    F = lambda P: 3.0 * P[..., 0] - 2.0 * P[..., 1] + 0.5 * P[..., 2] + 7.0
    g = _grad(F, np.array([[0.3, -0.2, 1.0, 0.5]]))[0]
    assert np.allclose(g, [3.0, -2.0, 0.5, 0.0], atol=1e-12)


def test_closure_d_of_d():
    """d(dF) vanishes for the catalog log-potentials."""
    spec = make_spec("gr24")
    logF = spec.log_field()
    p = np.array([0.3, -0.2, 0.1, 0.4, -0.3, 0.2, 0.5, 0.1, 1.1, 0.4])
    h = scaled_steps(p, CFG.base_step)
    omega = lambda P: diffgeo._jacobian_of_field(logF, P, CFG, h)
    ddF = _d_oneform(omega, p[None, :])[0]
    assert np.max(np.abs(ddF)) < 1e-8


def test_fd_convergence_order():
    """With one Richardson level the error contracts at least 4x per halving."""
    F = lambda P: np.sin(P[..., 0]) * np.exp(0.5 * P[..., 1]) + P[..., 0] ** 3
    p = np.array([0.4, -0.7])
    exact = np.array([np.cos(0.4) * np.exp(-0.35) + 3 * 0.16, 0.5 * np.sin(0.4) * np.exp(-0.35)])
    errs = []
    for h in (2e-2, 1e-2, 5e-3):
        g = _grad(F, p[None, :], h, FDConfig(richardson=2))[0]
        errs.append(np.max(np.abs(g - exact)))
    assert errs[0] / errs[1] >= 4.0
    assert errs[1] / errs[2] >= 4.0


def test_hessian_convergence_order():
    F = lambda P: np.cos(P[..., 0] * P[..., 1]) + P[..., 1] ** 4
    p = np.array([0.5, 0.3])
    exact = np.array([
        [-0.09 * np.cos(0.15), -np.sin(0.15) - 0.15 * np.cos(0.15)],
        [-np.sin(0.15) - 0.15 * np.cos(0.15), -0.25 * np.cos(0.15) + 12 * 0.09],
    ])
    errs = []
    for h in (4e-2, 2e-2):
        H = _hessian(F, p[None, :], h, FDConfig(richardson=2))[0]
        errs.append(np.max(np.abs(H - exact)))
    assert errs[0] / errs[1] >= 4.0


def test_complex_structure_squares_to_minus_one():
    J = complex_structure(8)
    assert np.allclose(J @ J, -np.eye(8))
    v = np.arange(4.0)
    assert np.allclose(complex_structure(4) @ (complex_structure(4) @ v), -v)


def test_complex_structure_is_built_once_and_read_only():
    J = complex_structure(6)
    assert complex_structure(6) is J and not J.flags.writeable
    with pytest.raises(ValueError):
        complex_structure(5)


def test_dc_of_fiber_modulus():
    """d^c |w|^2 at w = 1 is twice the angular covector."""
    F = lambda P: P[..., 0] ** 2 + P[..., 1] ** 2
    dc_scalar = lambda p: complex_structure(2) @ _grad(F, p[None, :])[0]    # d^c F = J grad F
    dc = dc_scalar(np.array([1.0, 0.0]))
    assert np.allclose(dc, [0.0, 2.0], atol=1e-10)
    # at general w it equals 2(x dy - y dx)
    p = np.array([0.8, -0.5])
    dc = dc_scalar(p)
    assert np.allclose(dc, [2 * p[1] * -1, 2 * p[0]], atol=1e-10)


def test_ddc_is_type_one_one():
    """d d^c F is J-invariant: Omega(JX, JY) = Omega(X, Y)."""
    spec = make_spec("conifold")
    F = spec.field()
    p = np.array([0.3, -0.2, 0.4, 0.1, 1.1, 0.2])
    om = diffgeo.kahler_form_of_hessian(_hessian(F, p[None, :]))[0]
    J = complex_structure(6)
    assert np.max(np.abs(J.T @ om @ J - om)) < 1e-9


def test_flat_form_and_metric():
    F = lambda P: P[..., 0] ** 2 + P[..., 1] ** 2
    p = np.array([0.7, -0.3])
    om = diffgeo.kahler_form_of_hessian(_hessian(F, p[None, :]))[0]
    assert np.allclose(om, [[0, 1], [-1, 0]], atol=1e-11)
    assert np.allclose(_metric_field(F, p)(p[None, :])[0], np.eye(2), atol=1e-11)    # g(X, Y) = omega(X, JY)


def test_kahler_form_closed_and_positive():
    spec = make_spec("cp:2")
    F = spec.field()
    p = np.array([0.5, -0.2, 0.1, 0.3, 1.2, -0.4])
    h = scaled_steps(p, CFG.hessian_step)
    Om = lambda P: diffgeo.kahler_form_of_hessian(diffgeo._metric_jets(F, P, CFG, h)[2])
    dOm = diffgeo.d_twoform_of_jets(_grad(Om, p[None, :], 1e-2)[0])
    assert np.max(np.abs(dOm)) < 1e-7
    g = _metric_field(F, p)(p[None, :])[0]
    assert np.min(np.linalg.eigvalsh((g + g.T) / 2)) > 0


def test_christoffel_flat_zero():
    gfield = lambda P: np.broadcast_to(np.eye(4), (len(np.atleast_2d(P)), 4, 4)).copy()
    G = _christoffel(gfield, np.array([[0.3, 0.1, -0.2, 0.5]]))
    assert np.max(np.abs(G)) < 1e-12


def test_metric_compatibility():
    """nabla g = 0 for the Levi-Civita symbols of a curved probe metric."""
    spec = make_spec("hopf:cp1")
    F = spec.field()
    p = np.array([0.4, -0.1, 1.05, 0.3])
    gfield = _metric_field(F, p)
    G = _christoffel(gfield, p[None, :])[0]
    dg = _grad(gfield, p[None, :], CFG.hessian_step)[0]
    g = gfield(p[None, :])[0]
    cov = dg - np.einsum("kai,kj->aij", G, g) - np.einsum("kaj,ik->aij", G, g)
    assert np.max(np.abs(cov)) < 1e-6


def test_nabla_antisymmetric_part_is_half_dtheta():
    """For any covector field the antisymmetrised nabla is d/2."""
    spec = make_spec("hopf:cp1")
    F = spec.field()
    theta = lambda P: np.stack([np.sin(P[..., 0]), P[..., 1] ** 2, P[..., 2] * P[..., 0], P[..., 3]], axis=-1)
    p = np.array([0.4, -0.1, 1.05, 0.3])
    gfield = _metric_field(F, p)
    P = p[None, :]
    dg, dtheta = _split_joint(_grad(_joint(gfield, theta), P, CFG.hessian_step))
    nab = diffgeo.nabla_of_jets(gfield(P), dg, theta(P), dtheta)[0]
    dth = _d_oneform(theta, P)[0]
    assert np.max(np.abs((nab - nab.T) - 0.5 * (dth - dth.T))) < 1e-6


def test_ricci_flat_metric_zero():
    gfield = lambda P: np.broadcast_to(np.eye(4), (len(np.atleast_2d(P)), 4, 4)).copy()
    R = _ricci(gfield, np.array([[0.3, 0.1, -0.2, 0.5]]))
    assert np.max(np.abs(R)) < 1e-12


def test_ricci_fubini_study():
    """Round metric from i ddbar log h_delta: Ric = 2 g.

    The metric field is itself a nested finite difference, so its jets run
    at the outer step of 4e-2 that the 1e-5 bound was set for; a smaller
    outer step amplifies the inner error.
    """
    F = lambda P: 2.0 * np.log(1.0 + P[..., 0] ** 2 + P[..., 1] ** 2)
    for p in [np.array([0.3, -0.4]), np.array([0.9, 0.6])]:
        gfield = _metric_field(F, p)
        R = _ricci(gfield, p[None, :], 4e-2)[0]
        g = gfield(p[None, :])[0]
        assert np.max(np.abs(R - 2 * g)) < 1e-5
        assert np.max(np.abs(R - R.T)) < 1e-7


def _ricci_form_at(H_field, p):
    """Ricci form of a batched complex Hessian field at one point, at ``scaled_steps(p, CFG.hessian_step)``."""
    P = p[None, :]
    return diffgeo.ricci_form_of_metric(H_field, P, CFG, scaled_steps(P, CFG.hessian_step))[0]


def test_ricci_form_flat_pullback():
    """ddbar K = K (ddbar K / K) of the hopf:cp1 cone potential is flat."""
    jet = make_spec("hopf:cp1").cone_jet(with_K=True)

    def H(P):
        _, Hc, K = jet(P)
        return Hc * K[:, None, None]

    rho = _ricci_form_at(H, np.array([0.3, -0.2, 1.1, 0.4]))
    assert np.max(np.abs(rho)) < 1e-6


def test_ricci_form_matches_ricci_tensor_on_kahler_probe():
    """rho(X, JY) agrees with the Riemannian Ricci on a Kahler metric.

    The complex Hessian of ``2 log(1 + |z|^2)`` is ``2 / (1 + |z|^2)^2``.  The
    reference metric field is itself a nested finite difference, so its jets
    run at the outer step of 4e-2, as in ``test_ricci_fubini_study``; at
    4e-3 the inner error it amplifies sets a floor of 3.9e-5.
    """
    F = lambda P: 2.0 * np.log(1.0 + P[..., 0] ** 2 + P[..., 1] ** 2)
    H = lambda P: (2.0 / (1.0 + P[:, 0] ** 2 + P[:, 1] ** 2) ** 2)[:, None, None]
    p = np.array([0.3, -0.4])
    rho = _ricci_form_at(H, p)
    R = _ricci(_metric_field(F, p), p[None, :], 4e-2)[0]
    J = complex_structure(2)
    assert np.max(np.abs(rho @ J - R)) < 1e-4


def test_weyl_connection_zero_theta_is_levi_civita():
    spec = make_spec("hopf:cp1")
    F = spec.field()
    P = np.array([[0.4, -0.1, 1.05, 0.3]])
    gfield = _metric_field(F, P[0])
    dg = _grad(gfield, P, CFG.hessian_step)
    GD = diffgeo.weyl_symbols_of_jets(gfield(P), dg, np.zeros((1, 4)))
    G = _christoffel(gfield, P)
    assert np.max(np.abs(GD - G)) < 1e-12


def test_weyl_ricci_paths_agree_off_shell():
    """Curvature and identity paths agree for a non-parallel exact Lee form."""
    spec = make_spec("hopf:cp1")
    F = spec.field()
    logF = spec.log_field()
    P = np.array([[0.4, -0.1, 1.05, 0.3]])
    gfield = _metric_field(F, P[0])        # unrescaled cone metric
    h = scaled_steps(P[0], CFG.base_step)
    theta = lambda Q: -diffgeo._jacobian_of_field(logF, Q, CFG, h)
    jets = diffgeo._metric_jets(_joint(gfield, theta), P, CFG, scaled_steps(P, CFG.hessian_step))
    (g, th), (dg, dth), (ddg, _) = map(_split_joint, jets)
    rc, rf, _ = diffgeo.weyl_ricci_of_jets(g, dg, ddg, th, dth)
    scale = max(np.max(np.abs(rc)), 1.0)
    assert np.max(np.abs(rc)) > 0.1          # genuinely off-shell probe
    assert np.max(np.abs(rc - rf)) / scale < 1e-4


def test_weyl_higgs_identity():
    spec = make_spec("hopf:cp1")
    F = spec.field()
    logF = spec.log_field()
    p = np.array([0.4, -0.1, 1.05, 0.3])
    metric, h = _metric_field(F, p), scaled_steps(p, CFG.base_step)

    def gfield(P):
        return metric(P) / np.asarray(F(P))[:, None, None]

    theta = lambda P: -diffgeo._jacobian_of_field(logF, P, CFG, h)
    P = p[None, :]
    GD = diffgeo.weyl_symbols_of_jets(gfield(P), _grad(gfield, P, CFG.hessian_step), theta(P))[0]
    dg = _grad(gfield, P, 1e-2)[0]          # a second step, so that the check is not an identity of one stencil
    g = gfield(P)[0]
    th = theta(P)[0]
    cov = dg - np.einsum("kai,kj->aij", GD, g) - np.einsum("kaj,ik->aij", GD, g)
    assert np.max(np.abs(cov - np.einsum("a,ij->aij", th, g))) < 1e-5


def _symmetric_jets(rng, lead, n):
    """Random metric, Lee-form and derivative jets with the symmetries of a metric field's jets."""
    a = rng.normal(size=lead + (n, n))
    g = a @ np.swapaxes(a, -1, -2) + n * np.eye(n)
    dg = rng.normal(size=lead + (n, n, n))
    dg += np.swapaxes(dg, -1, -2)
    ddg = rng.normal(size=lead + (n, n, n, n))
    ddg += np.swapaxes(ddg, -1, -2)
    ddg += np.swapaxes(ddg, -3, -4)
    return g, dg, ddg, rng.normal(size=lead + (n,)), rng.normal(size=lead + (n, n))


def _full_tensor_ricci(g, dg, ddg, theta, dtheta):
    """Reference: Weyl and Levi-Civita Ricci from the full derivative tensors d_a Gamma^k_ij, by einsum."""
    n, eye = theta.shape[-1], np.eye(theta.shape[-1])
    ginv = np.linalg.inv(g)
    S = dg + np.swapaxes(dg, -3, -2) - np.moveaxis(dg, -3, -1)
    dS = ddg + np.swapaxes(ddg, -3, -2) - np.moveaxis(ddg, -3, -1)
    dginv = -np.einsum("...km,...amn,...nl->...akl", ginv, dg, ginv)
    G = 0.5 * np.einsum("...kl,...ijl->...kij", ginv, S)
    dG = 0.5 * (np.einsum("...akl,...ijl->...akij", dginv, S) + np.einsum("...kl,...aijl->...akij", ginv, dS))
    A = np.einsum("...kl,...l->...k", ginv, theta)
    dA = np.einsum("...akl,...l->...ak", dginv, theta) + np.einsum("...kl,...al->...ak", ginv, dtheta)
    W = -0.5 * (np.einsum("...i,kj->...kij", theta, eye) + np.einsum("...j,ki->...kij", theta, eye)
                - np.einsum("...ij,...k->...kij", g, A))
    dW = -0.5 * (np.einsum("...ai,kj->...akij", dtheta, eye) + np.einsum("...aj,ki->...akij", dtheta, eye)
                 - np.einsum("...aij,...k->...akij", dg, A) - np.einsum("...ij,...ak->...akij", g, dA))

    def ricci(G, dG):
        return (np.einsum("...iijk->...jk", dG) - np.einsum("...jiik->...jk", dG)
                + np.einsum("...iim,...mjk->...jk", G, G) - np.einsum("...ijm,...mik->...jk", G, G))

    return ricci(G + W, dG + dW), ricci(G, dG)


@pytest.mark.parametrize("n", [4, 6, 8, 10])
@pytest.mark.parametrize("lead", [(), (5,), (2, 3)])
def test_trace_only_ricci_matches_full_tensor_reference(n, lead):
    """The traces of d Gamma that Ricci reads give the Ricci tensors of the full-tensor contraction."""
    jets = _symmetric_jets(np.random.default_rng(n + len(lead)), lead, n)
    rc, _, ric = diffgeo.weyl_ricci_of_jets(*jets)
    for got, ref in zip((rc, ric), _full_tensor_ricci(*jets)):
        assert got.shape == lead + (n, n)
        np.testing.assert_allclose(got, ref, rtol=1e-12)


def test_weyl_ricci_of_jets_on_a_stack_matches_points():
    """The jet algebra batched over a leading axis equals one call per point."""
    rng = np.random.default_rng(11)
    m, n = 4, 6
    a = rng.normal(size=(m, n, n))
    g = a @ np.swapaxes(a, -1, -2) + n * np.eye(n)
    dg = rng.normal(size=(m, n, n, n))
    dg += np.swapaxes(dg, -1, -2)
    ddg = rng.normal(size=(m, n, n, n, n))
    ddg += np.swapaxes(ddg, -1, -2)
    ddg += np.swapaxes(ddg, 1, 2)
    theta, dtheta = rng.normal(size=(m, n)), rng.normal(size=(m, n, n))
    stacked = diffgeo.weyl_ricci_of_jets(g, dg, ddg, theta, dtheta)
    for i in range(m):
        single = diffgeo.weyl_ricci_of_jets(g[i], dg[i], ddg[i], theta[i], dtheta[i])
        for batch, one in zip(stacked, single):
            assert batch.shape == (m, n, n)
            np.testing.assert_allclose(batch[i], one, rtol=1e-12)


def test_lee_form_norm_is_two():
    from flagcones.verify import lck_data

    for case in ["hopf:cp1", "conifold"]:
        spec = make_spec(case)
        p = np.concatenate([np.full(2 * spec.chart.n_z, 0.21), [1.1, 0.3]])
        data = lck_data(spec, p)
        th, g = data["theta"], data["metric"]
        assert abs(th @ np.linalg.solve(g, th) - 4.0) < 1e-6


def test_hopf_lee_form_components():
    """theta = -d log K is minus twice the radial w-covector at z = 0, w = 1."""
    from flagcones.verify import lck_data

    spec = make_spec("hopf:cp1")
    data = lck_data(spec, np.array([0.0, 0.0, 1.0, 0.0]))
    assert np.allclose(data["theta"], [0.0, 0.0, -2.0, 0.0], atol=1e-10)
    assert np.allclose(data["anti_lee"], [0.0, 0.0, 0.0, -2.0], atol=1e-10)


def test_chart_degeneracy_guard():
    from flagcones.verify import conformal_fields

    spec = make_spec("hopf:cp1")
    cone = conformal_fields(spec)
    with pytest.raises(diffgeo.ChartDegeneracyError):
        cone(np.array([[0.1, 0.0, 1e-9, 0.0]]))
    good = np.array([[0.1, 0.0, 1.0, 0.3], [0.2, -0.1, 0.0, 0.8]])
    bad = np.array([good[0], [0.2, -0.1, 1e-9, -1e-9], good[1]])   # only the second point
    # per point: the 2 x 2 complex entries of ddbar K / K as 8 floats, then 4 Lee-form components
    assert cone(good).shape == (2, 12) and np.all(np.isfinite(cone(good)))
    with pytest.raises(diffgeo.ChartDegeneracyError):
        cone(bad)


@pytest.mark.parametrize("case", ["gr24", "quadric:6", "wallach", "conifold"])
def test_expanding_the_cone_field_commutes_with_its_differences(case):
    """Stencil drivers on the compact cone field, then ``split_cone``, equal them on the expanded field bit for bit."""
    from flagcones.verify import conformal_fields, sample_points

    spec = make_spec(case)
    cone = conformal_fields(spec)

    def expanded(X):
        g, th = diffgeo.split_cone(cone(X))
        return np.concatenate([g, th[:, None, :]], axis=1)

    P = sample_points(spec, 5, 20).points
    h = scaled_steps(P, CFG.hessian_step)
    for driver in (diffgeo._metric_jets, lambda *a: (diffgeo._jacobian_of_field(*a),)):
        for compact, full in zip(driver(cone, P, CFG, h), driver(expanded, P, CFG, h)):   # (g, dg, ddg), (dg,)
            for a, b in zip(diffgeo.split_cone(compact), _split_joint(full)):
                assert np.array_equal(a, b)


def test_fd_audit_on_catalog_potentials():
    """First-derivative error contracts at least 4x per halving on every case."""
    for case in ["hopf:cp1", "gr24", "wallach", "quadric:6", "conifold"]:
        spec = make_spec(case)
        logF = spec.log_field()
        nz = spec.chart.n_z
        rng = np.random.default_rng(23)
        p = np.concatenate([rng.uniform(-0.7, 0.7, size=2 * nz), [1.1, 0.4]])
        ref = _grad(logF, p[None, :], 1e-3, FDConfig(richardson=3))[0]
        errs = [np.max(np.abs(_grad(logF, p[None, :], h, FDConfig(richardson=2))[0] - ref))
                for h in (8e-2, 4e-2)]
        assert errs[0] / max(errs[1], 1e-15) >= 4.0, case


@pytest.mark.parametrize("kwargs", [{"richardson": 0}, {"richardson": -1}, {"base_step": 0.0},
                                    {"base_step": 1e305}, {"richardson": 2.5},
                                    {"base_step": -1e-4}, {"base_step": float("nan")}, {"richardson": True},
                                    {"richardson": np.float64(2.0)}, {"base_step": True}])
def test_fd_config_rejects_invalid_values(kwargs):
    with pytest.raises(ConfigurationError, match=next(iter(kwargs))):
        FDConfig(**kwargs)


@pytest.mark.parametrize("richardson", [np.int64(3), np.int32(1), np.uint8(2)])
def test_fd_config_stores_numpy_integer_depth_as_int(richardson):
    """A numpy integer depth is stored as a plain ``int``, so ``echo()`` and the report JSON carry a number."""
    cfg = FDConfig(richardson=richardson)
    assert type(cfg.richardson) is int and cfg.richardson == richardson
    assert cfg == FDConfig(richardson=int(richardson))
    assert json.loads(json.dumps(cfg.echo()))["richardson"] == richardson


@pytest.mark.parametrize("base_step", [1e-4, 2e-4, 3e-5, 1e-3])
def test_fd_config_steps_are_fixed_multiples_of_the_base_step(base_step):
    """The derived step is ``default * (base_step / 1e-4)`` bit for bit; it is all that ``echo()`` adds."""
    cfg = FDConfig(base_step=base_step)
    defaults = {"hessian_step": 4e-3}
    for name, default in defaults.items():
        assert getattr(cfg, name).hex() == (default * (base_step / 1e-4)).hex(), name
    assert list(cfg.echo()) == ["base_step", "hessian_step", "richardson"]
    assert [f.name for f in dataclasses.fields(FDConfig)] == ["base_step", "richardson"]


def _poly(P):
    x = P.T
    return x[0] ** 3 * x[1] - 2.0 * x[1] * x[2] ** 2 + x[0] * x[2] + 0.5 * x[1] ** 4


def _poly_vector(P):
    x = P.T
    return np.stack([x[0] * x[1], x[2] ** 3 - x[0], x[1] ** 2 * x[2]], axis=-1)


def _flat_jets(jets):
    """The jets ``(g, dg, ddg)`` of m points as one (m, *) array, a row per point."""
    return np.concatenate([a.reshape(len(a), -1) for a in jets], axis=1)


def test_multi_point_batches_match_single_points():
    """With array steps an m-point call equals m one-point calls row by row."""
    P = np.array([[0.3, -0.2, 1.1], [-0.7, 0.4, 0.05], [1.8, 2.5, -0.9], [0.0, 0.6, 0.2]])
    step = np.array([1e-2, 2e-2, 5e-3])
    calls = [lambda Q: diffgeo._jacobian_of_field(_poly, Q, CFG, step),
             lambda Q: _flat_jets(diffgeo._metric_jets(_poly, Q, CFG, step)),
             lambda Q: diffgeo._jacobian_of_field(_poly_vector, Q, CFG, step),
             lambda Q: _flat_jets(diffgeo._metric_jets(_poly_vector, Q, CFG, step))]
    for call in calls:
        batch = call(P)
        assert len(batch) == len(P)
        for row, p in zip(batch, P):
            assert np.array_equal(row, call(p[None, :])[0])


def test_hessian_of_matrix_valued_field():
    """Quadratic matrix fields: exact second derivatives in (a, b, *shape) order."""
    rng = np.random.default_rng(5)
    d, shape = 3, (2, 4)
    A = rng.normal(size=shape + (d, d))
    A = A + np.swapaxes(A, -1, -2)                     # d_a d_b f_ij = A[i, j, a, b]
    B = rng.normal(size=shape + (d,))
    field = lambda P: 0.5 * np.einsum("ijab,ma,mb->mij", A, P, P) + np.einsum("ija,ma->mij", B, P)
    expected = np.moveaxis(A, (-2, -1), (0, 1))        # (a, b, i, j)
    P = np.array([[0.4, -0.3, 1.2], [0.1, 0.9, -0.5]])
    H = _hessian(field, P)
    assert H.shape == (2, d, d) + shape
    assert np.allclose(H, expected, atol=1e-8)
    g, dg, ddg = diffgeo._metric_jets(field, P, CFG, scaled_steps(P, CFG.hessian_step))
    assert np.array_equal(g, field(P))
    assert ddg.shape == (2, d, d) + shape
    assert np.allclose(ddg, expected, atol=1e-8)
    assert np.allclose(dg, np.einsum("ijab,mb->maij", A, P) + np.moveaxis(B, -1, 0), atol=1e-8)


def _loop_hessian(F, p, h):
    """Reference: central second differences one entry at a time."""
    d = len(p)

    def at(*moves):
        off = np.zeros(d)
        for k, s in moves:
            off[k] = s * h[k]
        return F((p + off)[None, :])[0]

    c = at()
    H = np.empty((d, d) + np.shape(c))
    for i in range(d):
        H[i, i] = (at((i, 1)) - 2 * c + at((i, -1))) / (h[i] * h[i])
        for j in range(i + 1, d):
            H[i, j] = H[j, i] = (at((i, 1), (j, 1)) - at((i, 1), (j, -1))
                                 - at((i, -1), (j, 1)) + at((i, -1), (j, -1))) / (4 * h[i] * h[j])
    return H


def test_vectorised_hessian_equals_loop_reference():
    """Index arithmetic keeps the loop's operation order: results are bit-equal."""
    P = np.array([[0.3, -0.2, 1.1], [-0.7, 0.4, 0.05]])
    step = np.array([1e-2, 2e-2, 5e-3])
    for field in (_poly, _poly_vector, lambda Q: np.einsum("mi,mj->mij", Q, np.sin(Q))):
        H = diffgeo._metric_jets(field, P, FDConfig(richardson=1), step)[2]
        for row, p in zip(H, P):
            assert np.array_equal(row, _loop_hessian(field, p, step))


def _running_richardson(estimates):
    """The running-estimate update used before the Neville tableau: the depth-2 reference."""
    est = None
    for level, new in enumerate(estimates):
        est = new if est is None else (4.0 ** level * new - est) / (4.0 ** level - 1.0)
    return est


def _sin_exp(P):
    return np.sin(P[..., 0]) * np.exp(P[..., 1])


def test_richardson_error_shrinks_with_each_level():
    """Depths 1-4 on the Hessian of sin(x) e^y at (0.3, 0.2)."""
    s, c, e = np.sin(0.3), np.cos(0.3), np.exp(0.2)
    exact = np.array([[-s * e, c * e], [c * e, s * e]])
    p = np.array([[0.3, 0.2]])
    errs = {step: [np.max(np.abs(_hessian(_sin_exp, p, step, FDConfig(richardson=k))[0] - exact))
                   for k in (1, 2, 3, 4)] for step in (0.1, 0.2)}
    wide = errs[0.2]                        # truncation-dominated: every level gains 100x or more
    assert all(wide[k + 1] < wide[k] / 100 for k in range(3)), wide
    # at step 0.1 depths 3 and 4 reach the rounding floor; the running update gave 2.0e-5 and 4.5e-6
    assert errs[0.1][1] < errs[0.1][0] / 100 and max(errs[0.1][2:]) < 1e-12, errs[0.1]


def test_richardson_depth_two_matches_running_update():
    rng = np.random.default_rng(3)
    for shape in [(2,), (3, 4, 4)]:
        a, b = rng.normal(size=shape), rng.normal(size=shape)
        assert np.array_equal(diffgeo._richardson([a, b]), _running_richardson([a, b]))
    P = np.array([[0.3, -0.2, 1.1], [-0.7, 0.4, 0.05]])
    step = np.array([1e-2, 2e-2, 5e-3])
    levels = [diffgeo._second_differences(diffgeo._stencil_values(_poly_vector, P, h), h)
              for h in diffgeo._halvings(step, 2)]
    assert np.array_equal(diffgeo._metric_jets(_poly_vector, P, FDConfig(), step)[2], _running_richardson(levels))


def test_per_sample_steps_match_single_sample_calls():
    """(m, d) steps: one batched call equals the stacked one-sample calls at each sample's own steps, bit for bit."""
    rng = np.random.default_rng(17)
    for field, d in ((_poly_vector, 3), (_sin_exp, 2)):
        P = rng.uniform(-1.0, 1.0, size=(5, d))
        steps = rng.uniform(2e-3, 4e-2, size=(5, d))
        calls = [lambda Q, h: diffgeo._metric_jets(field, Q, CFG, h)[2],
                 lambda Q, h: diffgeo._jacobian_of_field(field, Q, CFG, h),
                 lambda Q, h: _flat_jets(diffgeo._metric_jets(field, Q, CFG, h))]
        for call in calls:
            single = np.stack([call(p[None, :], h)[0] for p, h in zip(P, steps)])
            assert np.array_equal(call(P, steps), single)
    # a positive 1 x 1 complex Hessian field in one complex dimension
    H = lambda Q: (np.exp(_sin_exp(Q)) + 0j)[:, None, None]
    P, steps = rng.uniform(-1.0, 1.0, size=(4, 2)), rng.uniform(2e-3, 4e-2, size=(4, 2))
    single = np.stack([diffgeo.ricci_form_of_metric(H, p[None, :], CFG, h)[0] for p, h in zip(P, steps)])
    assert np.array_equal(diffgeo.ricci_form_of_metric(H, P, CFG, steps), single)
    assert len({float(np.max(np.abs(r))) for r in single}) == len(single)      # distinct samples, distinct forms
