"""Finite-difference tensor calculus: exactness, convergence, curvature probes."""
import numpy as np
import pytest

from flagcones import diffgeo
from flagcones.charts import make_spec
from flagcones.roots import ConfigurationError
from flagcones.diffgeo import (FDConfig, apply_J, complex_structure, d_oneform,
                               d_scalar, d_twoform, dc_scalar, hessian_batch,
                               i_del_delbar, kahler_form, metric_batch,
                               metric_from_form, nabla_oneform, ricci,
                               ricci_form, wedge_one_two, weyl_connection,
                               weyl_ricci, christoffel, grad_batch)

CFG = FDConfig()


def test_d_scalar_linear_exact():
    F = lambda P: 3.0 * P[..., 0] - 2.0 * P[..., 1] + 0.5 * P[..., 2] + 7.0
    g = d_scalar(F, np.array([0.3, -0.2, 1.0, 0.5]), CFG)
    assert np.allclose(g, [3.0, -2.0, 0.5, 0.0], atol=1e-12)


def test_closure_d_of_d():
    """d(dF) vanishes for the catalog log-potentials."""
    spec = make_spec("gr24")
    logF = spec.log_field()
    p = np.array([0.3, -0.2, 0.1, 0.4, -0.3, 0.2, 0.5, 0.1, 1.1, 0.4])
    omega = lambda P: grad_batch(logF, P, CFG)
    ddF = d_oneform(omega, p, CFG)
    assert np.max(np.abs(ddF)) < 1e-8


def test_fd_convergence_order():
    """With one Richardson level the error contracts at least 4x per halving."""
    F = lambda P: np.sin(P[..., 0]) * np.exp(0.5 * P[..., 1]) + P[..., 0] ** 3
    p = np.array([0.4, -0.7])
    exact = np.array([np.cos(0.4) * np.exp(-0.35) + 3 * 0.16, 0.5 * np.sin(0.4) * np.exp(-0.35)])
    errs = []
    for h in (2e-2, 1e-2, 5e-3):
        g = grad_batch(F, p[None, :], FDConfig(richardson=2), step=h)[0]
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
        H = hessian_batch(F, p[None, :], FDConfig(richardson=2), step=h)[0]
        errs.append(np.max(np.abs(H - exact)))
    assert errs[0] / errs[1] >= 4.0


def test_complex_structure_squares_to_minus_one():
    J = complex_structure(8)
    assert np.allclose(J @ J, -np.eye(8))
    v = np.arange(4.0)
    assert np.allclose(apply_J(apply_J(v)), -v)


def test_dc_of_fiber_modulus():
    """d^c |w|^2 at w = 1 is twice the angular covector."""
    F = lambda P: P[..., 0] ** 2 + P[..., 1] ** 2
    dc = dc_scalar(F, np.array([1.0, 0.0]), CFG)
    assert np.allclose(dc, [0.0, 2.0], atol=1e-10)
    # at general w it equals 2(x dy - y dx)
    p = np.array([0.8, -0.5])
    dc = dc_scalar(F, p, CFG)
    assert np.allclose(dc, [2 * p[1] * -1, 2 * p[0]], atol=1e-10)


def test_ddc_is_type_one_one():
    """d d^c F is J-invariant: Omega(JX, JY) = Omega(X, Y)."""
    spec = make_spec("conifold")
    F = spec.field()
    p = np.array([0.3, -0.2, 0.4, 0.1, 1.1, 0.2])
    om = kahler_form(F, p, CFG)
    J = complex_structure(6)
    assert np.max(np.abs(J.T @ om @ J - om)) < 1e-9


def test_flat_form_and_metric():
    F = lambda P: P[..., 0] ** 2 + P[..., 1] ** 2
    om = kahler_form(F, np.array([0.7, -0.3]), CFG)
    assert np.allclose(om, [[0, 1], [-1, 0]], atol=1e-11)
    assert np.allclose(metric_from_form(om), np.eye(2), atol=1e-11)


def test_kahler_form_closed_and_positive():
    spec = make_spec("cp:2")
    F = spec.field()
    p = np.array([0.5, -0.2, 0.1, 0.3, 1.2, -0.4])
    Om = lambda P: diffgeo.kahler_form_batch(F, P, CFG)
    dOm = d_twoform(Om, p, CFG)
    assert np.max(np.abs(dOm)) < 1e-7
    g = metric_from_form(Om(p[None, :])[0])
    assert np.min(np.linalg.eigvalsh((g + g.T) / 2)) > 0


def test_christoffel_flat_zero():
    gfield = lambda P: np.broadcast_to(np.eye(4), (len(np.atleast_2d(P)), 4, 4)).copy()
    G = christoffel(gfield, np.array([0.3, 0.1, -0.2, 0.5]), CFG)
    assert np.max(np.abs(G)) < 1e-12


def test_metric_compatibility():
    """nabla g = 0 for the Levi-Civita symbols of a curved probe metric."""
    spec = make_spec("hopf:cp1")
    F = spec.field()
    gfield = lambda P: metric_batch(F, P, CFG)
    p = np.array([0.4, -0.1, 1.05, 0.3])
    G = christoffel(gfield, p, CFG)
    dg = diffgeo._jacobian_of_field(gfield, p[None, :], CFG, CFG.hessian_step)[0]
    g = gfield(p[None, :])[0]
    cov = dg - np.einsum("kai,kj->aij", G, g) - np.einsum("kaj,ik->aij", G, g)
    assert np.max(np.abs(cov)) < 1e-6


def test_nabla_antisymmetric_part_is_half_dtheta():
    """For any covector field the antisymmetrised nabla is d/2."""
    spec = make_spec("hopf:cp1")
    F = spec.field()
    gfield = lambda P: metric_batch(F, P, CFG)
    theta = lambda P: np.stack([np.sin(P[..., 0]), P[..., 1] ** 2, P[..., 2] * P[..., 0], P[..., 3]], axis=-1)
    p = np.array([0.4, -0.1, 1.05, 0.3])
    nab = nabla_oneform(theta, gfield, p, CFG)
    dth = d_oneform(theta, p, CFG)
    assert np.max(np.abs((nab - nab.T) - 0.5 * (dth - dth.T))) < 1e-6


def test_ricci_flat_metric_zero():
    gfield = lambda P: np.broadcast_to(np.eye(4), (len(np.atleast_2d(P)), 4, 4)).copy()
    R = ricci(gfield, np.array([0.3, 0.1, -0.2, 0.5]), CFG)
    assert np.max(np.abs(R)) < 1e-12


def test_ricci_fubini_study():
    """Round metric from i ddbar log h_delta: Ric = 2 g."""
    F = lambda P: 2.0 * np.log(1.0 + P[..., 0] ** 2 + P[..., 1] ** 2)
    gfield = lambda P: metric_batch(F, P, CFG)
    for p in [np.array([0.3, -0.4]), np.array([0.9, 0.6])]:
        R = ricci(gfield, p, CFG)
        g = gfield(p[None, :])[0]
        assert np.max(np.abs(R - 2 * g)) < 1e-5
        assert np.max(np.abs(R - R.T)) < 1e-7


def test_ricci_form_flat_pullback():
    spec = make_spec("hopf:cp1")
    F = spec.field()
    p = np.array([0.3, -0.2, 1.1, 0.4])
    rho = ricci_form(F, p, CFG)
    assert np.max(np.abs(rho)) < 1e-6


def test_ricci_form_matches_ricci_tensor_on_kahler_probe():
    """rho(X, JY) agrees with the Riemannian Ricci on a Kahler metric."""
    F = lambda P: 2.0 * np.log(1.0 + P[..., 0] ** 2 + P[..., 1] ** 2)
    p = np.array([0.3, -0.4])
    rho = ricci_form(F, p, CFG)
    gfield = lambda P: metric_batch(F, P, CFG)
    R = ricci(gfield, p, CFG)
    J = complex_structure(2)
    assert np.max(np.abs(rho @ J - R)) < 1e-4


def test_weyl_connection_zero_theta_is_levi_civita():
    spec = make_spec("hopf:cp1")
    F = spec.field()
    gfield = lambda P: metric_batch(F, P, CFG)
    zero = lambda P: np.zeros((len(np.atleast_2d(P)), 4))
    p = np.array([0.4, -0.1, 1.05, 0.3])
    GD = weyl_connection(gfield, zero, p, CFG)
    G = christoffel(gfield, p, CFG)
    assert np.max(np.abs(GD - G)) < 1e-12


def test_weyl_ricci_paths_agree_off_shell():
    """Curvature and identity paths agree for a non-parallel exact Lee form."""
    spec = make_spec("hopf:cp1")
    F = spec.field()
    logF = spec.log_field()
    gfield = lambda P: metric_batch(F, P, CFG)        # unrescaled cone metric
    theta = lambda P: -grad_batch(logF, P, CFG)
    p = np.array([0.4, -0.1, 1.05, 0.3])
    rc, rf, _ = weyl_ricci(gfield, theta, p, CFG)
    scale = max(np.max(np.abs(rc)), 1.0)
    assert np.max(np.abs(rc)) > 0.1          # genuinely off-shell probe
    assert np.max(np.abs(rc - rf)) / scale < 1e-4


def test_weyl_higgs_identity():
    spec = make_spec("hopf:cp1")
    F = spec.field()
    logF = spec.log_field()

    def gfield(P):
        return metric_batch(F, P, CFG) / np.asarray(F(P))[:, None, None]

    theta = lambda P: -grad_batch(logF, P, CFG)
    p = np.array([0.4, -0.1, 1.05, 0.3])
    GD_field = lambda P: diffgeo.weyl_christoffel_batch(gfield, theta, P, CFG)
    dg = diffgeo._jacobian_of_field(gfield, p[None, :], CFG, CFG.jet_step)[0]
    GD = GD_field(p[None, :])[0]
    g = gfield(p[None, :])[0]
    th = theta(p[None, :])[0]
    cov = dg - np.einsum("kai,kj->aij", GD, g) - np.einsum("kaj,ik->aij", GD, g)
    assert np.max(np.abs(cov - np.einsum("a,ij->aij", th, g))) < 1e-5


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
    _, g_tilde, theta, Omega, cone_metric = conformal_fields(spec, CFG)
    with pytest.raises(diffgeo.ChartDegeneracyError):
        g_tilde(np.array([[0.1, 0.0, 1e-9, 0.0]]))
    good = np.array([[0.1, 0.0, 1.0, 0.3], [0.2, -0.1, 0.0, 0.8]])
    bad = np.array([good[0], [0.2, -0.1, 1e-9, -1e-9], good[1]])   # only the second point
    for field in (g_tilde, theta, Omega, cone_metric):
        assert np.all(np.isfinite(field(good)))
        with pytest.raises(diffgeo.ChartDegeneracyError):
            field(bad)


def test_fd_audit_on_catalog_potentials():
    """First-derivative error contracts at least 4x per halving on every case."""
    for case in ["hopf:cp1", "gr24", "wallach", "quadric:6", "conifold"]:
        spec = make_spec(case)
        logF = spec.log_field()
        nz = spec.chart.n_z
        rng = np.random.default_rng(23)
        p = np.concatenate([rng.uniform(-0.7, 0.7, size=2 * nz), [1.1, 0.4]])
        ref = grad_batch(logF, p[None, :], FDConfig(richardson=3), step=1e-3)[0]
        errs = [np.max(np.abs(grad_batch(logF, p[None, :], FDConfig(richardson=2), step=h)[0] - ref))
                for h in (8e-2, 4e-2)]
        assert errs[0] / max(errs[1], 1e-15) >= 4.0, case


@pytest.mark.parametrize("kwargs", [{"richardson": 0}, {"richardson": -1}, {"base_step": 0.0},
                                    {"jet_step": -1e-2}, {"w_floor": 0.0}])
def test_fd_config_rejects_invalid_values(kwargs):
    with pytest.raises(ConfigurationError, match=next(iter(kwargs))):
        FDConfig(**kwargs)


def _poly(P):
    x = P.T
    return x[0] ** 3 * x[1] - 2.0 * x[1] * x[2] ** 2 + x[0] * x[2] + 0.5 * x[1] ** 4


def _poly_vector(P):
    x = P.T
    return np.stack([x[0] * x[1], x[2] ** 3 - x[0], x[1] ** 2 * x[2]], axis=-1)


def test_multi_point_batches_match_single_points():
    """With array steps an m-point call equals m one-point calls row by row."""
    P = np.array([[0.3, -0.2, 1.1], [-0.7, 0.4, 0.05], [1.8, 2.5, -0.9], [0.0, 0.6, 0.2]])
    step = np.array([1e-2, 2e-2, 5e-3])
    calls = [lambda Q: grad_batch(_poly, Q, CFG, step=step),
             lambda Q: hessian_batch(_poly, Q, CFG, step=step),
             lambda Q: diffgeo._jacobian_of_field(_poly_vector, Q, CFG, step)]
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
    H = hessian_batch(field, P, CFG)
    assert H.shape == (2, d, d) + shape
    assert np.allclose(H, expected, atol=1e-8)
    p = P[0]
    g, dg, ddg = diffgeo._metric_jets(field, p, CFG)
    assert np.array_equal(g, field(p[None, :])[0])
    assert ddg.shape == (d, d) + shape
    assert np.allclose(ddg, expected, atol=1e-8)
    assert np.allclose(dg, np.einsum("ijab,b->aij", A, p) + np.moveaxis(B, -1, 0), atol=1e-8)


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
        H = hessian_batch(field, P, FDConfig(richardson=1), step=step)
        for row, p in zip(H, P):
            assert np.array_equal(row, _loop_hessian(field, p, step))
