"""Special cone potentials: the smoothed conifold and the resolved surface.

The deformation of the conifold solves a radial Monge-Ampere reduction;
its closed-form radial derivative satisfies the ODE to machine precision
and limits to eps^(-2/3) at the apex.  On the level-two chart of the
projective line the smoothed potential (1/2) log K + Upsilon(K) is the
pullback of the classical ALE metric and is Ricci-flat.
"""
import numpy as np

from flagcones import (eguchi_hanson_Upsilon, make_spec, singular_cone_potential,
                       stenzel_fprime, stenzel_ode_residual)
from flagcones.diffgeo import FDConfig, ricci_form_of_metric, scaled_steps
from flagcones.hvcone import eguchi_hanson_hessian_field

print("== radial solution on the deformed cone ==")
for eps in (0.5, 1.0, 2.0):
    res = max(abs(stenzel_ode_residual(eps, float(t))) for t in np.linspace(0.1, 3.0, 16))
    print(f"eps = {eps}: apex value {stenzel_fprime(eps, 0.0):.6f} "
          f"(eps^(-2/3) = {eps ** (-2/3):.6f}), max ODE residual {res:.1e}")

W = np.array([[1.0, 0.3], [0.3, 0.09]])   # rank one
print("singular cone potential at a rank-one matrix:", singular_cone_potential(W))

print()
print("== smoothed potential on the level-two chart ==")
print("Upsilon(0) =", eguchi_hanson_Upsilon(0.0))
spec = make_spec("cp:1", ell=2)
H = eguchi_hanson_hessian_field(spec)      # the closed-form complex Hessian ddbar F
cfg = FDConfig()
rng = np.random.default_rng(3)
P = np.array([np.concatenate([rng.uniform(-0.9, 0.9, size=2), [rng.uniform(0.6, 1.4), 0.2]]) for _ in range(5)])
rho = ricci_form_of_metric(H, P, cfg, scaled_steps(P, cfg.hessian_step))
# the entries of i ddbar F are twice the real and imaginary parts of ddbar F, up to sign
worst = float(np.max(np.max(np.abs(rho), axis=(1, 2)) / (2.0 * np.max(np.abs(H(P).view(float)), axis=(1, 2)))))
print("max relative Ricci residual over samples:", f"{worst:.2e}")
