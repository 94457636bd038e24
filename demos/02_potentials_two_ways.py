"""Every catalog potential two ways: direct evaluation vs module action.

The direct forms (leading Gram minors of big-cell frames, the isotropic
quadric section, the trace form of the Segre product) must agree with the
norm of the big-cell unipotent action on the highest weight vector,
exactly on rational input.
"""
from fractions import Fraction as Q

import numpy as np

from flagcones import generic_h, make_spec, potential_eval, resolve_case
from flagcones.exact import QC

rng = np.random.default_rng(0)

for case in ["cp:2", "gr24", "wallach", "quadric:6", "conifold"]:
    chart = resolve_case(case)
    z = rng.normal(size=chart.n_z) + 1j * rng.normal(size=chart.n_z)
    closed = np.ravel(np.asarray(chart.h_closed(z)))
    modular = np.ravel(generic_h(chart, z))
    print(f"{case:10s} closed {np.round(closed, 10)}  module path {np.round(modular, 10)}  "
          f"match {np.allclose(closed, modular)}")

print()
print("== exact rational agreement on the Klein quadric ==")
gr = resolve_case("gr24")
z = (QC(Q(1, 2)), QC(0, Q(1, 3)), QC(Q(-2, 7)), QC(1))
print("closed:", gr.h_closed_exact(z)[0])
print("module:", gr.generic_h(0, z, exact=True))

print()
print("== potentials on the bundle total space ==")
spec = make_spec("hopf:cp1")
print("K(0, 1)               =", potential_eval(spec, [0], 1.0))
print("K(1, 1)               =", potential_eval(spec, [1], 1.0))
spec23 = make_spec("conifold", b=Q(2, 3))
print("conifold K^(2/3)(1,1,w=1) =", potential_eval(spec23, [1, 1], 1.0), " (4^(2/3))")
