"""Kahler potentials on elliptic bundles over flag manifolds.

A numpy library that constructs the representation-theoretic cone
potentials of negative line bundles over classical flag manifolds,
numerically certifies the locally conformally Kahler, Vaisman,
Kahler-Einstein, Ricci-flat and Einstein-Weyl structures they induce, and
realises the associated highest-weight cone embeddings into diagonal Hopf
quotients.
"""

__version__ = "0.1.0"

from .roots import (ConfigurationError, FlagDescriptor, RootSystem, Weight,
                    build_root_system, casimir_eigenvalue, flag,
                    killing_dual_pairing, mu_of_bundle)
from .reps import (RepSpace, act, casimir_matrix, outer_tensor, sl2_module,
                   so_vector_module, wedge_module)
from .charts import (Chart, DomainError, PotentialSpec, canonical_exponents,
                     dhomothetic_constant, generic_h, log_potential_eval,
                     make_spec, potential_eval, resolve_case, ricci_flat_exponent)
from .diffgeo import FDConfig, ChartDegeneracyError
from .hvcone import (GammaGroup, HopfPoint, casimir_quadric_residual,
                     determinant_residual, eguchi_hanson_Upsilon,
                     gamma_canonicalize, kodaira_embedding, plucker_residual,
                     quadric_residual, remmert, singular_cone_potential,
                     stenzel_fprime, stenzel_ode_residual)
from .verify import (SampleSet, VerificationReport, check_cone_ricci_flat,
                     check_einstein_weyl, check_embedding_consistency,
                     check_kahler_einstein_base, check_lck, check_vaisman,
                     lck_data, run_suite, sample_points)
