"""finlap: Finsler-Laplace operators on surfaces.

Canonical angle/volume measures from the Hilbert contact form, the
fiber-averaged Laplace operator with its symbol and drift, closed-form
Randers symbols with an inverse design map, and explicit Katok-Ziller
operators and spectra on the torus and the sphere.
"""

from .charts import ChartPoint, PLANE, SPHERE, TORUS, plane_point, sphere_point, torus_point
from .errors import (ConfigError, ConstructionError, DegenerateContactError,
                     DomainError, FinlapError, InvalidMetricError, NumericError)
from .fields import (CallableField, ConstantField, SeparableTrigField, SumField,
                     field_gradient, field_gradients, field_hessian, field_hessians,
                     field_values)
from .hilbert import (FiberPoint, ReebVector, Trajectory, contact_orientation,
                      geodesic_integrate, hilbert_density, reeb_field,
                      reeb_profile)
from .katok_ziller import (SphereHarmonicField, SphereOperator, galerkin_matrices,
                           harmonic_action, legendre_block,
                           perturbation_eigenvalue, sphere_closed_form,
                           torus_closed_form, torus_eigenvalue, torus_operator)
from .laplace import (OperatorCoefficients, SymmetryReport, divergence_form_drift,
                      laplacian_apply, operator_coefficients,
                      weighted_symmetry_residual)
from .measures import (FiberQuadrature, dual_norm_sampled, fiber_quadrature,
                       fiber_quadrature_adaptive, holmes_thompson_density,
                       sphere_total_volume, volume_density,
                       volume_density_adaptive)
from .metrics import (ConformalMetric, CustomMetric, FinslerMetric2D,
                      KatokZillerMetric, RandersMetric, RiemannianMetric,
                      convexity_margin, custom, dual_norm, euclidean, eval_f,
                      indicatrix_point, kz_sphere, kz_torus, legendre_forward,
                      riemannian, scale_conformal, vertical_derivative)
from .randers import (InverseDesign, dual_symbol, inverse_design, randers_data,
                      solve_b, symbol_closed_form, symbol_oracle)
from .spectral import (BaseQuadrature, SphereHarmonicBasis, SpectralProblem,
                       SpectrumResult, TorusGridBasis, assemble_eigenproblem,
                       energy, jacobi_eigh, omega_mean, omega_norm_sq, rayleigh,
                       solve_eigen, sphere_base, sphere_spectrum, torus_base,
                       torus_spectrum)

__version__ = "0.1.0"
