"""Numerical independence certificates for finite sets of time-frequency translates.

The package has five layers: exact operator algebra on function evaluators
(`tfops`), built-in function families with analytic envelopes (`funcs`),
sufficient-condition checkers producing machine-readable certificates
(`certify`), an independent numerical oracle (`oracle`), and an empirical
window-design search (`windowsearch`). The `tfcert` console script fronts
all of them.
"""

from .errors import (InputError, NearOrthogonalError, NotCertifiableError,
                     NumericalRefusal, SingularityHitError, TFCertError)
from .tfops import (FunctionEvaluator, GridSpec, PointSet, chirp_mul, dilate,
                    fourier, inner_product, l2_norm, modulate, report_json,
                    stft, stft_grid, stft_points, tf_shift, translate)
from .funcs import (FamilySpec, make_edgar_rosenblatt, make_example1,
                    make_example2, make_gaussian, make_singular_cos)
from .certify import (Certificate, SupEstimate, check_corollary1,
                      check_corollary2, check_corollary3, check_lemma1,
                      check_theorem1, check_theorem2, check_theorem3,
                      decay_radius, dilation_threshold,
                      dilation_threshold_freq, stretch, sup_outside)
from .oracle import (IndependenceReport, ResidualReport, collocation_rank,
                     default_collocation_points, dependence_residual_er,
                     er_lattice, gram_matrix, metaplectic_residual,
                     stft_identity_residual)
from .windowsearch import (SearchResult, WindowParams, realize_window,
                           search, tail_ratio)

__version__ = "0.1.0"

__all__ = [
    "Certificate", "FamilySpec", "FunctionEvaluator", "GridSpec",
    "IndependenceReport", "InputError", "NearOrthogonalError",
    "NotCertifiableError", "NumericalRefusal", "PointSet", "ResidualReport",
    "SearchResult", "SingularityHitError", "SupEstimate", "TFCertError",
    "WindowParams", "check_corollary1",
    "check_corollary2", "check_corollary3", "check_lemma1", "check_theorem1",
    "check_theorem2", "check_theorem3", "chirp_mul", "collocation_rank",
    "decay_radius", "default_collocation_points", "dependence_residual_er",
    "dilate", "dilation_threshold", "dilation_threshold_freq", "er_lattice",
    "fourier", "gram_matrix", "inner_product", "l2_norm",
    "make_edgar_rosenblatt", "make_example1", "make_example2",
    "make_gaussian", "make_singular_cos", "metaplectic_residual", "modulate",
    "realize_window", "report_json", "search", "stft", "stft_grid",
    "stft_identity_residual", "stft_points", "stretch", "sup_outside",
    "tail_ratio", "tf_shift", "translate",
]
