"""Numerical Mahler measures of three two-variable polynomial families.

The library evaluates logarithmic Mahler measures by two independent methods
(direct torus quadrature and the Jensen reduction), provides fast paths for
the hyperelliptic family ``Q_k``, the elliptic family ``P_lam`` and the
four-term family ``R_lam``, and verifies the linear relations between them
together with all supporting closed forms (elliptic integrals, Gauss
hypergeometric transformations, branch and singularity claims).
"""

from .config import DEFAULTS, show_config
from .identities import VerificationReport, run_suite
from .measures import (
    MeasureValue,
    mahler_jensen_2var,
    mahler_torus,
    p_measure,
    q_measure,
    r_measure,
)
from .poly import (
    FamilySpec,
    LaurentPolynomial,
    make_family,
    poly_from_text,
    verify_substitution,
)
from .quadrature import NumericalError, tanh_sinh
from .roots import batch_roots, quadratic_roots
from .specfun import (
    UnsupportedRegimeError,
    agm,
    cubic_singularities,
    dp_dlambda,
    dq_dlambda_closed,
    dr_dlambda,
    gauss_2f1_agm,
    gauss_2f1_series,
)

__version__ = "0.1.0"
