"""Numerical verification lab for para-Kahler surfaces.

Builds the local normal forms of metrics with a second compatible
metric sharing the same T-planar curves, and checks every identity of
that geometry (structure axioms, the Benenti equation and its
symplectic reformulation, connection and Ricci comparisons, canonical
Killing fields, Einstein families, geodesic planarity) numerically at
sample points via exact truncated-Taylor differentiation.
"""

from .fields import Chart, ScalarField, TensorField, VectorField
from .jets import Jet, JetDomainError, seed_variable
from .parakahler import ParaKahlerTriple, validate
from .report import CheckResult, VerificationReport

__version__ = "0.1.0"

__all__ = [
    "Chart",
    "ScalarField",
    "TensorField",
    "VectorField",
    "Jet",
    "JetDomainError",
    "seed_variable",
    "ParaKahlerTriple",
    "validate",
    "CheckResult",
    "VerificationReport",
    "__version__",
]
