"""Distributed matrix multiplication over small finite fields.

Multivariate evaluation codes let a master node farm A.B out to up to q^l
workers over GF(q) — including GF(2), where classical one-variable schemes
cannot operate — and recover the exact product from any k+1 responses.
"""

from . import codec, constructions, exponents, field, simulator, tables
from .codec import MatrixFq, matmul
from .constructions import (
    MatdotSolution,
    PolySolution,
    better_box,
    box_matdot,
    box_poly,
    corner_degree,
    d_size,
    db_size,
    expand_db,
    half_hyperbolic,
    search_best_d,
    sep_vars,
    validate_poly,
)
from .exponents import ExponentSet, FootprintValue, hyp_set, hyp_size, hyp2_size, xi_bound
from .field import FieldSpec
from .simulator import SimConfig, SimReport, StragglerModel

__version__ = "0.1.0"

__all__ = [
    "MatrixFq", "matmul",
    "MatdotSolution", "PolySolution",
    "better_box", "box_matdot", "box_poly", "corner_degree",
    "d_size", "db_size", "expand_db", "half_hyperbolic",
    "search_best_d", "sep_vars", "validate_poly",
    "ExponentSet", "FootprintValue", "hyp_set", "hyp_size", "hyp2_size", "xi_bound",
    "FieldSpec",
    "SimConfig", "SimReport", "StragglerModel",
    "codec", "constructions", "exponents", "field", "simulator", "tables",
]
