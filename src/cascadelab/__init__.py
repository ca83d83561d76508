"""Simulation and numerical verification of two-dimensional signed
multiplicative cascade processes: b-adic coding, weight laws, seeded
realizations, closed-form dimension predictions, and empirical
estimators."""

from . import cascade, estimate, modelio, predict, weights, words
from .cascade import CascadeRealization, build
from .errors import (
    AssumptionError,
    CascadeLabError,
    ConfigError,
    DegenerateRangeError,
    DivergenceError,
    NoRootError,
    NumericError,
    ResourceError,
    ZeroOscillationError,
)
from .estimate import DimensionEstimate, TestSet, cantor_set
from .weights import (
    AssumptionReport,
    DiscreteTable,
    Fractional,
    LognormalSigned,
    Mixed,
    SignJoint,
    WeightModel,
    check_assumptions,
)
from .words import Word

__version__ = "0.1.0"
