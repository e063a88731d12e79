"""Exceptionality of covers of the projective line over finite fields.

A library plus command-line toolkit that builds fiber-product
certificates for rational self-maps of the line, audits injectivity and
surjectivity of the induced maps on rational points, evaluates the
associated group-theoretic criteria and numeric thresholds exactly, and
runs splitting-type censuses against cycle-type predictions.
"""

__version__ = "0.1.0"

from .gf import Field, Fel, make_field, embed, extension, nth_power_solution_count

__all__ = [
    "Field",
    "Fel",
    "make_field",
    "embed",
    "extension",
    "nth_power_solution_count",
    "__version__",
]
