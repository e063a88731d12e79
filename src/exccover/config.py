"""Toolkit-wide configuration: the caps.

Every operation that enumerates points, builds fields, factors
bivariate polynomials or closes permutation groups reads its limits
from a Config value.  Callers needing different caps pass their own
frozen copy.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Config:
    # Largest field order make_field will construct for callers.
    field_cap: int = 2**31
    # Largest field order any exhaustive point sweep will walk.
    enumeration_cap: int = 2**22
    # Per-variable degree cap for bivariate factorization.
    bivariate_degree_cap: int = 16
    # Largest permutation group the closure builder will materialize.
    group_cap: int = 100_000


DEFAULT_CONFIG = Config()
