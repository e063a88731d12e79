"""Toolkit-wide configuration: caps and the factorization seed.

Every operation that enumerates points, builds fields, or splits
polynomials with randomized steps reads its limits and seed from a
Config value.  The default instance keeps runs reproducible; callers
needing different caps pass their own frozen copy.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Config:
    # Seed for the randomized equal-degree splitting steps.  Fixed by
    # default so factor certificates are byte-stable across runs.
    seed: int = 1729
    # Largest field order make_field will construct for callers.
    field_cap: int = 2**31
    # Largest field order any exhaustive point sweep will walk.
    enumeration_cap: int = 2**22
    # Per-variable degree cap for bivariate factorization.
    bivariate_degree_cap: int = 16
    # Largest permutation group the closure builder will materialize.
    group_cap: int = 100_000


DEFAULT_CONFIG = Config()
