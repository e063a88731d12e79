"""Toolkit-wide caps.

The paper's thresholds name explicit field sizes, and the caps keep
every field construction, bivariate factoring and group closure within
them.  Those three caps are fixed.  Only the enumeration cap, the
largest field an exhaustive point sweep walks, trades run time for
reach on one request, so it alone can be set: by the CLI's ``--cap``
or the ``cap=`` argument of the audits, the census and
``decide_exceptional``.
"""

# Largest field order make_field will construct for callers.
FIELD_CAP = 2**31
# Default largest field order any exhaustive point sweep will walk.
ENUMERATION_CAP = 2**22
# Per-variable degree cap for bivariate factorization.
BIVARIATE_DEGREE_CAP = 16
# Largest permutation group the closure builder will materialize.
GROUP_CAP = 100_000


def over_cap(q, m, cap):
    """q^m as text when it exceeds ``cap``, else None; q >= 2, m >= 1.

    Once m >= cap.bit_length(), q^m >= 2^m > cap, so the power is not
    computed and the text leaves it unexpanded, as ``13^4000``."""
    if m >= cap.bit_length():
        return f"{q}^{m}"
    power = q**m
    return str(power) if power > cap else None
