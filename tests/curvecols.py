"""Test-side converter between curve columns held as coefficient arrays
(c_0, ..., c_D) and the same columns as n polynomials in t, the form the
tests use as their oracle."""
from __future__ import annotations

from spflag.abnormal import column
from spflag.exact import MultiPoly

TVAR = ("t",)


def as_polys(col, n):
    """The n entries of an array column, as MultiPoly in t."""
    return tuple(MultiPoly(TVAR, {(q,): c[i] for q, c in enumerate(col)}) for i in range(n))


def as_array(entries):
    """The array column whose entries are the given polynomials in t."""
    return column([[p.coefficient_of((q,)) for q in range(p.degree() + 1)] for p in entries])
