"""Test-side adapter from the sparse {col: Fraction} kernel vectors of
kernel_basis and Echelon.kernel() to dense tuples of Fractions over every
column, the form the tests' oracles compare against."""
from __future__ import annotations

from fractions import Fraction

from spflag.exact import kernel_basis


def densify(vectors, ncols):
    """Each sparse {col: value} vector as a tuple of ncols Fractions."""
    return tuple(tuple(v.get(j, Fraction(0)) for j in range(ncols)) for v in vectors)


def dense_kernel(a, ncols=None):
    """kernel_basis(a, ncols) with each vector written out dense."""
    basis = kernel_basis(a, ncols)
    if ncols is None:
        ncols = len(a[0]) if a else 0
    return densify(basis, ncols)
