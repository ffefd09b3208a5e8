"""Test-side symbol universes shared by several test modules."""
from __future__ import annotations

import itertools
from fractions import Fraction

from spflag.symbols import OneRow, TwoRow, make_symbol, render_symbol


def formula_universe():
    """The 771 symbols on which the closed dimension formulas are checked
    against linear algebra: one or two components of total model space
    dimension at most 14, keyed by rendered name."""
    grid = [TwoRow(Fraction(s2, 2), l)
            for s2 in range(0, 9) for l in range(0, s2 + 1)]
    ones = [OneRow(m2) for m2 in range(1, 14, 2)]
    universe = {}

    def keep(components):
        sym = make_symbol(components)
        universe.setdefault(render_symbol(sym), sym)

    for c in grid:
        keep([c])
    for o in ones:
        keep([o])
    for a, b in itertools.combinations_with_replacement(grid, 2):
        if 2 * (a.l + 1) + 2 * (b.l + 1) <= 14:
            keep([a, b])
    for c in grid:
        for o in ones:
            if 2 * (c.l + 1) + o.m2 + 1 <= 14:
                keep([c, o])
    return universe
