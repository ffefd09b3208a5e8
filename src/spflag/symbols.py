"""Flag symbols: mirror-paired and centered rows of weighted boxes.

A symbol is a multiset of components.  A TwoRow component D(s,l) contributes a
mirror pair of rows: box weights s, s-1, ..., s-l in one row and the negatives
in the other.  A OneRow component R(m) contributes a single centered row with
box weights m, m-1, ..., -m for half-odd m.  Each symbol carries a canonical
graded symplectic model space with a weight-lowering shift map.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ConstraintError, SymbolSyntaxError, UnsupportedRank
from .exact import frac

HALF = Fraction(1, 2)


@dataclass(frozen=True, order=True)
class TwoRow:
    s: Fraction  # top weight of the upper row
    l: int       # number of unit steps in each row (row length l+1)


@dataclass(frozen=True, order=True)
class OneRow:
    m2: int      # twice the top weight; odd and positive


@dataclass(frozen=True)
class FlagSymbol:
    components: tuple


def make_symbol(components):
    """Validate, normalize (upper row on top), sort, and freeze a symbol."""
    two = []
    one = []
    for c in components:
        if isinstance(c, TwoRow):
            s = frac(c.s)
            if s.denominator not in (1, 2):
                raise ConstraintError(f"row top {s} is neither integer nor half-integer")
            if c.l < 0:
                raise ConstraintError(f"negative row length parameter {c.l}")
            if s < 0:
                raise ConstraintError(f"negative row top {s}")
            s = max(s, c.l - s)  # the two rows are unordered; keep the higher top
            two.append(TwoRow(s, int(c.l)))
        elif isinstance(c, OneRow):
            if c.m2 <= 0 or c.m2 % 2 == 0:
                raise ConstraintError(f"centered row needs a positive half-odd top, got {Fraction(c.m2, 2)}")
            one.append(OneRow(int(c.m2)))
        else:
            raise TypeError(f"not a symbol component: {c!r}")
    if len(one) > 1:
        raise ConstraintError("at most one centered row component is allowed")
    two.sort(key=lambda c: (-c.s, -c.l))
    return FlagSymbol(tuple(two) + tuple(one))


# ---------------------------------------------------------------------------
# text grammar

# ASCII only: \d and int() would also take other scripts' decimal digits
_TERM = re.compile(r"^(?:(\d+)\s*\*\s*)?(D|R)\s*\((.*)\)$", re.ASCII)
_INTEGER = re.compile(r"-?\d+", re.ASCII)
_HALF_INTEGER = re.compile(r"(-?\d+)\s*/\s*2", re.ASCII)
_NATURAL = re.compile(r"\d+", re.ASCII)

# Largest total dim_x (multiplicity times boxes, summed over the terms) that
# parse_symbol accepts, checked before any component is expanded; also the
# largest 2n - 6 that enumerate_symbols accepts.
MAX_DIM_X = 1000


def _parse_number(tok, what):
    tok = tok.strip()
    if _INTEGER.fullmatch(tok):
        return Fraction(int(tok))
    m = _HALF_INTEGER.fullmatch(tok)
    if m:
        return Fraction(int(m.group(1)), 2)
    raise SymbolSyntaxError(f"cannot read {what} {tok!r} (expected an integer or p/2)")


def parse_symbol(text):
    """Parse expressions like 'D(2,3) + 2*D(1,2) + R(5/2)'."""
    if not isinstance(text, str) or not text.strip():
        raise SymbolSyntaxError("empty symbol expression")
    comps = []
    total = 0
    for raw in text.split("+"):
        term = raw.strip()
        m = _TERM.match(term)
        if not m:
            raise SymbolSyntaxError(f"bad term {term!r}")
        count = int(m.group(1)) if m.group(1) else 1
        if count < 1:
            raise SymbolSyntaxError(f"bad multiplicity in {term!r}")
        kind, args = m.group(2), [a for a in m.group(3).split(",")]
        if kind == "D":
            if len(args) != 2:
                raise SymbolSyntaxError(f"D takes two arguments, got {term!r}")
            s = _parse_number(args[0], "row top")
            ltok = args[1].strip()
            if not _NATURAL.fullmatch(ltok):
                raise SymbolSyntaxError(f"row length must be a nonnegative integer in {term!r}")
            comp, boxes = TwoRow(s, int(ltok)), 2 * (int(ltok) + 1)
        else:
            if len(args) != 1:
                raise SymbolSyntaxError(f"R takes one argument, got {term!r}")
            mval = _parse_number(args[0], "row top")
            if mval.denominator != 2:
                raise ConstraintError(f"centered row top must be half-odd, got {mval}")
            comp, boxes = OneRow(int(2 * mval)), abs(int(2 * mval)) + 1
        total += count * boxes
        if total > MAX_DIM_X:
            raise ConstraintError(f"symbol has dim_x above the limit of {MAX_DIM_X}")
        comps.extend([comp] * count)
    return make_symbol(comps)


def _num_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def render_symbol(sym: FlagSymbol) -> str:
    """Canonical text form; parse(render(sym)) == sym."""
    parts = []
    i = 0
    comps = sym.components
    while i < len(comps):
        c = comps[i]
        j = i
        while j < len(comps) and comps[j] == c:
            j += 1
        count = j - i
        if isinstance(c, TwoRow):
            body = f"D({_num_str(c.s)},{c.l})"
        else:
            body = f"R({c.m2}/2)"
        parts.append(body if count == 1 else f"{count}*{body}")
        i = j
    return "+".join(parts)


def symbol_to_json(sym: FlagSymbol) -> dict:
    comps = []
    for c in sym.components:
        if isinstance(c, TwoRow):
            s = int(c.s) if c.s.denominator == 1 else _num_str(c.s)
            comps.append({"type": "D", "s": s, "l": c.l})
        else:
            comps.append({"type": "R", "m2": c.m2})
    return {"schema": "sp-1", "components": comps}


def _json_number(x, what, integer=False):
    """A JSON int (not a bool) or an ASCII number string read by
    _parse_number; a float, a bool or other digits are refused."""
    text = str(x).strip()
    if type(x) is not int and not isinstance(x, str) or integer and not _INTEGER.fullmatch(text):
        raise SymbolSyntaxError(f"cannot read {what} {x!r}")
    return _parse_number(text, what)


def symbol_from_json(data) -> FlagSymbol:
    try:
        comps = []
        for c in data["components"]:
            if c["type"] == "D":
                comps.append(TwoRow(_json_number(c["s"], "row top"),
                                    int(_json_number(c["l"], "row length", True))))
            elif c["type"] == "R":
                comps.append(OneRow(int(_json_number(c["m2"], "twice the row top", True))))
            else:
                raise SymbolSyntaxError(f"unknown component type {c['type']!r}")
    except (KeyError, TypeError) as exc:
        raise SymbolSyntaxError(f"malformed symbol JSON: {exc}") from exc
    return make_symbol(comps)


# ---------------------------------------------------------------------------
# rows, weights, basic invariants

@dataclass(frozen=True)
class RowSpec:
    top: Fraction
    bottom: Fraction
    kind: str        # 'E' upper of a pair, 'F' lower of a pair, 'C' centered
    component: int   # index into symbol.components

    @property
    def length(self):
        return int(self.top - self.bottom) + 1


def rows_of(sym: FlagSymbol):
    rows = []
    for ci, c in enumerate(sym.components):
        if isinstance(c, TwoRow):
            rows.append(RowSpec(c.s, c.s - c.l, "E", ci))
            rows.append(RowSpec(c.l - c.s, -c.s, "F", ci))
        else:
            m = Fraction(c.m2, 2)
            rows.append(RowSpec(m, -m, "C", ci))
    return tuple(rows)


def dim_x(sym: FlagSymbol) -> int:
    return sum(r.length for r in rows_of(sym))


def index_parity(sym: FlagSymbol) -> str:
    """'integer', 'half_odd', or 'mixed' according to the box weights."""
    has_int = any(isinstance(c, TwoRow) and c.s.denominator == 1 for c in sym.components)
    has_half = any(
        isinstance(c, OneRow) or (isinstance(c, TwoRow) and c.s.denominator == 2)
        for c in sym.components
    )
    if has_int and has_half:
        return "mixed"
    return "half_odd" if has_half else "integer"


def box_weights(sym: FlagSymbol):
    out = []
    for r in rows_of(sym):
        w = r.top
        while w >= r.bottom:
            out.append(w)
            w -= 1
    return tuple(out)


def distribution_rank(sym: FlagSymbol) -> int:
    """Rank of the associated distribution: the extra direction plus all boxes
    of weight 0 or 1/2."""
    return 1 + sum(1 for w in box_weights(sym) if w == 0 or w == HALF)


# ---------------------------------------------------------------------------
# finiteness

def is_finite_type(sym: FlagSymbol) -> bool:
    """Diagram test: infinite iff some row lies entirely at or below another
    row's bottom, or the diagram is a single row of two boxes."""
    rows = rows_of(sym)
    for i, ri in enumerate(rows):
        for j, rj in enumerate(rows):
            if i != j and ri.top <= rj.bottom:
                return False
    if len(rows) == 1 and rows[0].length == 2:
        return False
    return True


def finite_type_by_rank(sym: FlagSymbol) -> bool:
    """Closed-form test for single-component symbols, by distribution rank."""
    if len(sym.components) != 1:
        raise UnsupportedRank("closed-form finiteness covers single components only")
    c = sym.components[0]
    if isinstance(c, OneRow):
        return Fraction(c.m2, 2) > HALF
    if distribution_rank(sym) != 3:
        raise UnsupportedRank("closed-form finiteness covers rank-2 and rank-3 distributions")
    return c.s < c.l <= 2 * c.s


# ---------------------------------------------------------------------------
# stabilization pads and enumeration

def modify_symbol(sym: FlagSymbol, pad_count: int, rank_parity: str, nu) -> FlagSymbol:
    """Append pad components: length-1 row pairs pinned at weight eps - nu.

    eps is 1 for odd rank_parity and 1/2 for even.  nu is the stabilization
    index supplied by the caller.  pad_count == 0 returns the symbol unchanged.
    """
    if rank_parity not in ("odd", "even"):
        raise ConstraintError(f"rank_parity must be 'odd' or 'even', got {rank_parity!r}")
    if pad_count < 0:
        raise ConstraintError("negative pad count")
    if pad_count == 0:
        return sym
    eps = Fraction(1) if rank_parity == "odd" else HALF
    top = eps - frac(nu)
    if top < 0:
        raise ConstraintError(f"pad weight {top} is negative; nu too large")
    return make_symbol(sym.components + (TwoRow(top, 0),) * pad_count)


def enumerate_symbols(rank: int, n: int):
    """All symbols of corank-1 distributions of the given rank on an
    n-dimensional space (so the model space has dimension 2n - 6), within
    the MAX_DIM_X budget."""
    if 2 * n - 6 > MAX_DIM_X:
        raise ConstraintError(f"n={n} gives dim_x {2 * n - 6}, above the limit of {MAX_DIM_X}")
    if rank == 2:
        if n < 4:
            raise ConstraintError("rank-2 enumeration needs n >= 4")
        m2 = 2 * n - 7
        return (make_symbol([OneRow(m2)]),)
    if rank == 3:
        if n < 5:
            raise ConstraintError("rank-3 enumeration needs n >= 5")
        l = n - 4
        out = []
        s = (l + 1) // 2
        while s <= l:
            out.append(make_symbol([TwoRow(Fraction(s), l)]))
            s += 1
        return tuple(out)
    raise UnsupportedRank(f"enumeration implemented for ranks 2 and 3, got {rank}")


# ---------------------------------------------------------------------------
# the graded symplectic model space

@dataclass(frozen=True)
class GradedSymplecticSpace:
    symbol: FlagSymbol
    labels: tuple
    weights: tuple            # Fraction per basis vector
    row_index: tuple          # basis index -> position in rows_of(symbol)
    sigma: tuple              # skew pairing matrix
    shift: tuple              # weight-lowering shift as a matrix
    # per row of rows_of(symbol), the range of its boxes, top weight first:
    # the shift's Jordan chains
    chains: tuple = field(repr=False, compare=False)
    # per box a, (pi(a), s_a) with sigma[a][pi(a)] = s_a the one nonzero of row a
    pairing: tuple = field(repr=False, compare=False)

    @property
    def dim(self):
        return len(self.labels)


def build_model_space(sym: FlagSymbol) -> GradedSymplecticSpace:
    """The boxes row by row, top weight first, with the pairing and the shift
    in closed form.  Box p of an upper row of l + 1 boxes pairs with box
    l - p of the lower row, and box p of a centred row of m2 + 1 boxes with
    box m2 - p; the sign at box p is (-1)^p and its mate's is the opposite.
    The shift moves each box one step down its row."""
    rows = rows_of(sym)
    labels, weights, row_index, chains = [], [], [], []
    for ri, r in enumerate(rows):
        chains.append(range(len(labels), len(labels) + r.length))
        for p in range(r.length):
            w = r.top - p
            labels.append(f"{r.kind}{r.component}[{_num_str(w)}]")
            weights.append(w)
            row_index.append(ri)
    n = len(labels)

    pairing = [None] * n
    for ri, r in enumerate(rows):  # a lower row follows its upper row
        if r.kind != "F":
            mates = chains[ri + 1] if r.kind == "E" else chains[ri]
            for p, (a, b) in enumerate(zip(chains[ri], reversed(mates))):
                s = -1 if p % 2 else 1
                pairing[a], pairing[b] = (b, s), (a, -s)

    zero_row = (Fraction(0),) * n

    def one_hot(j, c):
        return zero_row[:j] + (Fraction(c),) + zero_row[j + 1:]

    shift = [zero_row] * n
    for chain in chains:
        for up, a in zip(chain, chain[1:]):
            shift[a] = one_hot(up, 1)

    return GradedSymplecticSpace(
        symbol=sym,
        labels=tuple(labels),
        weights=tuple(weights),
        row_index=tuple(row_index),
        sigma=tuple(one_hot(b, s) for b, s in pairing),
        shift=tuple(shift),
        chains=tuple(chains),
        pairing=tuple(pairing),
    )
