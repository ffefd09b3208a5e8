"""Exact linear algebra over the rationals, Pfaffians, and sparse polynomials.

Everything here is exact: scalars are ``fractions.Fraction``, and polynomial
arithmetic is sparse with rational coefficients.  Every rank, kernel, rref,
solve and span test runs on one engine, ``Echelon``: an incremental echelon
form of sparse, primitive integer rows, reduced fraction-free.  ``det`` keeps
its own sign-tracking Bareiss elimination.  No floating point anywhere.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

from .errors import DegenerateBranch, NonSkew

def frac(x) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


# ---------------------------------------------------------------------------
# vectors and matrices (tuples of Fractions)

def vec(entries):
    return tuple(frac(x) for x in entries)


def mat(rows):
    return tuple(vec(r) for r in rows)


def identity_matrix(n):
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n))
        for i in range(n)
    )


def transpose(a):
    return tuple(zip(*a)) if a else ()


def dot(u, v):
    return sum((x * y for x, y in zip(u, v)), Fraction(0))


def is_zero_vector(u):
    return all(x == 0 for x in u)


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(a, b))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(a, b))


def mat_vec(a, v):
    return tuple(dot(row, v) for row in a)


def mat_mul(a, b):
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def is_zero_matrix(a):
    return all(is_zero_vector(r) for r in a)


# ---------------------------------------------------------------------------
# the elimination engine

_ZERO = Fraction(0)


def primitive_row(row):
    """The integer row {col: int} proportional to a {col: value} dict or a
    sequence of rationals, with content 1 and zero entries dropped."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    row = {j: x for j, x in items if x}
    if not row:
        return row
    if not all(type(x) is int for x in row.values()):
        den = math.lcm(*(x.denominator for x in row.values()))
        row = {j: x.numerator * (den // x.denominator) for j, x in row.items()}
    g = math.gcd(*row.values())
    return {j: x // g for j, x in row.items()} if g != 1 else row


def _eliminate(row, piv, c):
    """Primitive integer combination of row and pivot row piv with column c
    cleared.  Dividing by the content at every step keeps the entries from
    growing with the number of steps."""
    p, f = piv[c], row[c]
    g = math.gcd(p, f)
    p, f = p // g, f // g
    out = {j: p * x for j, x in row.items()} if p != 1 else dict(row)
    for j, y in piv.items():
        x = out.get(j, 0) - f * y
        if x:
            out[j] = x
        else:
            del out[j]
    g = math.gcd(*out.values()) if out else 1
    return {j: x // g for j, x in out.items()} if g > 1 else out


class Echelon:
    """Incremental row echelon form over the rationals, on sparse rows.

    Rows are stored as {col: int} with content 1 and a positive leading entry,
    keyed by leading column.  A row is added fraction-free, as in Bareiss
    (1968): it is reduced against the stored rows, each step divided by its
    content, until its leading column is new or it vanishes.  The set of
    leading columns depends only on the row space, so kernel() and rref()
    are canonical.
    """

    def __init__(self, ncols, rows=()):
        self.ncols = ncols
        self.rows = {}
        for row in rows:
            self.add(row)

    def _reduce(self, row):
        rows = self.rows
        while row:
            lead = min(row)
            piv = rows.get(lead)
            if piv is None:
                break
            row = _eliminate(row, piv, lead)
        return row

    def add(self, row):
        """Insert a row ({col: value} or a sequence); True iff the span grew."""
        row = self._reduce(primitive_row(row))
        if not row:
            return False
        lead = min(row)
        self.rows[lead] = row if row[lead] > 0 else {j: -x for j, x in row.items()}
        return True

    def contains(self, row):
        return not self._reduce(primitive_row(row))

    @property
    def rank(self):
        return len(self.rows)

    def _back_reduce(self):
        """Clear each pivot column from the other rows.  Rows are visited by
        decreasing lead, so every pivot row used is already reduced and brings
        in no other pivot column."""
        rows = self.rows
        for lead in sorted(rows, reverse=True):
            row = rows[lead]
            for c in [j for j in row if j != lead and j in rows]:
                row = _eliminate(row, rows[c], c)
            rows[lead] = row

    def kernel(self):
        """Basis of {v : row . v = 0 for every row} as sparse {col: Fraction}
        vectors, one per free column f: 1 at f, and -x/y at the pivot column
        of each reduced row with lead entry y and entry x at f.  Every such
        pivot column is left of f, so the keys ascend and end at f."""
        at = {}
        for lead, row in self.reduced_integer_rows():
            for j, x in row.items():
                if j != lead:
                    at.setdefault(j, {})[lead] = Fraction(-x, row[lead])
        one = Fraction(1)
        return tuple({**at.get(f, {}), f: one}
                     for f in range(self.ncols) if f not in self.rows)

    def reduced_integer_rows(self):
        """Pairs (lead, row of rref() times row[lead] > 0), in lead order."""
        self._back_reduce()
        return sorted(self.rows.items())

    def integer_rows(self):
        """The rows of rref(), each scaled to a primitive integer tuple."""
        return tuple(tuple(row.get(j, 0) for j in range(self.ncols))
                     for _, row in self.reduced_integer_rows())

    def reduced_rows(self):
        """The rows of rref() as sparse {col: Fraction} dicts.  Columns need
        only be ordered, so they may also be (i, j) matrix positions."""
        return [{j: Fraction(x, row[lead]) for j, x in row.items()}
                for lead, row in self.reduced_integer_rows()]

    def rref(self):
        """Reduced row echelon form: (rows as Fraction tuples, pivot columns)."""
        return (tuple(tuple(row.get(j, _ZERO) for j in range(self.ncols))
                      for row in self.reduced_rows()), tuple(sorted(self.rows)))


def rank(a):
    """Rank of rows given as sequences or {col: value} dicts."""
    return Echelon(None, a).rank


def kernel_basis(a, ncols=None):
    """Deterministic basis of the right kernel {v : a v = 0}, as the sparse
    {col: Fraction} vectors of Echelon.kernel().

    Rows are sequences, or {col: value} dicts when ncols gives the number of
    unknowns; with ncols and no rows every unknown is free."""
    if ncols is None:
        if not a:
            return ()
        if isinstance(a[0], dict):
            raise ValueError("kernel_basis needs ncols for {col: value} rows")
        ncols = len(a[0])
    return Echelon(ncols, a).kernel()


def rref(a):
    """Reduced row echelon form over the rationals: (rows, pivot columns).

    Canonical for a given row space, so two spans are equal iff their rrefs are.
    """
    a = mat(a)
    return Echelon(len(a[0]), a).rref() if a else ((), ())


def spans_equal(basis_a, basis_b):
    """True iff the two lists of vectors span the same subspace."""
    if not basis_a or not basis_b:
        return all(is_zero_vector(v) for v in (*basis_a, *basis_b))
    if len(basis_a[0]) != len(basis_b[0]):
        return False
    return rref(basis_a)[0] == rref(basis_b)[0]


def span_contains(basis, v):
    if is_zero_vector(v):
        return True
    if not basis:
        return False
    return Echelon(len(v), basis).contains(v)


def solve_all(a, rhss, ncols):
    """One solution of a x = b, free variables at 0, for every b in rhss, or
    None if some b is outside the column span.  One elimination of a
    augmented by every b: a pivot right of a marks an inconsistent b, and
    the pivot rows give each solution."""
    reduced = Echelon(ncols + len(rhss), [
        list(row) + [b[r] for b in rhss] for r, row in enumerate(a)
    ]).reduced_rows()
    pivots = [(min(row), row) for row in reduced]
    if any(lead >= ncols for lead, _ in pivots):
        return None
    out = []
    for c in range(len(rhss)):
        sol = [_ZERO] * ncols
        for lead, row in pivots:
            sol[lead] = row.get(ncols + c, _ZERO)
        out.append(tuple(sol))
    return out


def solve_linear(a, b):
    """One solution of a x = b (free variables set to 0), or None: the
    one-right-hand-side case of solve_all."""
    if not a:
        return None if any(x != 0 for x in b) else ()
    sols = solve_all(mat(a), [vec(b)], len(a[0]))
    return None if sols is None else sols[0]


def det(a):
    """Determinant via Bareiss on a row-scaled integer matrix."""
    n = len(a)
    if n == 0:
        return Fraction(1)
    if any(len(r) != n for r in a):
        raise ValueError("determinant needs a square matrix")
    scale = Fraction(1)
    rows = []
    for row in mat(a):
        den = 1
        for x in row:
            den = den * x.denominator // math.gcd(den, x.denominator)
        scale /= den
        rows.append([int(x * den) for x in row])
    sign = 1
    prev = 1
    for c in range(n - 1):
        pivot_row = None
        for i in range(c, n):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            sign = -sign
        pc = rows[c][c]
        for i in range(c + 1, n):
            ric = rows[i][c]
            for j in range(c, n):
                rows[i][j] = (pc * rows[i][j] - ric * rows[c][j]) // prev
        prev = pc
    return sign * scale * rows[n - 1][n - 1]


# ---------------------------------------------------------------------------
# Pfaffians

def check_skew(a):
    n = len(a)
    for i in range(n):
        if len(a[i]) != n:
            raise NonSkew("matrix is not square")
        if a[i][i] != 0:
            raise NonSkew(f"nonzero diagonal entry at {i}")
        for j in range(i + 1, n):
            if a[i][j] != -a[j][i]:
                raise NonSkew(f"entries ({i},{j}) and ({j},{i}) are not opposite")


def _pfaffians(a):
    """pf(idx): the Pfaffian of a on the sorted index tuple idx, by first-row
    cofactor recursion; each sub-Pfaffian is expanded once per table.

    Generic over the entry type: works for Fraction entries and for MultiPoly
    entries (anything supporting +, -, * with int identities 0 and 1).
    """
    @functools.cache
    def pf(idx):
        if len(idx) % 2:
            return 0
        if not idx:
            return 1
        s0, rest = idx[0], idx[1:]
        total = 0
        for pos, k in enumerate(rest):
            term = a[s0][k] * pf(rest[:pos] + rest[pos + 1:])
            total = total + term if pos % 2 == 0 else total - term
        return total

    return pf


def _without(n, *drop):
    return tuple(k for k in range(n) if k not in drop)


def pfaffian(a):
    """Pfaffian of a skew matrix (0 for odd size).  The caller is responsible
    for skewness; use check_skew for validation."""
    return _pfaffians(a)(tuple(range(len(a))))


def sub_pfaffians(a):
    """Pfaffian cofactors by plain row/column deletion.

    For odd n returns the vector (A_0, ..., A_{n-1}) with A_i the Pfaffian of a
    with row and column i removed.  For even n returns the skew matrix (A_ij)
    with, for i < j, A_ij the Pfaffian of a with rows and columns i and j
    removed, A_ji = -A_ij, and zero diagonal.  No extra sign factors: for a 2x2
    input the single cofactor A_01 is 1.
    """
    n = len(a)
    pf = _pfaffians(a)
    if n % 2:
        return tuple(pf(_without(n, i)) for i in range(n))
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            p = pf(_without(n, i, j))
            out[i][j] = p
            out[j][i] = -p
    return tuple(tuple(r) for r in out)


class SkewKernelResult(NamedTuple):
    basis: tuple
    closed_form: bool


def skew_kernel(a, require_closed_form=False):
    """Kernel of a rational skew matrix via Pfaffian cofactor formulas.

    Closed forms cover corank 1 (odd size) and corank 0 or 2 (even size); in
    those cases closed_form is True and the basis comes from cofactors.  When
    every relevant cofactor vanishes the corank is higher and there is no
    closed form: by default we fall back to kernel_basis (closed_form False),
    with require_closed_form=True we raise DegenerateBranch instead.  The
    Pfaffian and the cofactors come from one table, and only the two cofactor
    rows of the first nonzero cofactor are read.
    """
    check_skew(a)
    n = len(a)
    if n == 0:
        return SkewKernelResult((), True)
    pf = _pfaffians(a)
    if n % 2:
        v = tuple(pf(_without(n, i)) * (-1) ** i for i in range(n))
        if not is_zero_vector(v):
            return SkewKernelResult((v,), True)
    else:
        if pf(tuple(range(n))) != 0:
            return SkewKernelResult((), True)

        def cof(i, j):
            if i == j:
                return 0
            return pf(_without(n, i, j)) if i < j else -pf(_without(n, j, i))

        pivot = next(((i, j) for i in range(n) for j in range(i + 1, n) if cof(i, j) != 0),
                     None)
        if pivot is not None:
            # the kernel field of row i: alternating cofactors of that row
            return SkewKernelResult(
                tuple(tuple(cof(i, j) * (-1) ** (j + 1) for j in range(n)) for i in pivot),
                True)
    if require_closed_form:
        raise DegenerateBranch("all Pfaffian cofactors vanish; corank too high")
    return SkewKernelResult(tuple(tuple(v.get(j, _ZERO) for j in range(n))
                                  for v in kernel_basis(a, n)), False)


# ---------------------------------------------------------------------------
# sparse polynomials with rational coefficients

def _grlex_key(exp):
    return (sum(exp), exp)


class MultiPoly:
    """Sparse polynomial in named variables over the rationals.

    terms maps exponent tuples to nonzero Fraction coefficients.  Arithmetic
    only combines polynomials over the same variable tuple; scalars (int or
    Fraction) are accepted on either side.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=None):
        self.variables = tuple(variables)
        clean = {}
        if terms:
            for exp, c in terms.items():
                c = frac(c)
                if c != 0:
                    clean[tuple(exp)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------------
    @classmethod
    def constant(cls, variables, c):
        c = frac(c)
        if c == 0:
            return cls(variables)
        return cls(variables, {(0,) * len(tuple(variables)): c})

    @classmethod
    def variable(cls, variables, name):
        variables = tuple(variables)
        i = variables.index(name)
        exp = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls(variables, {exp: Fraction(1)})

    # -- predicates ---------------------------------------------------------
    def degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.variables == other.variables and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == MultiPoly.constant(self.variables, other)
        return NotImplemented

    __hash__ = None

    # -- arithmetic ---------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.variables != self.variables:
                raise ValueError("polynomials over different variables")
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.constant(self.variables, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            terms[exp] = terms.get(exp, Fraction(0)) + c
        return MultiPoly(self.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = frac(other)
            return MultiPoly(self.variables, {e: c * v for e, v in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return MultiPoly(self.variables, terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = MultiPoly.constant(self.variables, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- calculus and evaluation -------------------------------------------
    def derivative(self, name):
        i = self.variables.index(name)
        terms = {}
        for exp, c in self.terms.items():
            if exp[i] == 0:
                continue
            e = list(exp)
            e[i] -= 1
            terms[tuple(e)] = terms.get(tuple(e), Fraction(0)) + c * exp[i]
        return MultiPoly(self.variables, terms)

    def subs(self, assignment):
        """Substitute values (Fraction or MultiPoly) for some or all variables.

        Variables not mentioned keep themselves.  Result is a MultiPoly over
        the variables of the substituted values (which must all agree), or a
        Fraction when everything is substituted by scalars.
        """
        values = []
        target_vars = None
        all_scalar = True
        for name in self.variables:
            if name in assignment:
                v = assignment[name]
                if isinstance(v, MultiPoly):
                    all_scalar = False
                    target_vars = v.variables
                values.append(v)
            else:
                values.append(None)
                all_scalar = False
        if target_vars is None:
            target_vars = self.variables
        if all_scalar:
            total = Fraction(0)
            for exp, c in self.terms.items():
                term = c
                for v, e in zip(values, exp):
                    term *= frac(v) ** e
                total += term
            return total
        poly_values = []
        for name, v in zip(self.variables, values):
            if v is None:
                poly_values.append(MultiPoly.variable(target_vars, name))
            elif isinstance(v, MultiPoly):
                poly_values.append(v)
            else:
                poly_values.append(MultiPoly.constant(target_vars, v))
        # powers[i][e] = poly_values[i] ** e, each power expanded once
        powers = [[MultiPoly.constant(target_vars, 1)] for _ in poly_values]
        total = {}
        for exp, c in self.terms.items():
            term = MultiPoly.constant(target_vars, c)
            for v, pw, e in zip(poly_values, powers, exp):
                if e:
                    while len(pw) <= e:
                        pw.append(pw[-1] * v)
                    term = term * pw[e]
            for m, y in term.terms.items():
                y += total.get(m, 0)
                if y:
                    total[m] = y
                else:
                    del total[m]
        return MultiPoly(target_vars, total)

    def coefficient_of(self, exp):
        return self.terms.get(tuple(exp), Fraction(0))

    def canonical_terms(self):
        """Terms sorted by graded lex, highest first; canonical for equality."""
        return tuple(sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp, c in self.canonical_terms():
            factors = []
            for name, e in zip(self.variables, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


def monomials_of_degree(nvars, d):
    """All exponent tuples of total degree d, graded-lex descending."""
    if nvars == 0:
        return ((),) if d == 0 else ()
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), d, nvars)
    return tuple(out)


def _minors(a):
    """minor(rows, cols): the determinant of a on the index tuples rows and
    cols, by first-row cofactor recursion; each sub-minor is expanded once
    per table.  Generic over the entry type, like _pfaffians."""
    @functools.cache
    def minor(rows, cols):
        if not rows:
            return 1
        if len(rows) == 1:
            return a[rows[0]][cols[0]]
        r0, rest = rows[0], rows[1:]
        total = 0
        for pos, c in enumerate(cols):
            term = a[r0][c] * minor(rest, cols[:pos] + cols[pos + 1:])
            total = total + term if pos % 2 == 0 else total - term
        return total

    return minor


def det_generic(a):
    """Cofactor determinant for matrices with generic (e.g. MultiPoly) entries."""
    idx = tuple(range(len(a)))
    return _minors(a)(idx, idx)
