"""Degreewise prolongation of a Heisenberg model under a matrix algebra.

The negative part is a Heisenberg algebra (generators in degree -1, center in
degree -2).  Degree 0 is a given algebra of conformal-symplectic matrices
acting on the generators.  Each positive degree consists of pairs (M1, M2):
M1 sends generators to the previous layer, M2 sends the center two layers
down, subject to the derivation (Leibniz) identities over all of the negative
part.  Positive layers are computed as exact kernels, so dimensions are exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CapReached, JacobiViolation
from .exact import Echelon, kernel_basis, vec
from .liealg import GradedLieAlgebra, HeisenbergModel, algebra_from_entries


def conformal_factor(a, sigma):
    """The scalar c with sigma(Av, w) + sigma(v, Aw) = c sigma(v, w).

    Raises ValueError when A is not conformal-symplectic for sigma.
    """
    pairs = [(i, j, s) for i, row in enumerate(sigma) for j, s in enumerate(row) if s]
    if not pairs:
        raise ValueError("degenerate pairing")
    a_rows = [[(j, x) for j, x in enumerate(row) if x] for row in a]
    total = {}    # entries of A^T sigma + sigma A, from the nonzeros of both
    for k, j, s in pairs:
        for i, x in a_rows[k]:
            total[(i, j)] = total.get((i, j), 0) + x * s
        for m, x in a_rows[j]:
            total[(k, m)] = total.get((k, m), 0) + s * x
    i, j, s = pairs[0]
    c = Fraction(total.get((i, j), 0)) / s
    want = {(i, j): c * s for i, j, s in pairs}
    if any(total.get(key, 0) != want.get(key, 0) for key in total.keys() | want.keys()):
        raise ValueError("matrix is not conformal-symplectic")
    return c


@dataclass(frozen=True)
class ProlongationReport:
    degrees: tuple           # ((k, dim), ...) for k >= 1
    terminated: bool
    total_dim: object        # int when terminated, None otherwise
    dim_negative: int
    dim_g0: int

    def to_json_dict(self):
        return {
            "schema": "sp-1",
            "degrees": [{"k": k, "dim": d} for k, d in self.degrees],
            "terminated": self.terminated,
            "total_dim": self.total_dim,
            "dim_negative": self.dim_negative,
            "dim_g0": self.dim_g0,
        }


@dataclass(frozen=True)
class LayerElement:
    m1: tuple    # d_{k-1} x n matrix: column a is the image of generator a
    m2: tuple    # vector of length d_{k-2}: the image of the center


@dataclass(frozen=True)
class TanakaProlongation:
    heis: HeisenbergModel
    g0: tuple                # csp matrices
    g0_factors: tuple        # conformal factor per matrix
    layers: tuple            # layers[i] = tuple of LayerElement for degree i + 1
    report: ProlongationReport


class _Engine:
    """Holds the layers computed so far during prolongation."""

    def __init__(self, heis: HeisenbergModel, g0):
        self.n = heis.space.dim
        self.sigma = heis.space.sigma
        self.g0 = tuple(tuple(vec(r) for r in a) for a in g0)
        self.factors = tuple(conformal_factor(a, self.sigma) for a in self.g0)
        self.layers = []

    def dim(self, k):
        if k <= 0:
            return {-3: 0, -2: 1, -1: self.n, 0: len(self.g0)}[k]
        return len(self.layers[k - 1]) if k - 1 < len(self.layers) else 0

    def actions(self, j):
        """Sparse rows of [ . , v_a] and [ . , z] on degree j: av[a][r] and
        az[r] map s to the coefficient of basis element r of degree j - 1
        (resp. j - 2) in the bracket of basis element s of degree j.
        Integral coefficients are ints, so most Leibniz rows are integer."""
        if j == -1:
            elems = [((row,), ()) for row in self.sigma]
        elif j == 0:
            elems = [(a, (f,)) for a, f in zip(self.g0, self.factors)]
        else:
            elems = [(e.m1, e.m2) for e in self.layers[j - 1]]
        av = [[{} for _ in range(self.dim(j - 1))] for _ in range(self.n)]
        az = [{} for _ in range(self.dim(j - 2))]
        for s, (m1, m2) in enumerate(elems):
            for r, row in enumerate(m1):
                for a, c in enumerate(row):
                    if c:
                        av[a][r][s] = c.numerator if c.denominator == 1 else c
            for r, c in enumerate(m2):
                if c:
                    az[r][s] = c.numerator if c.denominator == 1 else c
        return av, az

    def next_layer(self, k):
        """Degree-k layer: the kernel of the Leibniz identities on the unknown
        (M1, M2), with M1[r][a] at column a * d1 + r and M2[r] at m2_off + r.
        Each identity is a sparse {column: value} row built from the nonzeros
        of the actions.  Elimination only combines rows that share a lead, so
        the system's independent blocks never meet."""
        n = self.n
        d1 = self.dim(k - 1)   # target of M1 columns
        d2 = self.dim(k - 2)   # target of M2
        m2_off = d1 * n
        nvars = m2_off + d2
        if nvars == 0:
            return ()
        rows = []
        av, az = self.actions(k - 1)
        # Leibniz over generator pairs:
        #   sigma_ab m2 = [phi(v_a), v_b] - [phi(v_b), v_a]
        for a in range(n):
            for b in range(a + 1, n):
                for r in range(d2):
                    row = {a * d1 + s: c for s, c in av[b][r].items()}
                    row.update((b * d1 + s, -c) for s, c in av[a][r].items())
                    if self.sigma[a][b]:
                        row[m2_off + r] = -self.sigma[a][b]
                    rows.append(row)
        # Leibniz over (generator, center) pairs:
        #   [phi(v_a), z] + [v_a, phi(z)] = 0
        av2, _ = self.actions(k - 2)
        for a in range(n):
            for r, zrow in enumerate(az):
                row = {a * d1 + s: c for s, c in zrow.items()}
                row.update((m2_off + s, -c) for s, c in av2[a][r].items())
                rows.append(row)
        return tuple(
            LayerElement(tuple(tuple(v[a * d1 + r] for a in range(n)) for r in range(d1)),
                         v[m2_off:])
            for v in kernel_basis(rows, nvars))


def prolong(heis: HeisenbergModel, g0, kmax=6) -> TanakaProlongation:
    """Compute positive layers until one vanishes, or raise CapReached."""
    eng = _Engine(heis, g0)
    degrees = []
    terminated = False
    for k in range(1, kmax + 1):
        layer = eng.next_layer(k)
        eng.layers.append(layer)
        degrees.append((k, len(layer)))
        if not layer:
            # g_- is generated in degree -1, so g_k = 0 forces g_{k+1} = 0
            # (Tanaka 1970); the next degree is computed once to confirm it
            nxt = eng.next_layer(k + 1)
            eng.layers.append(nxt)
            degrees.append((k + 1, len(nxt)))
            terminated = not nxt
            break
    dim_neg = heis.space.dim + 1
    total = None
    if terminated:
        total = dim_neg + len(eng.g0) + sum(d for _, d in degrees)
    report = ProlongationReport(tuple(degrees), terminated, total, dim_neg, len(eng.g0))
    tp = TanakaProlongation(heis, eng.g0, eng.factors, tuple(eng.layers), report)
    if not terminated:
        raise CapReached(report)
    return tp


# ---------------------------------------------------------------------------
# assembling the full graded algebra

def _locator(vectors):
    """Echelon form of sparse vectors, computed once: (pivot key, coordinate
    row {s: c}) pairs such that v = sum_s c_s vectors[s] has c = sum v[key] * row.
    One sparse echelon of the rows v_s | e_s, keys tagged 0 and indices s 1."""
    echelon = Echelon(None, ({(0, key): c for key, c in v.items()} | {(1, s): 1}
                             for s, v in enumerate(vectors)))
    return tuple((min(row)[1], {s: c for (tag, s), c in row.items() if tag})
                 for row in echelon.reduced_rows() if not min(row)[0])


def assemble_algebra(tp: TanakaProlongation) -> GradedLieAlgebra:
    """Structure constants for the direct sum of all layers.

    Basis order: generators, center, g0, then layers 1..top.  An element u of
    degree k >= 0 is given by its action on the negative part: [u, v_a] is
    column a of M1 and [u, z] is M2 (for g0, the matrix and its conformal
    factor).  The bracket of two such basis elements is computed once, in
    increasing total degree, from the derivation rule
        [[u, w], x] = [[u, x], w] + [u, [w, x]]    (x = v_a or z),
    whose right side is read off the lower-degree table by bilinearity, then
    located in its layer.  JacobiViolation if a bracket leaves its layer or
    the final Jacobi check fails.
    """
    n = tp.heis.space.dim
    sigma = tp.heis.space.sigma
    layers = [tuple(LayerElement(a, (f,)) for a, f in zip(tp.g0, tp.g0_factors))]
    layers += tp.layers
    offsets = {-1: 0, -2: n}
    labels = list(tp.heis.space.labels) + ["z"]
    degrees2 = [-2] * n + [-4]
    for k, layer in enumerate(layers):
        offsets[k] = len(labels)
        labels += [f"u{k}[{s}]" for s in range(len(layer))]
        degrees2 += [2 * k] * len(layer)

    # action[i] maps (x, t) to the coefficient of b_t in [b_i, b_x], where x
    # runs over the generators 0..n-1 and the center n
    action = {}
    for k, layer in enumerate(layers):
        for s, e in enumerate(layer):
            act = {(a, offsets[k - 1] + r): c
                   for r, row in enumerate(e.m1) for a, c in enumerate(row) if c}
            act.update(((n, offsets[k - 2] + r), c) for r, c in enumerate(e.m2) if c)
            action[offsets[k] + s] = act
    locators = [_locator([action[offsets[k] + s] for s in range(len(layer))])
                for k, layer in enumerate(layers)]

    table = {}

    def put(i, j, value):
        if value:
            table[(i, j)] = value
            table[(j, i)] = {t: -c for t, c in value.items()}

    for a in range(n):
        for b in range(a + 1, n):
            if sigma[a][b]:
                put(a, b, {n: sigma[a][b]})
    for i, act in action.items():
        for x in range(n + 1):
            put(i, x, {t: c for (y, t), c in act.items() if y == x})

    def locate(k, act):
        coords = {}
        for key, row in locators[k] if k < len(layers) else ():
            c = act.get(key)
            if c:
                for s, r in row.items():
                    coords[s] = coords.get(s, 0) + c * r
        rebuilt = {}
        for s, c in coords.items():
            for key, r in action[offsets[k] + s].items():
                rebuilt[key] = rebuilt.get(key, 0) + c * r
        if {key: c for key, c in rebuilt.items() if c} != act:
            raise JacobiViolation(f"element of degree {k} outside the computed layer")
        return {offsets[k] + s: c for s, c in sorted(coords.items()) if c}

    degree = [d // 2 for d in degrees2]
    pairs = sorted(((i, j) for i in action for j in action if i < j),
                   key=lambda p: degree[p[0]] + degree[p[1]])
    for i, j in pairs:
        act = {}
        for (x, c), u in action[i].items():          # [[b_i, b_x], b_j]
            for t, w in table.get((c, j), {}).items():
                act[(x, t)] = act.get((x, t), 0) + u * w
        for (x, c), u in action[j].items():          # [b_i, [b_j, b_x]]
            for t, w in table.get((i, c), {}).items():
                act[(x, t)] = act.get((x, t), 0) + u * w
        put(i, j, locate(degree[i] + degree[j], {key: c for key, c in act.items() if c}))

    entries = {(i, j): v for (i, j), v in table.items() if i < j}
    alg = algebra_from_entries(tuple(labels), tuple(degrees2), entries)
    alg.check_jacobi()
    return alg
