"""Reductions into the target graph and set-cover problems.

Each construction is paired (in tests) with the exact oracles that certify
its completeness/soundness identity at desk scale: FGLSS turns MaxCov into
Clique exactly; one hypercube set system per left vertex, whose canonical
sets are the digit tables of `canonical_masks`, turns MinLab into SetCov
exactly; the doubling gadgets sandwich Biclique and InducedMatching between
Clique and 2*Biclique+1; the block-chained clique gadget separates
InducedPath at 2qk vs 4(k-1); and the partial-assignment graph realizes the
DkS subsampling route.

Every reduction to a graph yields its masks lazily to `Graph._bounded`, the
one graph builder, which refuses what parse_graph would refuse of the output's
file, and minlab_to_setcov builds through `SetSystem._bounded` alike. fglss and
sat_to_dks also count the vertex masks they build first.

Two steps are bit-matrix transposes, made by `instances._columns`: the element
rows of setcov_to_domset, which checks its vertex count first, and the set
masks minlab_to_setcov gets from cubes with one neighbour or one coordinate,
whose unions are single elements and are collected per element first.
"""

from __future__ import annotations

import collections
import itertools
import math
import random

from .errors import ReductionError, SizeCapError, ValidationError
from .instances import (
    DEFAULT_SIZE_CAP,
    CnfFormula,
    Graph,
    LabelCover,
    SetSystem,
    _check_counts,
    _columns,
    _MaskBits,
    bits_of,
    digit_table,
)
from .lc_transforms import projection_check
from .oracles import SUPPORTED_PROPERTIES

__all__ = [
    "fglss",
    "minlab_to_setcov",
    "setcov_to_domset",
    "biclique_gadget",
    "im_gadget",
    "is_to_im_gadget",
    "clique_to_inducedpath",
    "dks_vertices",
    "dks_edge",
    "sat_to_dks",
    "ramsey_binomial_bound",
    "hereditary_bridge",
]


# ---------------------------------------------------------------------------
# FGLSS: label cover -> clique


def fglss(lc: LabelCover) -> Graph:
    """FGLSS graph of a projection instance: Clique(H) = MaxCov(lc).

    Vertices are (left vertex, admissible label) pairs; two vertices on
    distinct left vertices are adjacent when their unique projections agree on
    every common neighbor. Labels of the same left vertex are never adjacent,
    so a clique picks at most one label per vertex.
    """
    violation = projection_check(lc)
    if violation is not None:
        raise ReductionError(f"input lacks the projection property: violation {violation}")
    num_vertices = sum(len(lc.admissible[u]) for u in range(lc.left_size))
    return Graph._bounded(num_vertices, _fglss_masks(lc))


def _fglss_masks(lc: LabelCover):
    """fglss's neighbour masks in vertex order. The state is built on the first
    draw, so Graph._bounded refuses too many vertices before any of it is built, and
    its masks are counted left vertex by left vertex as they widen."""
    # Each left vertex keeps its first vertex and its labels' projections, as
    # (v, beta) keys. touch[v] holds the vertices whose left vertex sees v, and
    # agree[v, beta] those among them that project to beta; allowed[v, beta] adds those
    # not seeing v. A vertex's neighbours: off its left vertex, in allowed[key] for its keys.
    lefts: list[tuple[int, list[list[tuple[int, int]]]]] = []
    touch: dict[int, int] = {}
    agree: dict[tuple[int, int], int] = {}
    widths = _MaskBits("vertex")
    n = 0
    for u in range(lc.left_size):
        edge_masks = [(v, lc.betas[u, v]) for v in lc.left_neighbors[u]]
        projs = [[(v, masks[a].bit_length() - 1) for v, masks in edge_masks]
                 for a in lc.admissible_list(u)]
        own = ((1 << len(projs)) - 1) << n
        grown = 0
        for v, _ in edge_masks:
            mask = touch.get(v, 0)
            touch[v] = wider = mask | own
            grown += wider.bit_length() - mask.bit_length()
        # Each key's labels of u, as bits from u's first vertex, join it in one OR.
        by_key: dict[tuple[int, int], int] = {}
        for bit, proj in enumerate(projs):
            for key in proj:
                by_key[key] = by_key.get(key, 0) | 1 << bit
        for key, bits in by_key.items():
            mask = agree.get(key, 0)
            agree[key] = wider = mask | bits << n
            grown += wider.bit_length() - mask.bit_length()
        widths.add(grown)
        lefts.append((n, projs))
        n += len(projs)
    allowed = {key: ~touch[key[0]] | mask for key, mask in agree.items()}
    full = (1 << n) - 1
    for first, projs in lefts:
        others = full ^ ((1 << len(projs)) - 1) << first
        for proj in projs:
            mask = others
            for key in proj:
                mask &= allowed[key]
            yield mask


# ---------------------------------------------------------------------------
# Hypercube partition system and MinLab -> SetCov


def canonical_masks(z: int, k: int) -> list[list[int]]:
    """X(i, a) of [z]^k, at [i][a], as a mask over the vectors' ranks.

    Vectors are ranked in itertools.product order, so coordinate a is the
    base-z digit of place value z^(k-1-a), and X(i, a) is the digit table of
    that digit's value i. A subcollection of these sets covers all z^k ranks
    exactly when it holds a whole column X(0, a), ..., X(z-1, a), which is
    what lets `minlab_to_setcov`, their one reader, turn MinLab into SetCov.
    """
    width = z**k
    return [[digit_table(1 << i, z, z ** (k - 1 - a), width) for a in range(k)] for i in range(z)]


def minlab_to_setcov(lc: LabelCover, size_cap: int = DEFAULT_SIZE_CAP) -> SetSystem:
    """Compose one hypercube per left vertex: SetCov of the output = MinLab(lc).

    Left vertex u contributes the hypercube [|N(u)|]^|A(u)| on values N(u)
    and coordinates A(u), its elements placed after those of the vertices
    before it. The purchasable set for (right vertex v, label b) is the union
    of the canonical sets X(v, a), the digit tables of `canonical_masks`, over
    neighbours u and pairs (a, b) in the edge relation. The output always has
    exactly |V| * |Sigma_V| sets, with id v * |Sigma_V| + b + 1.
    """
    for u in range(lc.left_size):
        if not lc.left_neighbors[u]:
            raise ReductionError(f"left vertex {u} is isolated (degenerate hypercube)")
    total = 0
    offsets = []
    for u in range(lc.left_size):
        offsets.append(total)
        total += len(lc.left_neighbors[u]) ** len(lc.admissible[u])
        if total > size_cap:
            raise SizeCapError(f"universe of {total}+ elements exceeds cap {size_cap}")
    ra = lc.right_alphabet
    num_sets = lc.right_size * ra

    def sets():
        # Drawn once SetSystem._bounded has checked the counts, which size this list.
        masks = [0] * num_sets
        # rows[e]: the sets, as bits v * ra + b, that buy element e through a
        # one-element union; made for the first such union.
        rows = None
        cubes: dict[tuple[int, int], list[list[int]]] = {}
        for u in range(lc.left_size):
            nbrs = lc.left_neighbors[u]
            coords = lc.admissible_list(u)
            shape = len(nbrs), len(coords)
            if 1 in shape:
                # Each X(j, a) is the one element j of the cube, so each edge's
                # labels buy it through the OR of its coordinates' beta masks.
                if rows is None:
                    rows = [0] * total
                for j, v in enumerate(nbrs):
                    betas = lc.betas[u, v]
                    beta = 0
                    for a in coords:
                        beta |= betas.get(a, 0)
                    rows[offsets[u] + j] |= beta << v * ra
                continue
            if shape not in cubes:
                cubes[shape] = canonical_masks(*shape)
            for j, v in enumerate(nbrs):
                betas, tables = lc.betas[u, v], cubes[shape][j]
                # by_beta[beta]: the union of X(j, pos) over the coordinates
                # whose label has that beta mask on this edge; each of its
                # labels b buys the union.
                by_beta: dict[int, int] = {}
                for pos, a in enumerate(coords):
                    beta = betas.get(a)
                    if beta:
                        by_beta[beta] = by_beta.get(beta, 0) | tables[pos]
                bought: dict[int, int] = {}
                for beta, mask in by_beta.items():
                    for b in bits_of(beta):
                        bought[b] = bought.get(b, 0) | mask
                for b, mask in bought.items():
                    masks[v * ra + b] |= mask << offsets[u]
        if rows is not None:
            columns, rows = _columns(rows, num_sets), None
            masks = [mask | column if mask else column for mask, column in zip(masks, columns)]
        yield from masks

    return SetSystem._bounded(total, num_sets, range(1, num_sets + 1), sets())


def setcov_to_domset(system: SetSystem) -> Graph:
    """Sets become a clique, elements attach to their sets: DomSet = SetCov.

    Requires a nonempty universe with every element in at least one set (the
    equivalence needs a set vertex to stand in for any dominated element).
    """
    if system.universe_size < 1:
        raise ReductionError("empty universe: SetCov is 0 but any dominating set has size >= 1")
    if system.num_sets < 1:
        raise ReductionError("no sets to dominate with")
    covered = 0
    for mask in system.masks:
        covered |= mask
    if covered != (1 << system.universe_size) - 1:
        raise ReductionError("an element belongs to no set; transform undefined")
    k = system.num_sets
    _check_counts(("vertex count", k + system.universe_size))
    sets = (1 << k) - 1
    elements = _columns(system.masks, system.universe_size)
    rows = ((sets ^ 1 << i) | mask << k for i, mask in enumerate(system.masks))
    return Graph._bounded(k + system.universe_size, itertools.chain(rows, elements))


# ---------------------------------------------------------------------------
# Doubling gadgets


def _doubling(n: int, row) -> Graph:
    """Bipartite double on 2n vertices: (u, 1) ~ (v, 2) iff bit v of row(u) is set.

    The rows must be symmetric, so right vertex n + v sees the left vertices
    in row(v). Each side builds its own rows, so `Graph._bounded` counts them lazily."""
    left = (row(u) << n for u in range(n))
    return Graph._bounded(2 * n, itertools.chain(left, map(row, range(n))))


def biclique_gadget(graph: Graph) -> Graph:
    """B_e[G]: (u, 1) ~ (v, 2) iff u = v or uv is an edge.

    Sandwich: Clique(G) <= Biclique(B_e[G]) <= 2*Biclique(G) + 1.
    """
    adj = graph.adjacency
    return _doubling(graph.num_vertices, lambda u: adj[u] | 1 << u)


def im_gadget(graph: Graph) -> Graph:
    """B_e[complement(G)]: (u, 1) ~ (v, 2) iff u = v or uv is a non-edge.

    Sandwich: Clique(G) <= IM(B_e[comp G]) <= 2*Biclique(G) + 1.
    """
    adj, full = graph.adjacency, (1 << graph.num_vertices) - 1
    return _doubling(graph.num_vertices, lambda u: full & ~adj[u])


def is_to_im_gadget(graph: Graph) -> Graph:
    """Pendant construction: a leaf per vertex, so IM(output) >= MIS(input)."""
    n = graph.num_vertices
    stems = (mask | 1 << n + v for v, mask in enumerate(graph.adjacency))
    return Graph._bounded(2 * n, itertools.chain(stems, (1 << v for v in range(n))))


# ---------------------------------------------------------------------------
# Induced path gadget


def clique_to_inducedpath(h: Graph, k: int, q: int) -> Graph:
    """q chained blocks of k column-cliques over copies of V(H) plus dummies.

    If Clique(H) >= k, the output has an induced path on 2qk vertices
    (alternate dummies with clique-vertex copies down the columns and across
    blocks). Without a k-clique, no induced path exceeds 4(k-1) vertices in a
    single-block instance; chained blocks admit same-vertex row hops, so the
    certified bound for q >= 2 is q(2k-1).
    """
    if k < 2 or q < 1:
        raise ValidationError("need k >= 2 and q >= 1")
    nh = h.num_vertices
    stride = nh + 1
    columns = q * k
    # Column c = i * k + j holds copy v at c * stride + v and its dummy at
    # c * stride + nh. Copy v sees, in the other columns of its block, the
    # copies of v itself (row clique) and of its non-neighbours in H.
    copies = (1 << nh) - 1
    apart = [copies & ~mask for mask in h.adjacency]

    def masks():
        for c in range(columns):
            base = c * stride
            column = copies << base
            block = sum(1 << (c - c % k + j) * stride for j in range(k))
            # The dummies of this column and of the next one, which for a
            # block's last column is the next block's first dummy.
            dummies = 1 << base + nh | (1 << base + stride + nh if c + 1 < columns else 0)
            for v in range(nh):
                yield (column ^ 1 << base + v) | dummies | (apart[v] * block & ~column)
            # A dummy sees its own column and the previous one.
            yield column | column >> stride

    return Graph._bounded(columns * stride, masks())


# ---------------------------------------------------------------------------
# Densest k-subgraph: partial-assignment graph with subsampling


def dks_vertices(num_vars: int, ell: int) -> list[tuple[tuple[int, ...], int]]:
    """Canonical vertex order of the full graph: (variable window, assignment bits).

    Bit t of the assignment is the value of the window's t-th variable.
    Subsampling (p < 1) keeps a sub-list of this order.
    """
    out = []
    for window in itertools.combinations(range(num_vars), ell):
        for bits in range(1 << ell):
            out.append((window, bits))
    return out


def _dks_kept(num_vars: int, ell: int, p: float, seed) -> list[tuple[tuple[int, ...], int]]:
    """The vertices sat_to_dks keeps, in canonical order: when p < 1,
    random.Random(seed) draws once per dks_vertices entry and keeps it below p."""
    vertices = dks_vertices(num_vars, ell)
    if p < 1.0:
        rng = random.Random(seed)
        vertices = [vx for vx in vertices if rng.random() < p]
    return vertices


def dks_edge(
    formula: CnfFormula,
    window1: tuple[int, ...],
    bits1: int,
    window2: tuple[int, ...],
    bits2: int,
) -> bool:
    """Edge rule: consistent on the overlap, and no clause inside the union violated."""
    value = {}
    for t, var in enumerate(window1):
        value[var] = (bits1 >> t) & 1
    for t, var in enumerate(window2):
        bit = (bits2 >> t) & 1
        if value.get(var, bit) != bit:
            return False
        value[var] = bit
    for clause in formula.clauses:
        if all(abs(lit) - 1 in value for lit in clause):
            if not any(value[abs(lit) - 1] == (1 if lit > 0 else 0) for lit in clause):
                return False
    return True


def sat_to_dks(
    formula: CnfFormula, *, ell: int, p: float = 1.0, seed=None, size_cap: int = DEFAULT_SIZE_CAP
) -> Graph:
    """Vertices are all ell-variable partial assignments (each kept with prob p,
    drawn from `seed`).

    Two vertices are adjacent exactly when `dks_edge` says so; the graph is
    built from one mask per (variable, bit) of the kept vertices whose window
    gives that variable that value. A vertex's non-neighbours are itself, the
    opposite-bit masks of its window, and, for each clause it does not
    satisfy, the AND of the falsifying-bit masks of the clause's variables
    outside its window (all vertices when there are none: the vertex
    falsifies a clause inside its own window).

    A clique holds at most one vertex per window, so clique <= C(n, ell).
    Satisfiable formulas reach it: the restrictions of a satisfying
    assignment are pairwise adjacent. When ell < n and every clause has at
    most 2*ell literals the converse holds too: a C(n, ell)-clique is one
    consistent assignment, and each clause lies inside some pair of distinct
    windows, whose edge certifies it. So clique == C(n, ell) exactly when the
    formula is satisfiable.
    """
    if ell < 1:
        raise ValidationError("ell must be >= 1")
    if not 0.0 < p <= 1.0:
        raise ValidationError("p must lie in (0,1]")
    n = formula.num_vars
    if ell > n:
        raise ValidationError(f"ell={ell} exceeds num_vars={n}")
    count = math.comb(n, ell) << ell
    if count > size_cap:
        raise SizeCapError(f"{count} vertices exceed cap {size_cap}")
    vertices = _dks_kept(n, ell, p, seed)
    # value[var][bit]: the kept vertices whose window gives var that bit, set in
    # little-endian bytes made when a kept window first names var; others read 0.
    # Each is as wide as the last such vertex, so the widths are counted first.
    last = [-1] * (2 * n)
    for i, (window, bits) in enumerate(vertices):
        for t, var in enumerate(window):
            last[2 * var + (bits >> t & 1)] = i
    _MaskBits("vertex").add(sum(last) + len(last))
    size = len(vertices) // 8 + 1
    flags = collections.defaultdict(lambda: (bytearray(size), bytearray(size)))
    for i, (window, bits) in enumerate(vertices):
        byte, bit = i >> 3, 1 << (i & 7)
        for t, var in enumerate(window):
            flags[var][bits >> t & 1][byte] |= bit
    value = [(0, 0)] * n
    for var, pair in flags.items():
        value[var] = [int.from_bytes(f, "little") for f in pair]
    everyone = (1 << len(vertices)) - 1
    clause_vars = [[(abs(lit) - 1, lit > 0) for lit in clause] for clause in formula.clauses]

    def masks():
        # dks_vertices lists each window's kept vertices together, so each
        # clause's split into (inside literals, AND of outside falsifiers) is
        # made once a window.
        window = None
        for i, (w, bits) in enumerate(vertices):
            if w != window:
                window, position = w, {var: t for t, var in enumerate(w)}
                split = []
                for lits in clause_vars:
                    inside = [(position[var], want) for var, want in lits if var in position]
                    outside = everyone
                    for var, want in lits:
                        if var not in position:
                            outside &= value[var][not want]
                    split.append((inside, outside))
            non = 1 << i
            for t, var in enumerate(window):
                non |= value[var][not bits >> t & 1]
            for inside, outside in split:
                if not any((bits >> t & 1) == want for t, want in inside):
                    non |= outside
            yield everyone & ~non

    return Graph._bounded(len(vertices), masks())


# ---------------------------------------------------------------------------
# Hereditary bridge


def ramsey_binomial_bound(s: int, t: int) -> int:
    """Binomial upper bound C(s+t-2, s-1) on the Ramsey number R(s, t)."""
    if s < 1 or t < 1:
        raise ValidationError("need s >= 1 and t >= 1")
    return math.comb(s + t - 2, s - 1)


def hereditary_bridge(graph: Graph, prop: str, r: int) -> int:
    """Certified lower bound on MIS(graph) under the premise A_prop(graph) >= r.

    Generic bound: the largest t with C(s+t-2, s-1) <= r, where s is the
    smallest clique the property excludes. Forests are bipartite, so the
    stronger ceil(r/2) applies there.
    """
    if prop not in SUPPORTED_PROPERTIES:
        raise ValidationError(f"unsupported property {prop!r}")
    if r < 0:
        raise ValidationError("r must be >= 0")
    _, s = SUPPORTED_PROPERTIES[prop]
    t = 0
    while ramsey_binomial_bound(s, t + 1) <= r:
        t += 1
    if prop == "forest":
        t = max(t, -(-r // 2))
    return t
