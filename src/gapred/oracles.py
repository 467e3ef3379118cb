"""Exact brute-force and branch-and-bound solvers.

These are the ground-truth verifiers for every reduction in the package, so
they are exhaustive and their results exact. sat_max and max_cov score every
labeling at once as bit-sliced truth tables; the graph solvers search over
bitmasks with bounds that only cut branches that cannot beat the best value
found. Each solver accepts a SolveBudget and raises BudgetExceededError rather
than returning a truncated answer. A budget node is one labeling (sat_max and
max_cov charge a whole chunk of labelings before scoring it) or one search
node. Minimization problems return None when infeasible. The searches are
loops over explicit stacks, not recursive calls, so however deep a search
goes, only its node and time budget can end it before it answers.

sat_max, max_cov and clique also take an optional witness: an assignment, a
right labeling or a vertex list. They check it themselves (sat_max and max_cov
charge one node per clause or left vertex tested) and return at once when it
reaches the trivial upper bound (m clauses, |U| left vertices); otherwise its
value seeds the search's lower bound. A witness that fails its check is
ignored, so it can make a call faster but never change its value.

ORACLES is the one table of the solvers: one row per oracle, keyed by its
function's name, with its `gapred solve` problem, the instance kind it reads,
its one extra argument and whether it takes a witness. `call` runs an oracle
by name; `gapred solve`, the verification harness and the gap-formula
generator all go through it.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import BudgetExceededError, ValidationError
from .instances import (CnfFormula, Graph, LabelCover, SetSystem, _columns, bits_of, digit_table,
                        pairs_of)


@dataclass(frozen=True)
class SolveBudget:
    """Caps on search-tree nodes and wall-clock time for one solver call."""

    max_nodes: int = 50_000_000
    max_millis: int = 120_000

    def __post_init__(self):
        if not (self.max_nodes > 0 and self.max_millis > 0):  # NaN fails too
            raise ValidationError("budget limits must be positive")


DEFAULT_BUDGET = SolveBudget()


class Oracle(NamedTuple):
    """One exact oracle, as `gapred solve`, verify and the gap ledger use it.

    `problem` is its `gapred solve` name (None when only verify calls it),
    `kind` the instance kind it reads, `extra` its one argument after the
    instance as the solve flag's (name, type, default), or None, and
    `witness` whether it takes `witness=`.
    """

    problem: str | None
    kind: str
    extra: tuple[str, type, object] | None = None
    witness: bool = False


# Rows hold names, not functions, so `call` sees a wrapped or replaced oracle.
ORACLES = {
    "sat_max": Oracle("sat-max", "cnf", witness=True),
    "max_cov": Oracle("max-cov", "lc", witness=True),
    "min_lab": Oracle("min-lab", "lc"),
    "clique": Oracle("clique", "graph", witness=True),
    "independent_set": Oracle("independent-set", "graph"),
    "biclique": Oracle("biclique", "graph"),
    "count_ktt": Oracle("count-ktt", "graph", ("t", int, 1)),
    "set_cover": Oracle("set-cover", "setsystem"),
    "dom_set": Oracle("dom-set", "graph"),
    "induced_matching": Oracle("induced-matching", "graph"),
    "induced_path": Oracle("induced-path", "graph"),
    "induced_path_at_least": Oracle(None, "graph"),
    "densest_k": Oracle("densest-k", "graph", ("k", int, 2)),
    "max_induced_with_property": Oracle("max-induced", "graph", ("property", str, "forest")),
}

__all__ = ["SolveBudget", "DEFAULT_BUDGET", "Oracle", "ORACLES", "call", "SUPPORTED_PROPERTIES",
           *ORACLES]


def call(name: str, instance, *args, budget: SolveBudget | None = None, witness=None):
    """The value of oracle `name` on `instance`; `args` is its extra argument.

    The oracle is looked up by name on each call, so a wrapped or replaced
    oracle is seen. A witness goes only to the oracles whose row takes one.
    """
    hint = {"witness": witness} if ORACLES[name].witness and witness is not None else {}
    return globals()[name](instance, *args, budget, **hint)


# _Meter reads the clock after `interval` nodes: 1 at first, doubled up to
# _MAX_INTERVAL while reads come under _QUICK_READ seconds apart, and halved
# when they do not, so costly nodes are timed one by one and cheap ones in bulk.
_MAX_INTERVAL = 4096
_QUICK_READ = 0.001


class _Meter:
    """Node counter with wall-clock checks spaced by how fast nodes go."""

    __slots__ = ("nodes", "max_nodes", "deadline", "next_check", "interval", "last_read")

    def __init__(self, budget: SolveBudget | None):
        budget = budget or DEFAULT_BUDGET
        self.nodes = 0
        self.max_nodes = budget.max_nodes
        self.last_read = time.monotonic()
        self.deadline = self.last_read + budget.max_millis / 1000.0
        self.interval = self.next_check = 1

    def tick(self, n: int = 1):
        self.nodes += n
        if self.nodes > self.max_nodes:
            raise BudgetExceededError(f"node budget exceeded ({self.max_nodes})")
        if self.nodes >= self.next_check:
            now = time.monotonic()
            if now > self.deadline:
                raise BudgetExceededError("time budget exceeded")
            if now - self.last_read < _QUICK_READ:
                self.interval = min(2 * self.interval, _MAX_INTERVAL)
            else:
                self.interval = max(self.interval // 2, 1)
            self.last_read = now
            self.next_check = self.nodes + self.interval


# ---------------------------------------------------------------------------
# Bit-sliced labeling spaces
#
# sat_max and max_cov enumerate every labeling of a space of `digits` digits in
# base `radix`; labeling x has digit d equal to (x // radix**d) % radix. Each
# labeling is one bit of a big int, so a clause or a left vertex becomes one
# truth table, and counting over all labelings takes a few big-int operations
# per table (bitslicing, Biham, "A fast new DES implementation in software",
# FSE 1997).

# Widest chunk of a labeling space held in one int, as a power of two.
_CHUNK_BITS = 20
# Most bits of digit tables one chunk may hold, as a power of two (8 MiB).
_TABLE_BITS = 26


def _chunks(radix: int, digits: int, tables: int, meter: _Meter):
    """Cover the labeling space chunk by chunk, in increasing labeling order.

    Yields (offset, ones, table): the chunk holds labelings offset + i for the
    set bits i of `ones`, and table(d, values) is the bitset of those whose
    digit d lies in the bitmask `values`. The low digits take every value in a
    chunk, the next digit a run of consecutive values and the high digits one
    value each. A chunk is at most 2^_CHUNK_BITS wide, and narrower when the
    caller's `tables` distinct tables would pass 2^_TABLE_BITS bits; so memory
    is bounded and no table is ever built per label. Each chunk ticks the meter
    by its size first.
    """
    cap = max(1, min(1 << _CHUNK_BITS, (1 << _TABLE_BITS) // max(1, tables)))
    low, place = 0, 1
    while low < digits and place * radix <= cap:
        low, place = low + 1, place * radix
    part = min(radix, cap // place) if low < digits else 1
    # Tables of the low digits are periodic from bit 0, so they are built once
    # at full chunk width and cut down for a narrower last run.
    full = place * part
    periodic: dict[tuple[int, int], int] = {}
    for high in range(radix ** max(0, digits - low - 1)):
        for first in range(0, radix if low < digits else 1, part):
            count = min(part, radix - first)
            width, offset = place * count, (high * radix + first) * place
            ones = (1 << width) - 1
            meter.tick(width)
            memo: dict[tuple[int, int], int] = {}

            def table(d: int, values: int) -> int:
                key = (d, values)
                hit = memo.get(key)
                if hit is None:
                    if d < low:
                        hit = periodic.get(key)
                        if hit is None:
                            hit = periodic[key] = digit_table(values, radix, radix**d, full)
                        if width < full:
                            hit &= ones
                    elif d == low:
                        mask = values >> first & ((1 << count) - 1)
                        hit = digit_table(mask, count, place, width)
                    else:
                        hit = ones if values >> (offset // radix**d % radix) & 1 else 0
                    memo[key] = hit
                return hit

            yield offset, ones, table


def _max_count(tables, ones: int) -> int:
    """Largest number of `tables` sharing one set bit of `ones`.

    The tables are summed into vertical bit-sliced counters (planes[i] holds
    bit i of every position's count); the maximum is then read plane by plane
    from the top, keeping the positions that can still attain it.
    """
    planes: list[int] = []
    for carry in tables:
        for i, plane in enumerate(planes):
            if not carry:
                break
            planes[i], carry = plane ^ carry, plane & carry
        if carry:
            planes.append(carry)
    best, alive = 0, ones
    for i in range(len(planes) - 1, -1, -1):
        hit = alive & planes[i]
        if hit:
            alive = hit
            best |= 1 << i
    return best


# ---------------------------------------------------------------------------
# 3-SAT


def _clause_tables(formula: CnfFormula, table):
    """Per clause, the bitset of the chunk's assignments that satisfy it."""
    for clause in formula.clauses:
        hit = 0
        for lit in clause:
            hit |= table(abs(lit) - 1, 2 if lit > 0 else 1)
        yield hit


def _is_labeling(labels, size: int, alphabet: int) -> bool:
    """Whether `labels` is a sequence of `size` ints in range(alphabet)."""
    return (isinstance(labels, (tuple, list)) and len(labels) == size
            and all(type(b) is int and 0 <= b < alphabet for b in labels))


def _satisfied(formula: CnfFormula, assignment) -> int:
    """Clauses the witness `assignment` (value of variable i + 1 at index i)
    satisfies, or -1 when it is no 0/1 sequence of num_vars values."""
    if not _is_labeling(assignment, formula.num_vars, 2):
        return -1
    return sum(
        any(assignment[abs(lit) - 1] == (lit > 0) for lit in clause) for clause in formula.clauses
    )


def sat_max(formula: CnfFormula, budget: SolveBudget | None = None, witness=None) -> int:
    """Maximum number of clauses satisfied by any assignment (full enumeration).

    Variable i + 1 is bit i of an assignment; the meter is charged per chunk
    of assignments. A `witness` assignment, the value of variable i + 1 at
    index i, that satisfies every clause settles the call.
    """
    meter = _Meter(budget)
    if witness is not None:
        meter.tick(formula.num_clauses)
        if _satisfied(formula, witness) == formula.num_clauses:
            return formula.num_clauses
    best = 0
    literals = {lit for clause in formula.clauses for lit in clause}
    for _, ones, table in _chunks(2, formula.num_vars, len(literals), meter):
        best = max(best, _max_count(_clause_tables(formula, table), ones))
        if best == formula.num_clauses:
            break
    return best


# ---------------------------------------------------------------------------
# Label cover problems


def _label_rows(lc: LabelCover):
    """Per left vertex with edges, its neighbours and the beta-mask rows of its labels.

    A row holds one label's masks on the vertex's edges, in neighbour order,
    for each admissible label whose masks are all nonzero. Rows that agree on
    every edge but the last are merged into one that ORs their last masks: a
    right labeling meets one of them exactly when it meets the merged row.
    Only the labels stored on the first edge are scanned, so the cost follows
    the relations, not the admissible sets. Left vertices without edges get
    no entry: they are covered exactly when they have an admissible label.
    """
    entries = {}
    for u, nbrs in enumerate(lc.left_neighbors):
        if not nbrs:
            continue
        allowed = lc.admissible[u]
        edges = [lc.betas[u, v] for v in nbrs]
        first = edges[0].keys()
        labels = list(first) if first <= allowed else [a for a in first if a in allowed]
        for masks in edges[1:]:
            if masks.keys() != first:
                labels = [a for a in labels if a in masks]
        *prefix, last = (list(map(masks.__getitem__, labels)) for masks in edges)
        keys = zip(*prefix) if prefix else itertools.repeat(())
        merged: dict[tuple[int, ...], int] = {}
        for key, mask in zip(keys, last):
            merged[key] = merged.get(key, 0) | mask
        entries[u] = (nbrs, [(*key, mask) for key, mask in merged.items()])
    return entries


def _cover_tables(entries, ones: int, table):
    """Per left vertex, the bitset of the chunk's right labelings that cover it.

    That is the OR over its label rows of the AND over the row's edges of the
    labelings giving v a label in the edge's beta mask. The chunk's `table`
    memoizes those last bitsets per (v, beta mask): compressed instances repeat
    masks heavily.
    """
    for nbrs, rows in entries:
        covered = 0
        for row in rows:
            t = ones
            for v, mask in zip(nbrs, row):
                t &= table(v, mask)
                if not t:
                    break
            covered |= t
        yield covered


def _covered(lc: LabelCover, labeling) -> int:
    """Left vertices the witness right `labeling` covers, or -1 when it is no
    labeling of the right side. A vertex with no edges is covered when it has
    an admissible label, which is tested without listing its labels."""
    if not _is_labeling(labeling, lc.right_size, lc.right_alphabet):
        return -1
    return sum(bool(lc.fitting_labels(u, labeling) if nbrs else lc.admissible[u])
               for u, nbrs in enumerate(lc.left_neighbors))


def max_cov(lc: LabelCover, budget: SolveBudget | None = None, witness=None) -> int:
    """Maximum number of covered left vertices, by enumerating right labelings.

    A left vertex with no incident edges counts as covered as long as it has
    an admissible label. Right vertex v is digit v of a right labeling; the
    meter is charged per chunk of labelings. A `witness` right labeling that
    covers every left vertex settles the call; one that covers fewer seeds
    the best count.
    """
    meter = _Meter(budget)
    covered = -1
    if witness is not None:
        meter.tick(lc.left_size)
        covered = _covered(lc, witness)
        if covered == lc.left_size:
            return covered
    free = sum(
        1 for u, nbrs in enumerate(lc.left_neighbors) if not nbrs and lc.admissible[u]
    )
    entries = [entry for entry in _label_rows(lc).values() if entry[1]]
    keys = {key for nbrs, rows in entries for row in rows for key in zip(nbrs, row)}
    best = max(0, covered - free)
    for _, ones, table in _chunks(lc.right_alphabet, lc.right_size, len(keys), meter):
        best = max(best, _max_count(_cover_tables(entries, ones, table), ones))
        if free + best == lc.left_size:
            break
    return free + best


def min_lab(lc: LabelCover, budget: SolveBudget | None = None) -> int | None:
    """Minimum total right labels in a multi-labeling covering every left vertex.

    Enumerates right label-set assignments by increasing total cost (each left
    vertex can then pick its label independently), which stays feasible when
    left vertices are many. Returns None when no multi-labeling covers every
    left vertex.
    """
    meter = _Meter(budget)
    # Feasibility with every label allowed: each u needs an admissible label,
    # one whose beta masks are nonzero on all its edges if it has edges.
    entries = _label_rows(lc)
    for u in range(lc.left_size):
        if not (entries[u][1] if u in entries else lc.admissible[u]):
            return None

    live = [v for v in range(lc.right_size) if lc.right_neighbors[v]]
    usable = {}
    for v in live:
        labels = 0
        for u in lc.right_neighbors[v]:
            allowed = lc.admissible[u]
            for a, mask in lc.betas[u, v].items():
                if a in allowed:
                    labels |= mask
        usable[v] = list(bits_of(labels))

    def feasible(choice: dict[int, int]) -> bool:
        # choice: right vertex -> chosen beta bitmask
        return all(
            any(all(mask & choice[v] for v, mask in zip(nbrs, row)) for row in rows)
            for nbrs, rows in entries.values()
        )

    caps = [len(usable[v]) for v in live]
    # tail_max[i]: the most labels live[i:] can take.
    tail_max = list(itertools.accumulate(reversed(caps), initial=0))[::-1]

    def size_vectors(total):
        """The label counts (one per live vertex, each at least 1) summing to
        `total`, in lexicographic order."""
        stack = [((), total)]
        while stack:
            sizes, rest = stack.pop()
            idx = len(sizes)
            if idx == len(live):
                yield sizes
                continue
            # After this vertex, each of the others takes 1 to its cap.
            low, high = len(live) - idx - 1, tail_max[idx + 1]
            stack.extend((sizes + (size,), rest - size) for size in range(caps[idx], 0, -1)
                         if low <= rest - size <= high)

    if not live:
        return 0
    for total in range(len(live), tail_max[0] + 1):
        for sizes in size_vectors(total):
            pools = [itertools.combinations(usable[v], size) for v, size in zip(live, sizes)]
            for picks in itertools.product(*pools):
                meter.tick()
                masks = (sum(1 << b for b in labels) for labels in picks)
                if feasible(dict(zip(live, masks))):
                    return total
    raise AssertionError("full label sets were feasible but enumeration missed them")


# ---------------------------------------------------------------------------
# Graph problems


def _clique_number(adj, n: int, meter: _Meter, best: int = 0) -> int:
    """Clique number of the graph on range(n) with neighbour bitmasks `adj`,
    by branch and bound with greedy coloring bounds.

    The search colors and branches in vertex-index order, exactly as given:
    callers that want another order (highest degree first, say) relabel the
    graph when they build its masks. Coloring records only the vertices whose
    color can still beat the best clique; the branch loop would cut the rest.
    `best` is the size of a clique the caller already holds: the search looks
    only for larger ones, so a maximum one closes it at the root whenever the
    root coloring uses no more colors.

    Each open node is a frame [order, bounds, i, rest, size] on an explicit
    stack: its branch vertices with their color bounds, the next branch
    index (branches run from the last one down), the candidates not yet
    branched on, and the clique size there. Its next branch is bounded
    against the best clique its earlier branches left.
    """
    if n == 0:
        return 0
    # Masks are loop-free, so clearing a class member's non-neighbours keeps
    # the member itself, which `^ low` then drops.
    non_adj = [~mask for mask in adj]
    stack = []
    candidates, size = (1 << n) - 1, 0
    while True:
        meter.tick()
        if candidates == 0:
            if size > best:
                best = size
        else:
            # Greedy coloring: color classes bound the clique extension size.
            # The first best - size classes cannot lead past `best`, so their
            # vertices are colored but not recorded.
            order: list[int] = []
            bounds: list[int] = []
            floor = best - size
            uncolored = candidates
            color = 0
            while uncolored:
                color += 1
                cls = uncolored
                while cls:
                    low = cls & -cls
                    v = low.bit_length() - 1
                    uncolored ^= low
                    cls = cls & non_adj[v] ^ low
                    if color > floor:
                        order.append(v)
                        bounds.append(color)
            stack.append([order, bounds, len(order), candidates, size])
        # Descend into the next branch of the deepest frame that has one.
        while stack:
            frame = stack[-1]
            order, bounds, i, rest, size = frame
            i -= 1
            if i >= 0 and size + bounds[i] > best:
                v = order[i]
                frame[2], frame[3] = i, rest & ~(1 << v)
                candidates, size = rest & adj[v], size + 1
                break
            stack.pop()
        else:
            return best


def _clique_size(adj, vertices) -> int:
    """len(vertices) if they are distinct vertices of `adj` and pairwise adjacent, else 0."""
    if not isinstance(vertices, (tuple, list)):
        return 0
    if not all(type(v) is int and 0 <= v < len(adj) for v in vertices):
        return 0
    mask = sum(1 << v for v in set(vertices))
    if mask.bit_count() != len(vertices):
        return 0
    return len(vertices) if all((adj[v] | 1 << v) & mask == mask for v in vertices) else 0


def clique(graph: Graph, budget: SolveBudget | None = None, witness=None) -> int:
    """Exact clique number via branch and bound with greedy coloring bounds.

    The search runs in vertex-index order. The reductions emit their vertices
    grouped by part (FGLSS super-vertices, DkS windows), which is already the
    order the coloring wants; relabelling by degree was measured to search
    more nodes on those graphs. A `witness` list of pairwise adjacent
    vertices seeds the best clique; its check, one row test per witness
    vertex, is charged with the root node, whose coloring tests every row.
    """
    adj, n = graph.adjacency, graph.num_vertices
    if witness is None:
        return _clique_number(adj, n, _Meter(budget))
    return _clique_number(adj, n, _Meter(budget), _clique_size(adj, witness))


def independent_set(graph: Graph, budget: SolveBudget | None = None) -> int:
    """Exact independence number: the clique number of the complement.

    The complement is searched with the vertices in ascending graph degree,
    that is descending complement degree (the initial order of MCQ, Tomita
    and Seki, DMTCS 2003).
    """
    adj = graph.adjacency
    order = sorted(range(graph.num_vertices), key=lambda v: adj[v].bit_count())
    complement = graph.complement().induced(order)
    return _clique_number(complement.adjacency, complement.num_vertices, _Meter(budget))


def biclique(graph: Graph, budget: SolveBudget | None = None) -> int:
    """Largest k with disjoint S, T, |S| = |T| = k, complete between them.

    K_{k,k} as a (not necessarily induced) subgraph; the graph need not be
    bipartite. Returns 0 for edgeless graphs. A depth-first search grows S in
    increasing vertex order and keeps the vertices F outside S adjacent to all
    of S; S then pairs with any min(|S|, |F|) vertices of F. F only shrinks as
    S grows, so a branch is cut once |F| or |S| plus the vertices left to add
    cannot beat the best k. When the graph is bipartite, S ranges over the
    smaller class of its 2-coloring only: a biclique with k >= 1 is connected,
    so its two sides lie in opposite classes of one component.
    """
    meter = _Meter(budget)
    adj = graph.adjacency
    if not any(adj):
        return 0
    side = _two_coloring_side(adj)
    pool = list(range(graph.num_vertices) if side is None else bits_of(side))
    best = 0
    # Each open node of the search is a frame [j, S, |S|, common neighbours
    # of S]; it tries adding pool[j], pool[j + 1], ... in turn.
    stack = [[0, 0, 0, -1]]
    while stack:
        frame = stack[-1]
        j, chosen, size, common = frame
        if j == len(pool) or size + len(pool) - j <= best:
            stack.pop()
            continue
        frame[0] = j + 1
        v = pool[j]
        meter.tick()
        s = chosen | 1 << v
        c = common & adj[v]
        free = (c & ~s).bit_count()
        if free > best:
            best = max(best, min(size + 1, free))
            stack.append([j + 1, s, size + 1, c])
    return best


def _two_coloring_side(adj) -> int | None:
    """The smaller class of a proper 2-coloring of `adj` as a mask, or None.

    Each component is split by the parity of its BFS levels from its lowest
    vertex; an edge inside one level is an odd cycle. On a tie the even
    class wins, which on a doubling gadget is its left side.
    """
    classes, unseen = [0, 0], (1 << len(adj)) - 1
    while unseen:
        frontier, parity = unseen & -unseen, 0
        while frontier:
            unseen &= ~frontier
            classes[parity] |= frontier
            reached = 0
            for v in bits_of(frontier):
                reached |= adj[v]
            if reached & frontier:
                return None
            frontier, parity = reached & unseen, parity ^ 1
    return min(classes, key=int.bit_count)


def count_ktt(graph: Graph, t: int, budget: SolveBudget | None = None) -> int:
    """Number of unordered disjoint pairs {S, T}, |S| = |T| = t, complete between them.

    An ordered-pair count is exactly twice this value.
    """
    if t < 1:
        raise ValidationError("t must be >= 1")
    meter = _Meter(budget)
    n = graph.num_vertices
    adj = graph.adjacency
    ordered = 0
    for combo in itertools.combinations(range(n), t):
        meter.tick()
        common = -1
        mask = 0
        for v in combo:
            common &= adj[v]
            mask |= 1 << v
        avail = (common & ~mask).bit_count()
        if avail >= t:
            ordered += math.comb(avail, t)
    # Each unordered pair was counted once per side.
    assert ordered % 2 == 0
    return ordered // 2


def set_cover(system: SetSystem, budget: SolveBudget | None = None) -> int | None:
    """Exact minimum set cover; None when some element is uncovered by all sets."""
    return _min_cover(system.masks, system.universe_size, _Meter(budget))


def _min_cover(masks, n: int, meter: _Meter) -> int | None:
    """Fewest of the element bitmasks `masks` whose union is range(n), by
    branch and bound; None when their union falls short.

    The root is decided first: when the greedy cover is no larger than
    ceil(n / largest set), greedy is optimal, and the call returns it for one
    node before building the per-element candidate lists. Every search node,
    the root included, ticks the meter once.
    """
    if n == 0:
        return 0
    full = (1 << n) - 1
    union = 0
    for m in masks:
        union |= m
    if union != full:
        return None
    # Greedy upper bound.
    uncovered = full
    greedy = 0
    while uncovered:
        bestmask = max(masks, key=lambda m: (m & uncovered).bit_count())
        uncovered &= ~bestmask
        greedy += 1
    max_size = max(m.bit_count() for m in masks)
    if -(-n // max_size) >= greedy:
        meter.tick()  # the root, settled by its bound
        return greedy
    best = greedy
    # covers_elem[e]: the sets holding element e, in the order given; the
    # transpose reads them without shifting every set once per element.
    covers_elem = [[masks[i] for i in bits_of(column)] for column in _columns(masks, n)]
    # Depth first over (uncovered elements, sets used); children are pushed
    # last first, so they are popped, and bounded, in branching order.
    stack = [(full, 0)]
    while stack:
        uncov, used = stack.pop()
        meter.tick()
        if not uncov:
            if used < best:
                best = used
            continue
        if used + -(-uncov.bit_count() // max_size) >= best:
            continue
        # Branch on the uncovered element with the fewest candidate sets,
        # the sets covering most of the rest first.
        elem = min(bits_of(uncov), key=lambda e: len(covers_elem[e]))
        branches = sorted(covers_elem[elem], key=lambda m: -(m & uncov).bit_count())
        stack.extend((uncov & ~m, used + 1) for m in reversed(branches))
    return best


def dom_set(graph: Graph, budget: SolveBudget | None = None) -> int:
    """Exact domination number (always feasible: every vertex dominates itself)."""
    closed = [mask | 1 << v for v, mask in enumerate(graph.adjacency)]
    return _min_cover(closed, graph.num_vertices, _Meter(budget))


def _touched(adj, edges) -> list[int]:
    """Per edge (a, b), the bitmask over `edges` of those with an endpoint in
    N[a] | N[b], the edge itself included."""
    incident = [0] * len(adj)
    for i, (a, b) in enumerate(edges):
        incident[a] |= 1 << i
        incident[b] |= 1 << i
    # closed[w]: the edges touching the closed neighbourhood of w.
    closed = []
    for w, mask in enumerate(adj):
        hit = incident[w]
        for x in bits_of(mask):
            hit |= incident[x]
        closed.append(hit)
    return [closed[a] | closed[b] for a, b in edges]


def _kept_edges(adj) -> list[tuple[int, int]]:
    """The edges (a, b), a < b, left after dropping every dominated edge.

    When a neighbour x of c has N[x] ⊆ N[c] (closed neighbourhoods), the edge
    (c, x) touches only the edges at N[c], and every other edge at c touches
    all of those, so an induced matching can trade any other edge at c for
    (c, x). Each such c keeps only its edge to the lowest such x, and an edge
    survives if both endpoints keep it. Following the trades from a dropped
    edge reaches a kept one: closed neighbourhoods shrink along the way, and
    among true twins the two lowest keep the edge between them.
    """
    closed = [mask | 1 << v for v, mask in enumerate(adj)]
    keep = list(adj)  # keep[c]: the neighbours c keeps its edges to
    chosen = 0  # the vertices c whose x is found; x ascends, so it is the lowest
    for x, mask in enumerate(adj):
        # The vertices c with N[x] ⊆ N[c] are those in every N[w], w in N[x];
        # x is in all of them, so the scan stops once x is all that is left.
        common = closed[x]
        only = 1 << x
        while mask and common != only:
            low = mask & -mask
            common &= closed[low.bit_length() - 1]
            mask ^= low
        dominators = common & ~(chosen | only)
        if dominators:
            chosen |= dominators
            for c in bits_of(dominators):
                keep[c] = only
    if not chosen:
        return list(pairs_of(adj))
    # pairs_of yields each b > a that a keeps; the edge survives if b keeps a.
    return [(a, b) for a, b in pairs_of(keep) if keep[b] >> a & 1]


def induced_matching(graph: Graph, budget: SolveBudget | None = None) -> int:
    """Maximum induced matching: edges pairwise disjoint with no cross edges.

    Two edges are compatible iff vertex-disjoint and with no edge between
    their endpoints; an induced matching is a clique of the compatibility
    graph, whose edge i is compatible with every edge it does not touch. The
    search first drops dominated edges (`_kept_edges`), which keeps the
    optimum: on the pendant gadget `is_to_im_gadget(G)` only the n pendant
    edges are left, whose compatibility graph is the complement of G. The
    kept edges are numbered by ascending touched count, that is descending
    compatibility degree, so the clique search runs highest degree first.
    """
    adj = graph.adjacency
    edges = _kept_edges(adj)
    if not edges:
        return 0
    counts = [t.bit_count() for t in _touched(adj, edges)]
    edges = [edges[i] for i in sorted(range(len(edges)), key=counts.__getitem__)]
    full = (1 << len(edges)) - 1
    compat = [full & ~t for t in _touched(adj, edges)]
    return _clique_number(compat, len(edges), _Meter(budget))


def _longest_induced_path(graph: Graph, meter: _Meter, stop_at: int | None) -> int:
    n = graph.num_vertices
    if n == 0:
        return 0
    adj = graph.adjacency
    full = (1 << n) - 1
    best = 1
    # Depth first from each start vertex over (last vertex, path, vertices
    # blocked before `last`, length); the next vertices are pushed highest
    # first, so they are popped lowest first.
    for start in range(n):
        stack = [(start, 1 << start, 0, 1)]
        while stack:
            last, path, blocked, length = stack.pop()
            meter.tick()
            if length > best:
                best = length
            if stop_at is not None and best >= stop_at:
                return best
            new_blocked = blocked | adj[last]
            # The next vertex is a neighbour of `last`; every later one avoids
            # the path and every neighbour of the path so far. A branch that
            # cannot beat `best` (or reach `stop_at`) is cut.
            reach = length + 1 + (full & ~path & ~new_blocked).bit_count()
            if reach <= (best if stop_at is None else stop_at - 1):
                continue
            cands = adj[last] & ~path & ~blocked
            while cands:
                v = cands.bit_length() - 1
                cands ^= 1 << v
                stack.append((v, path | 1 << v, new_blocked, length + 1))
    return best


def induced_path(graph: Graph, budget: SolveBudget | None = None) -> int:
    """Maximum |S| with G[S] a simple path; a single vertex is a path of size 1."""
    return _longest_induced_path(graph, _Meter(budget), None)


def induced_path_at_least(graph: Graph, k: int, budget: SolveBudget | None = None) -> bool:
    """Decision variant with early exit once a path of size k is found."""
    if k <= 0:
        return True
    return _longest_induced_path(graph, _Meter(budget), k) >= k


def densest_k(graph: Graph, k: int, budget: SolveBudget | None = None) -> Fraction:
    """Maximum density E(G[S]) / C(k,2) over k-subsets, as an exact fraction."""
    n = graph.num_vertices
    if not 2 <= k <= n:
        raise ValidationError(f"k must satisfy 2 <= k <= {n}, got {k}")
    meter = _Meter(budget)
    adj = graph.adjacency
    denom = math.comb(k, 2)
    best = 0
    for combo in itertools.combinations(range(n), k):
        meter.tick()
        mask = 0
        for v in combo:
            mask |= 1 << v
        inside = sum((adj[v] & mask).bit_count() for v in combo) // 2
        if inside > best:
            best = inside
            if best == denom:
                break
    return Fraction(best, denom)


def _subset_forest(adj, mask) -> bool:
    # Leaf pruning: repeatedly strip vertices with at most one neighbor in the
    # subset; a cycle never becomes prunable.
    cur = mask
    changed = True
    while cur and changed:
        changed = False
        m = cur
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            if (adj[v] & cur).bit_count() <= 1:
                cur ^= low
                changed = True
    return cur == 0


def _subset_triangle_free(adj, mask) -> bool:
    m = mask
    while m:
        low = m & -m
        m ^= low
        v = low.bit_length() - 1
        others = adj[v] & mask
        w = others
        while w:
            lw = w & -w
            w ^= lw
            u = lw.bit_length() - 1
            if u > v and adj[u] & others:
                return False
    return True


# Each property's subset test, and the smallest s with K_s outside it, which
# hereditary_bridge reads. The edgeless sets are the independent sets, so
# "edgeless" has no test: `independent_set` solves it without enumeration.
SUPPORTED_PROPERTIES = {
    "edgeless": (None, 2),
    "forest": (_subset_forest, 3),
    "triangle-free": (_subset_triangle_free, 3),
}


def max_induced_with_property(
    graph: Graph, prop: str, budget: SolveBudget | None = None
) -> int:
    """Largest |S| with G[S] in the property class: `independent_set` for
    "edgeless", subset enumeration for the others."""
    if prop not in SUPPORTED_PROPERTIES:
        raise ValidationError(f"unsupported property {prop!r}")
    checker, _ = SUPPORTED_PROPERTIES[prop]
    if checker is None:
        return independent_set(graph, budget)
    meter = _Meter(budget)
    n = graph.num_vertices
    adj = graph.adjacency
    best = 0
    for mask in range(1 << n):
        meter.tick()
        if mask.bit_count() > best and checker(adj, mask):
            best = mask.bit_count()
    return best
