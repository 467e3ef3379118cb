"""Label-cover-level transformations.

The pipeline's intermediate representation is the LabelCover; this module
lowers CNF into it and compresses either side:

- cnf_to_labelcover: clauses become left vertices, variables right vertices,
  relations demand consistency plus clause truth. A clause's game is fixed by
  its literals' signs, so it is built once per sign pattern; clauses with one
  pattern share its admissible set, and every edge gets its own beta store.
- compress_left: left vertices become disperser subsets of old left vertices;
  labels become joint partial labelings.
- compress_right: right vertices are merged into q blocks and the left side
  becomes all ell-subsets, amplifying the covered-fraction gap to gamma.
- minlab_instance: compress_right at gamma = (r/q)^-q, the configuration whose
  random-labeling argument turns a MaxCov gap into a MinLab gap.

Compressed labels enumerate only tuples that are admissible per member and
have at least one compatible right label on every incident edge; dropping the
other tuples changes no coverage count and keeps the projection property
intact when the source has it. Super-vertices may end up with an empty
admissible set (they can never be covered), which is how unsatisfiable
sources surface after compression.

Both compressions run one loop (`_compress`), which builds a super-vertex's
labels with one join (`_joint_labels`) that keeps one packed int per kept
tuple, in the tuples' itertools.product order, and no tuple itself; each
compression supplies only how the kept packed ints project onto its right
vertices. Their size cap bounds the live prefixes: the join refuses a
super-vertex once more than size_cap partial tuples survive some member, so a
product far above the cap is joined when the members' constraints prune it.

Every transform reads and builds the LabelCover's stored form, one
{alpha: beta mask} dict per edge (`LabelCover.betas`), and builds no relation
pair; the compressions' cap on relation pairs sums the masks' popcounts. Each
output is built through `LabelCover._bounded`, which checks its counts, and the
compressions count their beta masks as they build them, so whatever a
transform returns obeys the instances' size rule and parses back from its
file, at any `size_cap`.

The join works on packed ints only: a kept tuple's right-label masks are one
int with an (ra+1)-bit lane per touched right vertex, the right alphabet's bits
under a zero guard bit. Extending a tuple is one AND, and one add-and-mask
tests every lane for emptiness at once (a nonempty lane carries into its
guard bit). The compressions read their beta masks straight from that int:
left compression's mask on a touched vertex is its lane, and a right
compression block's touched vertices are contiguous lanes, so each block is
one bit slice, which `_BlockLabels` maps to the block's beta mask, memoized
per block layout; within one call, layouts share the memo of an offset suffix.
"""

from __future__ import annotations

import itertools
import math

from .dispersers import Disperser, deterministic_disperser, random_disperser
from .errors import SizeCapError, ValidationError
from .instances import (
    DEFAULT_SIZE_CAP,
    CnfFormula,
    LabelCover,
    _MaskBits,
    digit_table,
)
from .oracles import SolveBudget

__all__ = [
    "cnf_to_labelcover",
    "compress_left",
    "compress_left_with",
    "compress_right",
    "minlab_instance",
    "projection_check",
]


# ---------------------------------------------------------------------------
# CNF lowering


def _clause_game(signs: tuple[bool, ...]) -> tuple[frozenset[int], tuple[dict[int, int], ...]]:
    """The game of a clause whose literal at position p is positive iff
    signs[p]: its satisfying labels, and for each position the
    {alpha: 1 << bit} store of its edge, the labels ascending."""
    satisfying = [alpha for alpha in range(8)
                  if any((alpha >> p & 1) == sign for p, sign in enumerate(signs))]
    stores = tuple({alpha: 1 << (alpha >> p & 1) for alpha in satisfying}
                   for p in range(len(signs)))
    return frozenset(satisfying), stores


def cnf_to_labelcover(formula: CnfFormula) -> LabelCover:
    """Clause-variable game: MaxCov of the output equals sat_max of the input.

    Left labels are width-3 bit vectors (clauses narrower than 3 are padded
    with free bits); the admissible set of a clause holds exactly its
    satisfying partial assignments, which restores the exactly-one-beta
    projection property on every edge.

    A clause's game depends only on the signs of its literals, so it is built
    once per sign pattern (at most 14 of them): clauses with one pattern share
    one admissible frozenset, and each edge gets its own copy of its
    position's beta store.
    """
    # Each beta mask is 1 << bit and a clause has at most 3 edges of 8 labels,
    # so the masks hold at most 48 bits a clause: under the size rule's mask
    # bound at the clause cap, so they are not counted one by one.
    betas = {}
    admissible = {}
    games = {}
    for i, clause in enumerate(formula.clauses):
        signs = tuple([lit > 0 for lit in clause])
        game = games.get(signs)
        if game is None:
            game = games[signs] = _clause_game(signs)
        admissible[i], stores = game
        for lit, store in zip(clause, stores):
            betas[i, abs(lit) - 1] = store.copy()
    return LabelCover._bounded(
        left_size=formula.num_clauses,
        right_size=formula.num_vars,
        left_alphabet=8,
        right_alphabet=2,
        betas=betas,
        admissible=admissible,
    )


# ---------------------------------------------------------------------------
# Joint labels of a super-vertex, and the compression loop over them


def _joint_labels(
    lc: LabelCover, members, size_cap: int, index: int
) -> tuple[list[int], list[int]]:
    """The labels of super-vertex `index`: joint labelings of its `members`.

    Returns the right vertices the members touch (ascending), and one packed
    int of right-label masks per kept joint labeling (a tuple of admissible
    member labels), in the itertools.product order of those tuples. With ra
    the right alphabet, the int holds one lane of ra + 1 bits per touched
    vertex, in touched order: lane p is bits p*(ra+1) .. p*(ra+1) + ra - 1,
    the AND of the members' right-label masks on that vertex, and a zero guard
    bit above them. A joint labeling is kept when every lane is nonempty. The
    labelings themselves are never built: a prefix is its packed int.

    The members are joined one at a time: each surviving prefix is extended by
    the next member's admissible labels in ascending order and dropped as soon
    as a lane empties. A member's label is one precomputed int, all ones except
    on its edges' lanes, which hold its right-label masks, so extending a
    prefix is one AND. Adding 2^ra - 1 to a lane carries into its guard bit
    exactly when the lane is nonempty, so `(word + full) & guard == guard` tests
    every lane at once. A kept prefix has no empty lane, so the labels that fit
    it depend only on its lanes on the member's edges; they are tested once per
    distinct value of those lanes. The join is iterative, so long member lists
    do not recurse.

    The cap bounds the live prefixes, not the product: SizeCapError is raised
    as soon as the prefixes kept after some member pass `size_cap`, so at
    most size_cap prefixes are ever extended.
    """
    choice_lists = [lc.admissible_list(u) for u in members]
    touched = sorted({v for u in members for v in lc.left_neighbors[u]})
    ra = lc.right_alphabet
    lane = (1 << ra) - 1
    shift = {v: p * (ra + 1) for p, v in enumerate(touched)}
    ones = sum(1 << s for s in shift.values())
    full, guard = lane * ones, (lane + 1) * ones
    packed = [full]
    for t, (u, choices) in enumerate(zip(members, choice_lists), 1):
        edges = [(shift[v], lc.betas[u, v]) for v in lc.left_neighbors[u]]
        others = full
        for s, _ in edges:
            others ^= lane << s
        extensions = []
        for alpha in choices:
            mask = others
            for s, masks in edges:
                mask |= masks.get(alpha, 0) << s
            extensions.append(mask)
        # The labels that fit a prefix, per its lanes on the member's edges.
        fits: dict[int, list[int]] = {}
        next_packed = []
        for word in packed:
            key = word & ~others
            fit = fits.get(key)
            if fit is None:
                fit = fits[key] = [mask for mask in extensions
                                   if (((key | others) & mask) + full) & guard == guard]
            for mask in fit:
                next_packed.append(word & mask)
            if len(next_packed) > size_cap:
                raise SizeCapError(
                    f"super-vertex {index} keeps over {size_cap} partial labelings "
                    f"after {t} of {len(members)} members"
                )
        packed = next_packed
    return touched, packed


class _BlockLabels(dict):
    """Block beta mask allowed by a lane slice, memoized per slice.

    For a block of `size` right vertices whose touched ones sit at `offsets`
    (ascending), maps the packed lanes of those vertices (lane t at bit
    t*(ra+1), as _joint_labels packs them) to the bitmask of block labels, in
    base ra with the first vertex most significant, whose digits each lane
    allows; an untouched vertex allows every digit. That mask is the periodic
    digit table of the first lane ANDed with the mask of the other lanes,
    which `rest`, the memo of the layout without the first offset, holds.

    `shared` holds one compress_right call's memos by (size, offsets), so
    within a call every layout that ends in an offset suffix reads that
    suffix's memo as its `rest`, and their digit tables by (size, offset).
    `of` returns a layout's memo, building it after its suffixes' memos.
    """

    def __init__(self, ra: int, size: int, offsets: tuple[int, ...], shared: dict):
        super().__init__()
        self.ra, self.size, self.offsets = ra, size, offsets
        if offsets:
            self.rest = shared[size, offsets[1:]]
            self.tables = shared.setdefault((size, offsets[0]), {})
        else:
            self.rest = None

    @classmethod
    def of(cls, ra: int, size: int, offsets: tuple[int, ...], shared: dict) -> _BlockLabels:
        labels = shared.get((size, offsets))
        if labels is None:
            for t in range(len(offsets), -1, -1):
                if (size, offsets[t:]) not in shared:
                    shared[size, offsets[t:]] = cls(ra, size, offsets[t:], shared)
            labels = shared[size, offsets]
        return labels

    def __missing__(self, lanes: int) -> int:
        ra, width = self.ra, self.ra**self.size
        if self.rest is None:
            mask = (1 << width) - 1
        else:
            digits = lanes & (1 << ra) - 1
            table = self.tables.get(digits)
            if table is None:
                stride = ra ** (self.size - 1 - self.offsets[0])
                table = self.tables[digits] = digit_table(digits, ra, stride, width)
            mask = table & self.rest[lanes >> ra + 1]
        self[lanes] = mask
        return mask


def _compress(lc: LabelCover, groups, project, right_size: int, right_alphabet: int,
              size_cap: int) -> LabelCover:
    """The compression whose left vertex i joins the i-th member tuple of `groups`.

    Its labels are the joint labelings `_joint_labels` keeps, and
    `project(touched, packed)` yields its edges, one (right vertex, beta mask
    per kept labeling) pair each. SizeCapError is raised once the edges'
    relation pairs pass `size_cap`, or once their beta masks or the output's
    counts break the size rule.
    """
    betas, admissible = {}, {}
    total_pairs, max_labels, widths = 0, 1, _MaskBits("beta")
    for i, members in enumerate(groups):
        touched, packed = _joint_labels(lc, members, size_cap, i)
        admissible[i] = frozenset(range(len(packed)))
        max_labels = max(max_labels, len(packed))
        for v, masks in project(touched, packed):
            total_pairs += sum(map(int.bit_count, masks))
            if total_pairs > size_cap:
                raise SizeCapError(f"relation pairs exceed cap {size_cap}")
            widths.add(sum(map(int.bit_length, masks)))
            betas[i, v] = dict(enumerate(masks))
    return LabelCover._bounded(
        left_size=len(admissible),
        right_size=right_size,
        left_alphabet=max_labels,
        right_alphabet=right_alphabet,
        betas=betas,
        admissible=admissible,
    )


# ---------------------------------------------------------------------------
# Left compression


def compress_left(
    lc: LabelCover,
    *,
    k: int,
    r: int,
    epsilon: float,
    disperser: str = "random",
    seed=None,
    size_cap: int = DEFAULT_SIZE_CAP,
    budget: SolveBudget | None = None,
) -> tuple[LabelCover, Disperser]:
    """Compress the left side down to k disperser subsets, soundness target r.

    The disperser is drawn from `seed` or, with disperser="deterministic",
    searched for within `budget`.
    """
    if not k >= r >= 1:
        raise ValidationError(f"need k >= r >= 1, got k={k}, r={r}")
    if not 0.0 < epsilon < 1.0:
        raise ValidationError("eps must lie in (0,1)")
    if disperser not in ("random", "deterministic"):
        raise ValidationError(f"unknown disperser mode {disperser!r}")
    if lc.left_size < 1:
        raise ValidationError("cannot left-compress an empty left side")
    if k > size_cap:
        raise SizeCapError(f"{k} left subsets exceed cap {size_cap}")
    if disperser == "deterministic":
        d = deterministic_disperser(lc.left_size, k, r, epsilon, budget)
    else:
        d = random_disperser(lc.left_size, k, r, epsilon, seed)
    return compress_left_with(lc, d, size_cap=size_cap), d


def compress_left_with(
    lc: LabelCover, disperser: Disperser, size_cap: int = DEFAULT_SIZE_CAP
) -> LabelCover:
    """Left compression against an explicit disperser over range(left_size).

    New left vertex i is the subset I_i; its labels are joint labelings
    (alpha_u) of the members, and (I, v) is an edge whenever some member of I
    is adjacent to v, with the joint relation demanding every member's
    constraint on v simultaneously.
    """
    if disperser.m != lc.left_size:
        raise ValidationError(
            f"disperser universe {disperser.m} disagrees with left size {lc.left_size}"
        )
    width, lane = lc.right_alphabet + 1, (1 << lc.right_alphabet) - 1

    def project(touched, packed):
        # Every kept labeling's lanes are nonempty, so each mask is too.
        for p, v in enumerate(touched):
            s = p * width
            yield v, [word >> s & lane for word in packed]

    groups = (tuple(sorted(subset)) for subset in disperser.subsets)
    return _compress(lc, groups, project, lc.right_size, lc.right_alphabet, size_cap)


# ---------------------------------------------------------------------------
# Right compression


def _block_partition(n: int, q: int) -> list[tuple[int, ...]]:
    """Contiguous blocks with sizes differing by at most one."""
    base, extra = divmod(n, q)
    blocks = []
    start = 0
    for j in range(q):
        size = base + (1 if j < extra else 0)
        blocks.append(tuple(range(start, start + size)))
        start += size
    return blocks


def compress_right(
    lc: LabelCover, *, q: int, gamma: float, epsilon: float, size_cap: int = DEFAULT_SIZE_CAP
) -> LabelCover:
    """Merge the right side into q blocks; the left side becomes all ell-subsets.

    ell = ceil(ln(1/gamma)/epsilon), clamped to at least 1. The output graph is
    complete bipartite and generally loses the projection property.
    """
    if q < 1:
        raise ValidationError("q must be >= 1")
    if not 0.0 < gamma <= 1.0:
        raise ValidationError("gamma must lie in (0,1]")
    if not 0.0 < epsilon < 1.0:
        raise ValidationError("eps must lie in (0,1)")
    m, n = lc.left_size, lc.right_size
    if m < 1 or n < 1:
        raise ValidationError("right compression needs nonempty sides")
    if q > n:
        raise ValidationError(f"q={q} exceeds right size {n}")
    ell = max(1, math.ceil(math.log(1.0 / gamma) / epsilon))
    if ell > m:
        raise ValidationError(f"derived ell={ell} exceeds left size {m}")
    num_left = math.comb(m, ell)
    if num_left > size_cap:
        raise SizeCapError(f"{num_left} left subsets exceed cap {size_cap}")
    blocks = _block_partition(n, q)
    ra = lc.right_alphabet
    max_block = max(len(b) for b in blocks)
    if ra**max_block > size_cap:
        raise SizeCapError(f"right alphabet {ra}^{max_block} exceeds cap {size_cap}")

    width = ra + 1
    shared: dict = {}

    def project(touched, packed):
        hi = 0
        for j, block in enumerate(blocks):
            # Touched vertices ascend and blocks are contiguous, so the block's
            # lanes are one bit slice of each packed int.
            lo = hi
            while hi < len(touched) and touched[hi] <= block[-1]:
                hi += 1
            layout = (len(block), tuple(v - block[0] for v in touched[lo:hi]))
            labels = _BlockLabels.of(ra, *layout, shared)
            s, mask = lo * width, (1 << (hi - lo) * width) - 1
            yield j, [labels[word >> s & mask] for word in packed]

    groups = itertools.combinations(range(m), ell)
    return _compress(lc, groups, project, q, ra**max_block, size_cap)


def minlab_instance(
    lc: LabelCover, q: int, r: int, epsilon: float, size_cap: int = DEFAULT_SIZE_CAP
) -> LabelCover:
    """Right compression at gamma = (r/q)^-q. Every block is adjacent to every
    left subset, so no right vertex of the output is isolated.

    For a fully coverable source the output has MinLab exactly q; when the
    source covers less than a (1-epsilon) fraction, random selection from any
    multi-labeling of total weight r would cover at least gamma*|U| left
    vertices, so MinLab exceeds r.
    """
    if not r >= q >= 1:
        raise ValidationError(f"need r >= q >= 1, got q={q}, r={r}")
    return compress_right(lc, q=q, gamma=(q / r) ** q, epsilon=epsilon, size_cap=size_cap)


# ---------------------------------------------------------------------------
# Projection property


def projection_check(lc: LabelCover) -> tuple[int, int, int, int] | None:
    """The first (u, v, alpha, beta count) whose admissible alpha does not
    admit exactly one beta on edge (u, v), or None if every one does."""
    for u, nbrs in enumerate(lc.left_neighbors):
        labels = lc.admissible_list(u) if nbrs else ()
        for v in nbrs:
            masks = lc.betas[u, v]
            for alpha in labels:
                count = masks.get(alpha, 0).bit_count()
                if count != 1:
                    return u, v, alpha, count
    return None
