"""Core instance types, file formats, and seeded random generators.

Conventions: vertices and universe elements are 0-indexed in memory and
1-indexed in files; labels are opaque dense integers 0..|alphabet|-1 in both.
All types are immutable. Generators are pure functions of their seed. Each mask-stored kind
is made only by its `_bounded`, which holds it to one size rule (`_check_counts`, `_MaskBits`),
so derived graphs obey it too and parse(emit(x)) == x for every instance built.
"""

from __future__ import annotations

import itertools
import operator
import random
import re
from collections.abc import Mapping, Set
from dataclasses import dataclass, field
from functools import cached_property

from .errors import ParseError, SizeCapError, ValidationError

# The bound on every instance count, and the default bound on the sizes a
# transform enumerates (label tuples, ground sets, graph vertices).
DEFAULT_SIZE_CAP = 500_000

# A mask is as wide as its highest bit: a Graph's neighbour index, a
# SetSystem's element, a LabelCover's right label. So a short file or call
# naming high ones can need far more memory than its size, and every build
# stops once its masks would pass 2^_MASK_BITS bits (16 MB) in all;
# oracles._TABLE_BITS bounds the oracles' tables alike.
_MASK_BITS = 27


# Header counts; a label cover's right alphabet only widens its beta masks.
_CNF_COUNTS = ("variable count", "clause count")
_COVER_COUNTS = ("|U|", "|V|", "|SigmaU|")


def _check_counts(*counts) -> None:
    """Refuse, with SizeCapError, the first (name, count) pair whose count
    lies outside 0..DEFAULT_SIZE_CAP."""
    for name, count in counts:
        if not 0 <= count <= DEFAULT_SIZE_CAP:
            raise SizeCapError(f"{name} {count} outside 0..{DEFAULT_SIZE_CAP}")


class _MaskBits:
    """One build's running mask width: `add` counts the bits a mask gains before
    it widens, `drawn` lists a lazy iterable's masks as it counts them."""

    _WIDTHS = {"neighbour": "its vertex's highest neighbour index",
               "element": "its set's highest element", "beta": "its highest right label",
               "vertex": "the highest vertex it holds"}

    def __init__(self, kind: str):
        self.bits, self.kind = 0, kind

    def add(self, bits: int) -> None:
        self.bits += bits
        if self.bits >> _MASK_BITS:
            raise SizeCapError(f"{self.kind} masks pass 2^{_MASK_BITS} bits "
                               f"(each is as wide as {self._WIDTHS[self.kind]})")

    def drawn(self, masks) -> list[int]:
        kept, bits = [], self.bits
        for mask in masks:
            bits += mask.bit_length()
            if bits >> _MASK_BITS:
                break
            kept.append(mask)
        self.add(bits - self.bits)  # raises if the loop stopped at the bound
        return kept


__all__ = [
    "CnfFormula",
    "Graph",
    "SetSystem",
    "LabelCover",
    "TupleDecoder",
    "parse_cnf",
    "emit_cnf",
    "parse_graph",
    "emit_graph",
    "parse_setsystem",
    "emit_setsystem",
    "parse_labelcover",
    "emit_labelcover",
    "random_cnf",
    "random_graph",
]


def _as_text(data) -> str:
    if isinstance(data, bytes):
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8: {exc}") from None
    return data


def _records(data, comments=("c",)):
    """(line number, stripped line, its fields) for each line of the text that
    is not blank and does not start with one of `comments`."""
    for lineno, line in enumerate(_as_text(data).splitlines(), start=1):
        line = line.strip()
        if line and not line.startswith(comments):
            yield lineno, line, line.split()


def _ints(lineno: int, fields, what: str) -> list[int]:
    """The fields as ints, or a ParseError naming the line and `what` they are."""
    try:
        return [int(x) for x in fields]
    except ValueError:
        raise ParseError(f"line {lineno}: non-integer {what}") from None


def _header(lineno: int, line: str, fields, header, kind, names, what: str):
    """The counts of a header line, one per `names` entry (a named one held to the size
    rule); its second field is `kind` if given. `header` is the one already read."""
    if header is not None:
        raise ParseError(f"line {lineno}: duplicate header")
    words = 1 if kind is None else 2
    if len(fields) != words + len(names) or (kind is not None and fields[1] != kind):
        raise ParseError(f"line {lineno}: malformed header {line!r}")
    counts = tuple(_ints(lineno, fields[words:], what))
    _check_header_counts(lineno, *((name, count) for name, count in zip(names, counts) if name))
    return counts


def _check_header_counts(lineno: int, *counts) -> None:
    """_check_counts on a header's counts, a refusal raised as a ParseError naming its line."""
    try:
        _check_counts(*counts)
    except SizeCapError as exc:
        raise ParseError(f"line {lineno}: {exc}") from None


def _checked(build, *args):
    """build(*args), a refusal of the constructor raised as a ParseError."""
    try:
        return build(*args)
    except (ValidationError, SizeCapError) as exc:
        raise ParseError(str(exc)) from None


# bits_of steps through a mask of at most _FEW_BITS set bits lowest bit first.
# Each step costs a pass over the rest of the mask, so with more bits one pass
# over its digits costs less.
_FEW_BITS = 16


def _lowest_first(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bits_of(mask: int):
    """Iterate the set bit indices of a nonnegative int, ascending.

    A mask of at most _FEW_BITS set bits is stepped lowest bit first, and any
    other is read in one pass over its digits, so the cost follows the mask's
    width, not its width times its bits.
    """
    if mask.bit_count() <= _FEW_BITS:
        return _lowest_first(mask)
    return itertools.compress(itertools.count(), _flags(mask))


def digit_table(window: int, count: int, stride: int, width: int) -> int:
    """Bitset over labelings 0..width-1 of those whose digit is allowed.

    The digit has place value `stride` and runs through `count` consecutive
    values, bit j of `window` allowing the j-th of them; the pattern repeats
    every count * stride labelings.
    """
    if stride > 1:
        spread = {48: "0" * stride, 49: "1" * stride}
        window = int(format(window, f"0{count}b").translate(spread), 2)
    period = count * stride
    while period < width:
        window |= window << period
        period *= 2
    return window & ((1 << width) - 1)


_TO_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _flags(mask: int) -> bytes:
    """Byte e is 1 when bit e of the nonnegative `mask` is set, else 0."""
    return format(mask, "b").encode()[::-1].translate(_TO_FLAGS)


def _name_table(masks, first: int) -> list[str]:
    """Names str(first + i) of bit positions i, for the emitters: as many as
    the widest of `masks` needs but no more than their total popcount, so a
    few far bits cannot make the table larger than the text it names. A mask
    wider than the table is read with bits_of."""
    width = min(max(map(int.bit_length, masks), default=0), sum(map(int.bit_count, masks)))
    return [str(first + i) for i in range(width)]


# An element list with at least one element per _DENSE positions of its mask's
# width is built as a binary numeral. The two ways cost the same at about one
# element per 32 to 48 positions, so 16 keeps the numeral on the faster side.
_DENSE = 16


def _mask_of(elements) -> int:
    """The mask with bit e set for each of the nonnegative ints `elements`.

    This is the one element-list-to-mask builder. Its width is the top
    element + 1. A dense list, one element or more per _DENSE positions of
    the width, writes an ASCII 1 per element into a string of 0s, one per
    position, and reads it reversed as one binary numeral: its transient
    bytes are at most _DENSE * len(elements). A sparser list sets its bits
    in a little-endian byte string of width / 8 bytes read as one number.
    Either way the mask is built once, not widened once per element.
    """
    width = max(elements, default=-1) + 1
    if 0 < width <= _DENSE * len(elements):
        digits = bytearray(b"0") * width
        for e in elements:
            digits[e] = 49  # ord("1")
        digits.reverse()
        return int(digits, 2)
    packed = bytearray((width + 7) >> 3)
    for e in elements:
        packed[e >> 3] |= 1 << (e & 7)
    return int.from_bytes(packed, "little")


# _columns writes out the digits of at most _SLAB cells at a time, and walks
# rows with bits_of. It reads the columns as numerals when its cost model says
# that beats walking the rows. In units of one cell's digit on the numeral
# path, the numerals cost one per cell and _COLUMN per column of each slab; a
# walk of a row with more than _FEW_BITS set bits costs _WALK_WIDTH per
# position of the row's width and _WALK_BIT per set bit, and a walk of a row
# with fewer, per set bit, _WALK_STEP plus one per _STEP_POSITIONS positions
# of the row's width. The units come from timing the paths on the shapes of
# the crossover table in CHANGES.md.
_SLAB = 1 << 22
_WALK_WIDTH, _WALK_BIT, _COLUMN = 5, 20, 60
_WALK_STEP, _STEP_POSITIONS = 90, 45


def _walk_cost(row: int) -> int:
    bits, ones = row.bit_length(), row.bit_count()
    if ones <= _FEW_BITS:
        return ones * (_WALK_STEP + bits // _STEP_POSITIONS)
    return _WALK_WIDTH * bits + _WALK_BIT * ones


def _columns(rows, width: int) -> list[int]:
    """The transpose of a bit matrix: bit i of column j is bit j of rows[i].

    Every row must lie below 2^width. Dense matrices are read as binary
    numerals: a slab of rows is written as one string of their digits,
    reversed, so column j is every width-th character of it, read by
    int(..., 2). A slab holds at most max(_SLAB // width, 1) rows, so each
    transient string holds at most max(_SLAB, width) digits. Few rows, rows
    much narrower than `width`, or rows with few set bits cost less to walk
    with bits_of, and are built that way.
    """
    if not width:
        return []
    n = len(rows)
    per_slab = max(_SLAB // width, 1)
    slabs = -(-n // per_slab)
    columns = [0] * width
    if n * width + _COLUMN * width * slabs <= sum(map(_walk_cost, rows)):
        digits_of = f"{{:0{width}b}}".format
        for lo in range(0, n, per_slab):
            digits = "".join(map(digits_of, rows[lo:lo + per_slab]))[::-1]
            columns = [column | int(digits[j::width], 2) << lo
                       for j, column in enumerate(columns)]
        return columns
    for i, row in enumerate(rows):
        bit = 1 << i
        for j in bits_of(row):
            columns[j] |= bit
    return columns


def pairs_of(adjacency):
    """Iterate the edges (u, v), u < v, of symmetric neighbour masks, ascending."""
    for u, mask in enumerate(adjacency):
        for v in bits_of(mask >> u + 1 << u + 1):
            yield u, v


# ---------------------------------------------------------------------------
# CNF formulas


@dataclass(frozen=True)
class CnfFormula:
    """A CNF formula with clauses of 1 to 3 signed DIMACS literals."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        clauses = tuple(tuple(int(lit) for lit in clause) for clause in self.clauses)
        _check_counts(*zip(_CNF_COUNTS, (self.num_vars, len(clauses))))
        object.__setattr__(self, "clauses", clauses)
        for idx, clause in enumerate(clauses):
            if not 1 <= len(clause) <= 3:
                raise ValidationError(f"clause {idx + 1} has {len(clause)} literals, want 1..3")
            seen = set()
            for lit in clause:
                var = abs(lit)
                if lit == 0 or var > self.num_vars:
                    raise ValidationError(f"literal {lit} out of range in clause {idx + 1}")
                if var in seen:
                    raise ValidationError(f"variable {var} repeated in clause {idx + 1}")
                seen.add(var)

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


def parse_cnf(data) -> CnfFormula:
    """Parse DIMACS CNF text ('p cnf n m' header, 0-terminated clauses)."""
    header = None
    tokens: list[int] = []
    for lineno, line, fields in _records(data, ("c", "%")):
        if line.startswith("p"):
            header = _header(lineno, line, fields, header, "cnf", _CNF_COUNTS, "counts in header")
        elif header is None:
            raise ParseError(f"line {lineno}: clause before 'p cnf' header")
        else:
            tokens += _ints(lineno, fields, "literal")
    if header is None:
        raise ParseError("missing 'p cnf' header")
    num_vars, num_clauses = header
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for tok in tokens:
        if tok == 0:
            if not current:
                raise ParseError("empty clause (bare 0)")
            if len(current) > 3:
                raise ParseError(f"clause {len(clauses) + 1} wider than 3 literals")
            clauses.append(tuple(current))
            current = []
        else:
            if abs(tok) > num_vars:
                raise ParseError(f"literal {tok} out of range (header declares {num_vars} vars)")
            current.append(tok)
    if current:
        raise ParseError("unterminated final clause (missing 0)")
    if len(clauses) != num_clauses:
        raise ParseError(f"header declares {num_clauses} clauses, found {len(clauses)}")
    return _checked(CnfFormula, num_vars, tuple(clauses))


def emit_cnf(formula: CnfFormula) -> str:
    lines = [f"p cnf {formula.num_vars} {formula.num_clauses}"]
    for clause in formula.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Graphs


@dataclass(frozen=True, init=False)
class Graph:
    """An undirected simple graph on vertices 0..num_vertices-1.

    It is stored as neighbour masks: bit v of `adjacency[u]` is set when uv is
    an edge. `edges` and `num_edges` are derived from the masks on each call.
    """

    num_vertices: int
    adjacency: tuple[int, ...]

    def __init__(self, num_vertices: int, edges=()):
        _check_counts(("vertex count", num_vertices))  # it sizes the neighbour lists
        neighbours: list[list[int]] = [[] for _ in range(num_vertices)]
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ValidationError(f"edge ({u},{v}) out of range")
            neighbours[u].append(v)
            neighbours[v].append(u)
        self.__dict__.update(vars(Graph._bounded(num_vertices, map(_mask_of, neighbours))))

    @classmethod
    def _bounded(cls, num_vertices: int, masks) -> Graph:
        """The only graph builder: the graph of the `num_vertices` symmetric, loop-free
        masks `masks` yields, drawn after the vertex count is checked and refused by
        the size rule where parse_graph would refuse its file."""
        _check_counts(("vertex count", num_vertices))
        adjacency = tuple(_MaskBits("neighbour").drawn(masks))
        graph = object.__new__(cls)
        graph.__dict__.update(num_vertices=len(adjacency), adjacency=adjacency)
        return graph

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(pairs_of(self.adjacency))

    @property
    def num_edges(self) -> int:
        return sum(mask.bit_count() for mask in self.adjacency) // 2

    def has_edge(self, u: int, v: int) -> bool:
        n = self.num_vertices
        return 0 <= u < n and 0 <= v < n and bool(self.adjacency[u] >> v & 1)

    def complement(self) -> Graph:
        full = (1 << self.num_vertices) - 1
        return Graph._bounded(self.num_vertices,
                              (full & ~(m | 1 << v) for v, m in enumerate(self.adjacency)))

    def induced(self, vertices) -> Graph:
        """The subgraph induced on the distinct `vertices`, vertex j being vertices[j].

        Each kept mask is gathered as a binary string, so a relabelling (a
        permutation of every vertex) costs one string pass per vertex.
        """
        vertices = list(vertices)
        if not vertices:
            return Graph._bounded(0, ())
        # String position n - 1 - v holds bit v; the new bits are listed
        # from the highest down.
        n = self.num_vertices
        gather = operator.itemgetter(*(n - 1 - v for v in reversed(vertices)))
        width = f"0{n}b"
        adjacency = self.adjacency
        return Graph._bounded(
            len(vertices), (int("".join(gather(format(adjacency[v], width))), 2) for v in vertices)
        )


# A file that is one bare header line and bare edge lines only, each ended by
# a newline, is read in bulk; any other file goes through the line loop.
_GRAPH_HEADER = re.compile(r"p edge ([0-9]{1,9}) ([0-9]{1,9})\n")
_EDGE_LINES = re.compile(r"(?:e [0-9]+ [0-9]+\n)*")
# The bulk read takes its edge lines in pieces of about this many characters,
# each cut after a newline, so that it never holds the whole body's tokens.
_PARSE_CHUNK = 1 << 15


def _parse_edge_lines(text: str) -> Graph | None:
    """The graph of a bare header plus 'e u v' lines, or None for the line loop.

    None means the file has another shape or is not a valid graph, so the
    line loop parses it again and reports the error at its line.
    """
    header = _GRAPH_HEADER.match(text)
    if header is None:
        return None
    n, m = int(header[1]), int(header[2])
    # The name table below grows with n (59 MB for 500,000 names), so a short
    # file declaring many vertices goes to the line loop. Below this bound, n
    # masks of n bits cannot break the size rule either, so Graph._bounded keeps them.
    if n * n > 1 << _MASK_BITS:
        return None
    # Only canonical names are keys, so "03", "+3" and ids past n miss.
    vertex = {str(v + 1): v for v in range(n)}.__getitem__
    neighbours: list[list[int]] = [[] for _ in range(n)]
    seen = 0
    start, size = header.end(), len(text)
    while start < size:
        end = text.find("\n", start + _PARSE_CHUNK - 1) + 1 or size
        if _EDGE_LINES.fullmatch(text, start, end) is None:
            return None
        tokens = text[start:end].split()
        try:
            for u, v in zip(map(vertex, tokens[1::3]), map(vertex, tokens[2::3])):
                neighbours[u].append(v)
                neighbours[v].append(u)
        except KeyError:
            return None
        seen += len(tokens) // 3
        start = end
    masks = list(map(_mask_of, neighbours))
    # A repeated edge or a self-loop sets a bit already set, so the popcounts
    # fall short of twice the edges read.
    if seen != m or sum(map(int.bit_count, masks)) != 2 * m:
        return None
    return Graph._bounded(n, masks)


def parse_graph(data) -> Graph:
    """Parse a DIMACS edge-format graph ('p edge n m', 1-indexed 'e u v' lines)."""
    text = _as_text(data)
    graph = _parse_edge_lines(text)
    if graph is not None:
        return graph
    header, widths = None, _MaskBits("neighbour")
    masks: list[int] = []
    for lineno, line, fields in _records(text):
        if fields[0] == "p":
            header = _header(lineno, line, fields, header, "edge", ("vertex count", None),
                             "counts in header")
            masks = [0] * header[0]
        elif fields[0] == "e":
            if header is None:
                raise ParseError(f"line {lineno}: edge before header")
            if len(fields) != 3:
                raise ParseError(f"line {lineno}: malformed edge line {line!r}")
            u, v = (x - 1 for x in _ints(lineno, fields[1:], "endpoint"))
            n = header[0]
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"line {lineno}: vertex out of range")
            if u == v:
                raise ParseError(f"line {lineno}: self-loop")
            if masks[u] >> v & 1:
                raise ParseError(f"line {lineno}: duplicate edge")
            try:
                widths.add(max(0, v + 1 - masks[u].bit_length())
                           + max(0, u + 1 - masks[v].bit_length()))
            except SizeCapError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        else:
            raise ParseError(f"line {lineno}: unknown line tag {fields[0]!r}")
    if header is None:
        raise ParseError("missing 'p edge' header")
    graph = Graph._bounded(header[0], masks)
    if graph.num_edges != header[1]:
        raise ParseError(f"header declares {header[1]} edges, found {graph.num_edges}")
    return graph


def emit_graph(graph: Graph) -> str:
    lines = [f"p edge {graph.num_vertices} {graph.num_edges}"]
    adjacency = graph.adjacency
    names = _name_table(adjacency, 1)
    width = len(names)
    for u, mask in enumerate(adjacency):
        higher = mask >> u + 1
        if not higher:
            continue
        # Only the names up to the highest neighbour are sliced, so a sparse
        # row costs no slice as wide as the table.
        end = u + 1 + higher.bit_length()
        if end <= width:
            row = itertools.compress(names[u + 1 : end], _flags(higher))
        else:
            row = (str(u + 2 + j) for j in bits_of(higher))
        prefix = f"e {u + 1} "
        lines.append(prefix + ("\n" + prefix).join(row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Set systems


@dataclass(frozen=True, init=False)
class SetSystem:
    """A universe 0..universe_size-1 plus identified subsets.

    It is stored as one element mask per set: bit e of `masks[t]` is set when
    element e lies in the set with id `ids[t]`. Ids ascend, so equality is
    insensitive to construction order and matches the canonical file
    ordering. `sets`, the (id, element frozenset) pairs, is derived from the
    masks on each access; the constructor takes sets in that form.
    """

    universe_size: int
    ids: tuple[int, ...]
    masks: tuple[int, ...]

    def __init__(self, universe_size: int, sets=()):
        by_id: dict[int, list[int]] = {}
        for sid, elems in sets:
            sid = int(sid)
            if sid in by_id:
                raise ValidationError(f"duplicate set id {sid}")
            elems = [int(e) for e in elems]
            for e in elems:
                if not 0 <= e < universe_size:
                    raise ValidationError(f"element {e} of set {sid} out of range")
            by_id[sid] = elems
        ids = sorted(by_id)
        self.__dict__.update(vars(SetSystem._bounded(
            universe_size, len(ids), ids, (_mask_of(by_id[sid]) for sid in ids))))

    @classmethod
    def _bounded(cls, universe_size: int, num_sets: int, ids, masks) -> SetSystem:
        """The only set-system builder: the sets with the ascending `ids` and the masks
        `masks` yields, within the universe and held to the size rule. A count past the
        cap is refused before the ids are listed or a mask drawn."""
        _check_counts(("universe size", universe_size), ("set count", num_sets))
        system = object.__new__(cls)
        system.__dict__.update(universe_size=universe_size, ids=tuple(ids),
                               masks=tuple(_MaskBits("element").drawn(masks)))
        return system

    @property
    def sets(self) -> tuple[tuple[int, frozenset[int]], ...]:
        return tuple((sid, frozenset(bits_of(mask))) for sid, mask in zip(self.ids, self.masks))

    @property
    def num_sets(self) -> int:
        return len(self.ids)


def parse_setsystem(data) -> SetSystem:
    """Parse the set-system format ('ss n k' header, 's id size e1 .. ek' lines)."""
    header = None
    # Each set line is read once into its mask. The constructor's refusals, a
    # repeated id and then masks past the size rule, keep its wording and come
    # after every line is read, as when the constructor made them; no mask is
    # built once the masks pass the rule.
    by_id: dict[int, int] = {}
    count = bits = 0
    repeated = None
    for lineno, line, fields in _records(data):
        if fields[0] == "ss":
            header = _header(lineno, line, fields, header, None, ("universe size", "set count"),
                             "counts")
        elif fields[0] == "s":
            if header is None:
                raise ParseError(f"line {lineno}: set line before header")
            nums = _ints(lineno, fields[1:], "field")
            if len(nums) < 2 or len(nums) != 2 + nums[1]:
                raise ParseError(f"line {lineno}: size field disagrees with element count")
            sid, _, *elems = nums
            top = max(elems, default=0)  # the width of the set's mask
            if top > header[0] or elems and min(elems) < 1:
                raise ParseError(f"line {lineno}: element out of range")
            count += 1
            if sid in by_id:
                if repeated is None:
                    repeated = sid
            else:
                bits += top
                by_id[sid] = _mask_of(elems) >> 1 if elems and not bits >> _MASK_BITS else 0
        else:
            raise ParseError(f"line {lineno}: unknown line tag {fields[0]!r}")
    if header is None:
        raise ParseError("missing 'ss' header")
    if count != header[1]:
        raise ParseError(f"header declares {header[1]} sets, found {count}")
    if repeated is not None:
        raise ParseError(f"duplicate set id {repeated}")
    _checked(_MaskBits("element").add, bits)
    ids = sorted(by_id)
    return SetSystem._bounded(header[0], count, ids, map(by_id.__getitem__, ids))


def emit_setsystem(system: SetSystem) -> str:
    lines = [f"ss {system.universe_size} {system.num_sets}"]
    masks = system.masks
    names = _name_table(masks, 1)
    width = len(names)
    for sid, mask in zip(system.ids, masks):
        if mask.bit_length() <= width:
            body = " ".join(itertools.compress(names, _flags(mask)))
        else:
            body = " ".join(str(e + 1) for e in bits_of(mask))
        lines.append(f"s {sid} {mask.bit_count()}" + (f" {body}" if body else ""))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Label cover


@dataclass(frozen=True)
class TupleDecoder:
    """The member tuples behind a compressed super-vertex's labels.

    `labels[packed]` is the tuple of sub-labels assigned to `members`, in order.
    """

    members: tuple[int, ...]
    labels: tuple[tuple[int, ...], ...]


class _Pairs(Set):
    """The (alpha, beta) pairs of one edge, read from its {alpha: beta mask} store.

    Iteration ascends; `len` is a popcount and membership one bit test, so no
    pair is built unless iterated.
    """

    __slots__ = ("_masks",)

    def __init__(self, masks: Mapping[int, int]):
        self._masks = masks

    @classmethod
    def _from_iterable(cls, pairs):
        return frozenset(pairs)

    def __len__(self) -> int:
        return sum(mask.bit_count() for mask in self._masks.values())

    def __iter__(self):
        masks = self._masks
        for a in sorted(masks):
            for b in bits_of(masks[a]):
                yield a, b

    def __contains__(self, pair) -> bool:
        try:
            a, b = pair
        except (TypeError, ValueError):
            return False
        return type(b) is int and b >= 0 and bool(self._masks.get(a, 0) >> b & 1)

    def __repr__(self) -> str:
        return f"_Pairs({sorted(self)!r})"


class _Relations(Mapping):
    """Read-only view of a label cover's relations: edge -> its pairs, derived on access."""

    __slots__ = ("_betas",)

    def __init__(self, betas: Mapping[tuple[int, int], Mapping[int, int]]):
        self._betas = betas

    def __getitem__(self, edge) -> _Pairs:
        return _Pairs(self._betas[edge])

    def __iter__(self):
        return iter(self._betas)

    def __len__(self) -> int:
        return len(self._betas)


@dataclass(frozen=True, init=False)
class LabelCover:
    """Bipartite label cover instance: relations per edge, admissible left labels.

    It is stored as beta masks: `betas[u, v]` maps each left label alpha that
    has at least one pair on edge (u, v) to the bitmask of its allowed right
    labels, and its key set *is* the edge set. Labels outside the admissible
    set keep their pairs, so files round-trip. `relations` is a read-only view
    of the same store that derives each edge's (alpha, beta) pairs on access;
    the constructor takes relations as pairs. `admissible` maps each left
    vertex to the label subset it may be assigned; `None` means every vertex
    gets the full left alphabet. An empty admissible set marks a left vertex
    that no labeling can cover (compression produces these for
    unsatisfiable-style sources).

    Left decoders, set by the compressions, map each left vertex's labels
    back to its members' labels; they are metadata and do not participate in
    equality or serialization.
    """

    left_size: int
    right_size: int
    left_alphabet: int
    right_alphabet: int
    relations: Mapping[tuple[int, int], Set[tuple[int, int]]] = field(
        compare=False, repr=False
    )
    admissible: Mapping[int, frozenset[int]] | None
    left_decoders: tuple | None = field(compare=False, repr=False)
    betas: Mapping[tuple[int, int], Mapping[int, int]] = field(init=False)

    def __init__(
        self,
        left_size: int,
        right_size: int,
        left_alphabet: int,
        right_alphabet: int,
        relations=None,
        admissible=None,
        left_decoders=None,
    ):
        # Checked before anything is built per left vertex, right vertex or left label.
        _check_counts(*zip(_COVER_COUNTS, (left_size, right_size, left_alphabet)))
        if left_alphabet < 1 or right_alphabet < 1:
            raise ValidationError("alphabet sizes must be >= 1")
        betas = {}
        widths = _MaskBits("beta")
        for (u, v), pairs in (relations or {}).items():
            u, v = int(u), int(v)
            if not (0 <= u < left_size and 0 <= v < right_size):
                raise ValidationError(f"edge ({u},{v}) out of range")
            masks: dict[int, int] = {}
            for a, b in pairs:
                a, b = int(a), int(b)
                if not (0 <= a < left_alphabet and 0 <= b < right_alphabet):
                    raise ValidationError(f"relation pair ({a},{b}) on edge ({u},{v}) out of range")
                mask = masks.get(a, 0)
                # A mask is as wide as its highest beta, so count the bits
                # before it widens.
                if b >= mask.bit_length():
                    widths.add(b + 1 - mask.bit_length())
                masks[a] = mask | 1 << b
            betas[u, v] = masks
        if admissible is None:
            full = frozenset(range(left_alphabet))
            adm = {u: full for u in range(left_size)}
        else:
            adm = {}
            # A frozenset of ints is kept, not copied, and checked once however
            # many vertices share it (the memo holds it, so its id stays unique).
            kept = {}
            for u in range(left_size):
                if u not in admissible:
                    raise ValidationError(f"admissible set missing for left vertex {u}")
                given = admissible[u]
                labels = kept.get(id(given))
                if labels is None:
                    if type(given) is frozenset and all(type(a) is int for a in given):
                        labels = kept[id(given)] = given
                    else:
                        labels = frozenset(int(a) for a in given)
                    if any(not 0 <= a < left_alphabet for a in labels):
                        raise ValidationError(f"admissible label out of range at vertex {u}")
                adm[u] = labels
            if len(admissible) != left_size:
                raise ValidationError("admissible map has spurious keys")
        self.__dict__.update(vars(LabelCover._bounded(
            left_size=left_size,
            right_size=right_size,
            left_alphabet=left_alphabet,
            right_alphabet=right_alphabet,
            admissible=adm,
            left_decoders=left_decoders,
            betas=betas,
        )))

    def __eq__(self, other):
        """Field-wise equality, as the dataclass defines it, except that each
        distinct pair of admissible-set objects is compared once. Instances
        share one set among many vertices, so this costs |U| lookups plus one
        comparison per pair, not |U|·|SigmaU|."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        sizes = (self.left_size, self.right_size, self.left_alphabet, self.right_alphabet)
        if sizes != (other.left_size, other.right_size, other.left_alphabet,
                     other.right_alphabet):
            return False
        # Every admissible map's keys are range(left_size), so only the sets are
        # compared. Both dicts hold every set compared, so their ids stay unique here.
        ours = list(self.admissible.values())
        theirs = list(map(other.admissible.__getitem__, self.admissible))
        by_id = dict(zip(map(id, ours), ours)) | dict(zip(map(id, theirs), theirs))
        pairs = set(zip(map(id, ours), map(id, theirs)))
        if not all(by_id[a] == by_id[b] for a, b in pairs):
            return False
        return self.betas == other.betas

    @classmethod
    def _bounded(cls, *, betas, **values) -> LabelCover:
        """The only label-cover builder, its counts held to the size rule. Its beta masks,
        nonzero and in range, are counted as they are built, or bounded by their builder,
        and its admissible map's keys are range(left_size)."""
        counts = (values["left_size"], values["right_size"], values["left_alphabet"])
        _check_counts(*zip(_COVER_COUNTS, counts))
        lc = object.__new__(cls)
        lc.__dict__.update(values, betas=betas, relations=_Relations(betas))
        return lc

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.betas))

    @cached_property
    def left_neighbors(self) -> tuple[tuple[int, ...], ...]:
        out = [[] for _ in range(self.left_size)]
        for u, v in self.edges:
            out[u].append(v)
        return tuple(tuple(vs) for vs in out)

    @cached_property
    def right_neighbors(self) -> tuple[tuple[int, ...], ...]:
        out = [[] for _ in range(self.right_size)]
        for u, v in self.edges:
            out[v].append(u)
        return tuple(tuple(us) for us in out)

    def admissible_list(self, u: int) -> list[int]:
        return sorted(self.admissible[u])

    def fitting_labels(self, u: int, sigma) -> list[int]:
        """The admissible labels of left vertex `u`, ascending, whose beta mask
        holds `sigma[v]` on every edge (u, v): the labels that cover `u` under
        the right labeling `sigma`. Only the labels stored on u's first edge
        are scanned, then narrowed edge by edge; a vertex with no edges gets
        every admissible label."""
        nbrs = self.left_neighbors[u]
        if not nbrs:
            return self.admissible_list(u)
        allowed, b = self.admissible[u], sigma[nbrs[0]]
        fits = sorted(a for a, mask in self.betas[u, nbrs[0]].items()
                      if mask >> b & 1 and a in allowed)
        for v in nbrs[1:]:
            masks, b = self.betas[u, v], sigma[v]
            fits = [a for a in fits if masks.get(a, 0) >> b & 1]
        return fits


def parse_labelcover(data) -> LabelCover:
    """Parse the label cover format ('lc' header, 'a' admissible lines, 'e' edges)."""
    header = None
    admissible: dict[int, frozenset[int]] = {}
    relations: dict[tuple[int, int], frozenset[tuple[int, int]]] = {}
    for lineno, line, fields in _records(data):
        if fields[0] == "lc":
            header = _header(lineno, line, fields, header, None, (*_COVER_COUNTS, None),
                             "counts")
        elif fields[0] == "a":
            if header is None:
                raise ParseError(f"line {lineno}: admissible line before header")
            nums = _ints(lineno, fields[1:], "field")
            if len(nums) < 2 or len(nums) != 2 + nums[1]:
                raise ParseError(f"line {lineno}: size field disagrees with label count")
            u = nums[0] - 1
            if u in admissible:
                raise ParseError(f"line {lineno}: duplicate admissible line for vertex {u + 1}")
            admissible[u] = frozenset(nums[2:])
        elif fields[0] == "e":
            if header is None:
                raise ParseError(f"line {lineno}: edge before header")
            nums = _ints(lineno, fields[1:], "field")
            if len(nums) < 3 or len(nums) != 3 + 2 * nums[2]:
                raise ParseError(f"line {lineno}: pair count disagrees with pair list")
            u, v, npairs = nums[0] - 1, nums[1] - 1, nums[2]
            if (u, v) in relations:
                raise ParseError(f"line {lineno}: duplicate edge ({u + 1},{v + 1})")
            flat = nums[3:]
            relations[(u, v)] = frozenset((flat[2 * i], flat[2 * i + 1]) for i in range(npairs))
        else:
            raise ParseError(f"line {lineno}: unknown line tag {fields[0]!r}")
    if header is None:
        raise ParseError("missing 'lc' header")
    left, right, la, ra = header
    full = frozenset(range(la))
    for u in range(left):
        admissible.setdefault(u, full)
    return _checked(LabelCover, left, right, la, ra, relations, admissible)


def emit_labelcover(lc: LabelCover) -> str:
    lines = [f"lc {lc.left_size} {lc.right_size} {lc.left_alphabet} {lc.right_alphabet}"]
    # Vertices with equal admissible sets share their text " count a a ...",
    # which is built once per distinct set; a full set writes no line ("").
    texts: dict[frozenset[int], str] = {}
    admissible = lc.admissible
    for u in range(lc.left_size):
        labels = admissible[u]
        text = texts.get(labels)
        if text is None:
            full = len(labels) == lc.left_alphabet
            text = texts[labels] = "" if full else " ".join(
                ["", str(len(labels)), *map(str, sorted(labels))])
        if text:
            lines.append(f"a {u + 1}{text}")
    betas = lc.betas
    stored = [mask for masks in betas.values() for mask in masks.values()]
    names = _name_table(stored, 0)
    width = len(names)
    # Edges whose stores hold the same (alpha, beta mask) items in the same
    # order share their text " count a b a b ...", which is built once per call.
    pieces: dict[tuple[tuple[int, int], ...], str] = {}
    for u, v in lc.edges:
        masks = betas[u, v]
        key = tuple(masks.items())
        piece = pieces.get(key)
        if piece is None:
            parts = [f" {sum(map(int.bit_count, masks.values()))}"]
            for a, mask in sorted(key):
                if mask.bit_length() <= width:
                    labels = itertools.compress(names, _flags(mask))
                else:
                    labels = map(str, bits_of(mask))
                tag = f" {a} "
                parts.append(tag + tag.join(labels))
            piece = pieces[key] = "".join(parts)
        lines.append(f"e {u + 1} {v + 1}{piece}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Seeded generators


def random_cnf(num_vars: int, num_clauses: int, seed) -> CnfFormula:
    """Uniform random 3-clauses over distinct variables; pure function of the seed."""
    _check_counts(*zip(_CNF_COUNTS, (num_vars, num_clauses)))
    if num_clauses > 0 and num_vars < 3:
        raise ValidationError("3-literal clauses need at least 3 variables")
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        variables = rng.sample(range(1, num_vars + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
    return CnfFormula(num_vars, tuple(clauses))


def random_graph(num_vertices: int, edge_prob: float, seed) -> Graph:
    """Erdos-Renyi style graph; pure function of the seed."""
    if not 0.0 <= edge_prob <= 1.0:
        raise ValidationError("need edge_prob in [0,1]")
    _check_counts(("vertex count", num_vertices))  # it sizes the mask list
    rng = random.Random(seed)
    masks = [0] * num_vertices
    for u in range(num_vertices):
        for v in range(u + 1, num_vertices):
            if rng.random() < edge_prob:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
    return Graph._bounded(num_vertices, masks)
