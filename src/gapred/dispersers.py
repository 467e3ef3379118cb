"""Construction and exhaustive verification of (m, k, l, r, eps)-dispersers.

A disperser here is k subsets of [m], each of size l, such that any r of them
union to at least (1-eps)*m elements. Random draws achieve this with failure
probability at most e^-m in the regime ln(k) <= m/r; the deterministic route
searches a small universe exhaustively and tensor-lifts the result.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceededError, GenerationError, ParseError, ValidationError
from .instances import (_check_counts, _check_header_counts, _checked, _ints, _mask_of,
                        _MaskBits, _records, bits_of)
from .oracles import SolveBudget, _Meter

__all__ = [
    "Disperser",
    "disperser_subset_size",
    "random_disperser",
    "verify_disperser",
    "lift_disperser",
    "deterministic_disperser",
    "emit_disperser",
    "parse_disperser",
]

# The counts held to the size rule of every instance: m and k.
_COUNTS = ("universe size", "subset count")


@dataclass(frozen=True)
class Disperser:
    """k size-l subsets of range(m) with the r-union coverage target eps."""

    m: int
    k: int
    ell: int
    r: int
    eps: float
    subsets: tuple[frozenset[int], ...]

    def __post_init__(self):
        if min(self.m, self.k, self.ell, self.r) < 1:
            raise ValidationError("m, k, ell, r must all be >= 1")
        _check_counts(*zip(_COUNTS, (self.m, self.k)))
        if not 0.0 < self.eps < 1.0:
            raise ValidationError("eps must lie in (0,1)")
        subsets = tuple(frozenset(int(x) for x in s) for s in self.subsets)
        object.__setattr__(self, "subsets", subsets)
        if len(subsets) != self.k:
            raise ValidationError(f"expected {self.k} subsets, got {len(subsets)}")
        for i, s in enumerate(subsets):
            if len(s) != self.ell:
                raise ValidationError(f"subset {i} has size {len(s)}, want {self.ell}")
            if any(not 0 <= x < self.m for x in s):
                raise ValidationError(f"subset {i} has elements outside range({self.m})")


def disperser_subset_size(m: int, r: int, eps: float) -> int:
    """Subset size ceil(3m/(eps*r)), capped at m since subsets live inside [m]."""
    raw = Fraction(3 * m) / (Fraction(eps) * r)
    return min(m, math.ceil(raw))


def random_disperser(m: int, k: int, r: int, eps: float, seed) -> Disperser:
    """k independent uniform subsets of the derived size; unverified."""
    if min(m, k, r) < 1 or not 0.0 < eps < 1.0:
        raise ValidationError("need m, k, r >= 1 and eps in (0,1)")
    _check_counts(*zip(_COUNTS, (m, k)))  # before any subset is drawn
    ell = disperser_subset_size(m, r, eps)
    _MaskBits("element").add(k * ell)  # the subsets' masks hold at least k * ell bits
    rng = random.Random(seed)
    subsets = tuple(frozenset(rng.sample(range(m), ell)) for _ in range(k))
    return Disperser(m, k, ell, r, eps, subsets)


def verify_disperser(d: Disperser, budget: SolveBudget | None = None):
    """Exhaustively check all C(k, r) unions; None on pass, else a violating index tuple."""
    return _verify_disperser(d, _Meter(budget))


def _verify_disperser(d: Disperser, meter: _Meter):
    masks = _MaskBits("element").drawn(map(_mask_of, d.subsets))
    return _violation(masks, d.r, _union_floor(d.m, d.eps), meter)


def _union_floor(m: int, eps: float) -> int:
    # An integer union size is below (1 - eps) * m iff it is below its ceiling.
    return math.ceil((1 - Fraction(eps)) * m)


def _violation(masks: list[int], r: int, need: int, meter: _Meter):
    """The first r-tuple of indices, in combinations order, whose masks' union
    holds fewer than `need` elements, or None; one meter tick per tuple."""
    for indices in itertools.combinations(range(len(masks)), r):
        meter.tick()
        union = 0
        for i in indices:
            union |= masks[i]
        if union.bit_count() < need:
            return indices
    return None


def lift_disperser(d: Disperser, blocks: int) -> Disperser:
    """Tensor lift: view [blocks*m] as [blocks] x [m] and take blocks copies of each subset.

    Every r-union scales exactly by `blocks`, so coverage fractions are preserved.
    """
    if blocks < 1:
        raise ValidationError("blocks must be >= 1")
    subsets = tuple(
        frozenset(b * d.m + x for b in range(blocks) for x in s) for s in d.subsets
    )
    return Disperser(blocks * d.m, d.k, blocks * d.ell, d.r, d.eps, subsets)


def deterministic_disperser(
    m: int, k: int, r: int, eps: float, budget: SolveBudget | None = None
) -> Disperser:
    """Exhaustive search on a small universe m' ~ r*ln(k), then tensor lift to [m].

    When m' does not divide m the search runs over the padded universe and the
    padding elements are dropped after lifting; subsets are then topped up with
    unused elements to a uniform size (which can only grow unions), and the
    result is re-verified before it is returned. When m' divides m nothing is
    trimmed: each r-union of the lift is one the search verified, copied into
    each of the b = m/m' blocks, and b * ceil((1 - eps) m') >= ceil((1 - eps) m),
    so the lift is returned without a second check. One budget bounds the
    whole search: every candidate's verification and the final one tick the
    same meter.
    """
    if min(m, k, r) < 1 or not 0.0 < eps < 1.0:
        raise ValidationError("need m, k, r >= 1 and eps in (0,1)")
    _check_counts(*zip(_COUNTS, (m, k)))  # before the search and the lift to [m]
    meter = _Meter(budget)
    m_small = min(m, max(1, math.ceil(r * math.log(k))))
    ell_small = disperser_subset_size(m_small, r, eps)
    blocks = -(-m // m_small)
    _MaskBits("element").add(k * min(m, blocks * ell_small))  # the output's k * ell
    size = math.comb(m_small, ell_small)
    if size > meter.max_nodes:
        raise BudgetExceededError(
            f"C({m_small},{ell_small}) candidate subsets exceed the search budget"
        )
    # Candidates read the pool's masks, each drawn once, in combinations order,
    # when the product first reaches it: pool index i first comes up last.
    subsets = map(_mask_of, itertools.combinations(range(m_small), ell_small))
    pool, widths = [], _MaskBits("element")
    need = _union_floor(m_small, eps)
    for collection in itertools.product(range(size), repeat=k):
        meter.tick()
        if collection[-1] == len(pool):
            pool.append(next(subsets))
            widths.add(pool[-1].bit_length())
        if _violation([pool[i] for i in collection], r, need, meter) is None:
            break
    else:
        raise GenerationError(
            f"exhausted all collections of {k} subsets of [{m_small}] without finding a disperser"
        )
    chosen = tuple(frozenset(bits_of(pool[i])) for i in collection)
    found = Disperser(m_small, k, ell_small, r, eps, chosen)
    lifted = lift_disperser(found, blocks)
    if lifted.m == m:
        return lifted
    trimmed = [frozenset(x for x in s if x < m) for s in lifted.subsets]
    ell_final = min(m, lifted.ell)
    final = []
    for s in trimmed:
        spare = (x for x in range(m) if x not in s)
        final.append(s | frozenset(itertools.islice(spare, ell_final - len(s))))
    result = Disperser(m, k, ell_final, r, eps, tuple(final))
    witness = _verify_disperser(result, meter)
    if witness is not None:
        raise GenerationError(
            f"lifted disperser fails verification at indices {witness} "
            f"(universe padding weakened the union fraction)"
        )
    return result


def emit_disperser(d: Disperser) -> str:
    lines = [f"disp {d.m} {d.k} {d.ell} {d.r} {d.eps!r}"]
    for s in d.subsets:
        lines.append(" ".join(str(x + 1) for x in sorted(s)))
    return "\n".join(lines) + "\n"


def parse_disperser(data) -> Disperser:
    """Parse the disperser format ('disp m k l r eps' header, one line of
    1-indexed elements per subset)."""
    records = _records(data)
    first = next(records, None)
    if first is None:
        raise ParseError("missing 'disp' header")
    lineno, line, fields = first
    if fields[0] != "disp":
        raise ParseError(f"line {lineno}: missing 'disp' header")
    if len(fields) != 6:
        raise ParseError(f"line {lineno}: malformed header {line!r}")
    m, k, ell, r = _ints(lineno, fields[1:5], "header field")
    _check_header_counts(lineno, *zip(_COUNTS, (m, k)))
    try:
        eps = float(fields[5])
    except ValueError:
        raise ParseError(f"line {lineno}: non-numeric header field") from None
    subsets = [frozenset(x - 1 for x in _ints(n, row, "element")) for n, _, row in records]
    if len(subsets) != k:
        raise ParseError(f"header declares {k} subsets, found {len(subsets)}")
    return _checked(Disperser, m, k, ell, r, eps, tuple(subsets))
