"""Integer affine expressions over parameters, bound boxes, constraint sets
and exact valuation-set arithmetic.

Parameters range over a finite integer box, so every entailment question is
decided exactly by looking at the integer points of the box.  A constraint's
extension is a bitset indexed by the row-major position of a point in the
box grid.  A constraint set is nothing but the extension of its
conjunction, and the engines carry it as a plain int.

The zone machinery asks the same questions over and over, so the answers
are memoized, on the box and nowhere else: ``ParamBox.bounds`` is the
box's ``BoundTable``, which hash-conses bounds and memoizes their sums,
and their comparisons and widening windows as extension bits, which
would be wrong for any other box.

Most comparisons do not need the points one by one.  A constant
constraint holds on the whole box or nowhere.  One over a single
parameter, ``z*p + k < 0`` or ``<= 0``, is a threshold on ``p``, rounded
exactly on the integers and answered from the bits of "p is at most t",
which the box builds with integer shifts and memoizes per (parameter, t).
Two bounds with equal coefficients differ by a constant, so the table
compares them without building the difference.  Only constraints over
two or more parameters are evaluated on the numpy grid of the box.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import CapacityError, EvaluationError, InputError, SynthError

MAX_BOX_POINTS = 1 << 24


@dataclass(frozen=True)
class ParamBox:
    """Finite integer bounds for every parameter.

    ``params`` fixes the canonical parameter order; valuation-set bit indices
    and all serialized output follow it (row-major, last parameter fastest).
    """

    params: tuple[str, ...]
    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.params)) != len(self.params):
            raise InputError("duplicate parameter name", kind="duplicate-parameter")
        if len(self.lo) != len(self.params) or len(self.hi) != len(self.params):
            raise SynthError("bounds do not match parameter list")
        for p, a, b in zip(self.params, self.lo, self.hi):
            if a > b:
                raise SynthError(f"empty range for parameter {p}: {a}..{b}")
            if a < -(1 << 63) or b >= 1 << 63:  # the grid is int64
                raise InputError(f"range of parameter {p} ({a}..{b}) leaves "
                                 f"the int64 grid", kind="bound-range")
        if self.size > MAX_BOX_POINTS:
            raise CapacityError(
                f"parameter box has {self.size} points (limit {MAX_BOX_POINTS})"
            )

    @classmethod
    def of(cls, bounds: Mapping[str, tuple[int, int]]) -> "ParamBox":
        names = tuple(bounds)
        return cls(names, tuple(bounds[p][0] for p in names),
                   tuple(bounds[p][1] for p in names))

    @property
    def size(self) -> int:
        n = 1
        for a, b in zip(self.lo, self.hi):
            n *= b - a + 1
        return n

    def lower(self, p: str) -> int:
        return self.lo[self.params.index(p)]

    def upper(self, p: str) -> int:
        return self.hi[self.params.index(p)]

    @cached_property
    def grid(self) -> np.ndarray:
        """(num_params, size) int64 array of all points, row-major order."""
        if not self.params:
            return np.zeros((0, 1), dtype=np.int64)
        axes = [np.arange(a, b + 1, dtype=np.int64)
                for a, b in zip(self.lo, self.hi)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh])

    @cached_property
    def _full_bits(self) -> int:
        return (1 << self.size) - 1

    def values(self, e: "AffineExpr") -> np.ndarray:
        """Values of ``e`` at every point, in row-major order (int64)."""
        return self._values(e.const, e.coeffs)

    def _values(self, const: int, coeffs) -> np.ndarray:
        vals = np.full(self.size, const, dtype=np.int64)
        for p, z in coeffs:
            vals += z * self.grid[self.params.index(p)]
        return vals

    def constraint_bits(self, c: "Constraint") -> int:
        """Bitset of the points satisfying ``c``."""
        return self.affine_bits(c.lhs.const, c.lhs.coeffs, c.strict)

    def affine_bits(self, const: int, coeffs, strict: bool) -> int:
        """Bitset of the points where ``const + sum(z * p)`` over the
        ``(p, z)`` pairs of ``coeffs`` (nonzero ``z``, each parameter once)
        is below 0 (``strict``) or at most 0.

        A constant constraint holds everywhere or nowhere, and one over a
        single parameter is a threshold on it; only constraints over two
        or more parameters are evaluated on the grid."""
        if not coeffs:
            holds = const < 0 if strict else const <= 0
            return self._full_bits if holds else 0
        if len(coeffs) == 1:
            # z*p + k < 0 is z*p + k + 1 <= 0 on integers: z*p <= r
            (p, z), = coeffs
            r = -const - (1 if strict else 0)
            if z > 0:
                return self._threshold_bits(p, r // z)
            # p >= ceil(r / z) = -(r // -z), the complement of p <= that - 1
            return self._full_bits & ~self._threshold_bits(p, -(r // -z) - 1)
        vals = self._values(const, coeffs)
        mask = vals < 0 if strict else vals <= 0
        return int.from_bytes(
            np.packbits(mask, bitorder="little").tobytes(), "little")

    def _threshold_bits(self, p: str, t: int) -> int:
        """Bitset of the points where parameter ``p`` is at most ``t``."""
        a = self.params.index(p)
        lo, hi = self.lo[a], self.hi[a]
        if t < lo:
            return 0
        if t >= hi:
            return self._full_bits
        got = self._thresholds.get((p, t))
        if got is None:
            # row-major: p's value is constant over runs of ``inner``
            # points, and its whole range repeats every ``period`` points
            inner = 1
            for b, c in zip(self.lo[a + 1:], self.hi[a + 1:]):
                inner *= c - b + 1
            period = (hi - lo + 1) * inner
            got = self._thresholds[(p, t)] = _repeat(
                (1 << (t - lo + 1) * inner) - 1, period, self.size // period)
        return got

    @cached_property
    def _thresholds(self) -> dict[tuple[str, int], int]:
        return {}

    @cached_property
    def bounds(self) -> "BoundTable":
        """The box's table of hash-consed bounds and memoized bound
        arithmetic."""
        return BoundTable(self)

    def point(self, index: int) -> dict[str, int]:
        """Valuation at a row-major grid index."""
        col = self.grid[:, index]
        return {p: int(v) for p, v in zip(self.params, col)}

    def index(self, v: Mapping[str, int]) -> int:
        idx = 0
        for p, a, b in zip(self.params, self.lo, self.hi):
            x = v[p]
            if not a <= x <= b:
                raise EvaluationError(f"{p}={x} outside {a}..{b}")
            idx = idx * (b - a + 1) + (x - a)
        return idx


def _repeat(bits: int, period: int, count: int) -> int:
    """``count`` copies of ``bits`` placed ``period`` bits apart, built by
    doubling so that each step is a linear shift and or."""
    out = shift = 0
    while count:
        if count & 1:
            out |= bits << shift
            shift += period
        count >>= 1
        if count:
            bits |= bits << period
            period *= 2
    return out


@dataclass(frozen=True, eq=False)
class AffineExpr:
    """Normal-form integer affine expression: constant plus integer-scaled
    parameters; zero coefficients are never stored."""

    const: int = 0
    coeffs: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.const, self.coeffs)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return (self is other
                or (isinstance(other, AffineExpr)
                    and self.const == other.const
                    and self.coeffs == other.coeffs))

    @classmethod
    def of(cls, const: int = 0, coeffs: Mapping[str, int] | None = None) -> "AffineExpr":
        items = tuple(sorted((p, int(z)) for p, z in (coeffs or {}).items() if z))
        return cls(int(const), items)

    @classmethod
    def var(cls, name: str, coeff: int = 1) -> "AffineExpr":
        return cls.of(0, {name: coeff})

    def eval(self, v: Mapping[str, int]) -> int:
        total = self.const
        for p, z in self.coeffs:
            if p not in v:
                raise EvaluationError(f"valuation missing parameter {p}")
            total += z * v[p]
        return total

    def max_bound(self, box: ParamBox) -> int:
        """Largest value over the box: positive coefficients take the upper
        bound, negative ones the lower bound."""
        total = self.const
        for p, z in self.coeffs:
            total += z * (box.upper(p) if z > 0 else box.lower(p))
        return total

    @property
    def is_const(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        if isinstance(other, int):
            other = AffineExpr(other)
        d = dict(self.coeffs)
        for p, z in other.coeffs:
            d[p] = d.get(p, 0) + z
        return AffineExpr.of(self.const + other.const, d)

    def __neg__(self):
        return AffineExpr(-self.const, tuple((p, -z) for p, z in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, int):
            other = AffineExpr(other)
        return self + (-other)

    def __mul__(self, k: int):
        return AffineExpr.of(self.const * k, {p: z * k for p, z in self.coeffs})

    __rmul__ = __mul__

    def __str__(self):
        parts = []
        for p, z in self.coeffs:
            if z == 1:
                term = p
            elif z == -1:
                term = f"-{p}"
            else:
                term = f"{z}*{p}"
            if parts and not term.startswith("-"):
                parts.append(f"+ {term}")
            elif parts:
                parts.append(f"- {term[1:]}")
            else:
                parts.append(term)
        if self.const or not parts:
            c = self.const
            if parts:
                parts.append(f"+ {c}" if c > 0 else f"- {-c}")
            else:
                parts.append(str(c))
        return " ".join(parts)


ZERO = AffineExpr()


@dataclass(frozen=True, eq=False)
class Constraint:
    """Normalized parameter constraint ``lhs < 0`` or ``lhs <= 0``."""

    lhs: AffineExpr
    strict: bool

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.lhs, self.strict)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return (self is other
                or (isinstance(other, Constraint)
                    and self.strict == other.strict
                    and self.lhs == other.lhs))

    @classmethod
    def le(cls, a: AffineExpr | int, b: AffineExpr | int) -> "Constraint":
        return cls(_expr(a) - _expr(b), strict=False)

    @classmethod
    def lt(cls, a: AffineExpr | int, b: AffineExpr | int) -> "Constraint":
        return cls(_expr(a) - _expr(b), strict=True)

    def negated(self) -> "Constraint":
        return Constraint(-self.lhs, not self.strict)

    def holds(self, v: Mapping[str, int]) -> bool:
        x = self.lhs.eval(v)
        return x < 0 if self.strict else x <= 0

    @property
    def is_trivially_true(self) -> bool:
        return self.lhs.is_const and (
            self.lhs.const < 0 if self.strict else self.lhs.const <= 0)

    def __str__(self):
        return f"{self.lhs} {'<' if self.strict else '<='} 0"


TRUE_CONSTRAINT = Constraint(ZERO, strict=False)
FALSE_CONSTRAINT = Constraint(ZERO, strict=True)


def _expr(x) -> AffineExpr:
    return AffineExpr(x) if isinstance(x, int) else x


class ConstraintSet:
    """A conjunction of constraints, kept as its extension: the bitset of
    the box points that satisfy every conjunct.

    Every parameter ranges over a finite box, so the extension decides
    every entailment question, and two conjunctions with the same points
    are the same set.  Equality and hashing use the bits alone.
    """

    __slots__ = ("bits",)

    def __init__(self, bits: int):
        self.bits = bits

    @classmethod
    def of(cls, box: ParamBox, constraints=()) -> "ConstraintSet":
        bits = box._full_bits
        for c in constraints:
            bits &= box.constraint_bits(c)
        return cls(bits)

    def __eq__(self, other):
        return isinstance(other, ConstraintSet) and self.bits == other.bits

    def __hash__(self):
        return hash(self.bits)

    def extension(self, box: ParamBox) -> "ValuationSet":
        return ValuationSet(box, self.bits)

    def extended(self, c: Constraint, box: ParamBox) -> "ConstraintSet":
        """Set with ``c`` added."""
        return ConstraintSet(self.bits & box.constraint_bits(c))

    def __repr__(self):
        return f"ConstraintSet({self.bits:#x})"


@dataclass(frozen=True)
class ValuationSet:
    """Set of integer parameter valuations inside a box, as a bitset over the
    row-major grid order."""

    box: ParamBox
    bits: int

    def _same(self, other: "ValuationSet"):
        if self.box is not other.box and self.box != other.box:
            raise SynthError("valuation sets over different boxes")

    @classmethod
    def full(cls, box: ParamBox) -> "ValuationSet":
        return cls(box, box._full_bits)

    @classmethod
    def empty(cls, box: ParamBox) -> "ValuationSet":
        return cls(box, 0)

    def union(self, other: "ValuationSet") -> "ValuationSet":
        self._same(other)
        return ValuationSet(self.box, self.bits | other.bits)

    def intersect(self, other: "ValuationSet") -> "ValuationSet":
        self._same(other)
        return ValuationSet(self.box, self.bits & other.bits)

    def subset(self, other: "ValuationSet") -> bool:
        self._same(other)
        return self.bits & other.bits == self.bits

    def complement(self) -> "ValuationSet":
        return ValuationSet(self.box, self.box._full_bits & ~self.bits)

    def difference(self, other: "ValuationSet") -> "ValuationSet":
        self._same(other)
        return ValuationSet(self.box, self.bits & ~other.bits)

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    def __len__(self):
        return self.bits.bit_count()

    def __contains__(self, v: Mapping[str, int]) -> bool:
        return bool(self.bits >> self.box.index(v) & 1)

    def indices(self) -> np.ndarray:
        size = self.box.size
        raw = np.frombuffer(
            self.bits.to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
        mask = np.unpackbits(raw, bitorder="little")[:size]
        return np.nonzero(mask)[0]

    def __iter__(self) -> Iterator[dict[str, int]]:
        for i in self.indices():
            yield self.box.point(int(i))

    def to_json_objs(self) -> list[dict[str, int]]:
        return list(self)


class Cover(enum.Enum):
    COVERS = "covers"
    COVERS_NEGATION = "covers-negation"
    SPLIT = "split"


def covers(cset: ConstraintSet, c: Constraint, box: ParamBox) -> Cover:
    """Decide whether every point of the extension satisfies ``c``, none do,
    or the answer depends on the valuation.  An empty extension counts as
    covered (vacuous truth); callers prune such branches."""
    ext = cset.bits
    cb = box.constraint_bits(c)
    if ext & cb == ext:
        return Cover.COVERS
    if ext & cb == 0:
        return Cover.COVERS_NEGATION
    return Cover.SPLIT


@dataclass(frozen=True, eq=False)
class StrictBound:
    """Upper bound on a clock difference: an affine expression (or infinity)
    plus a strictness flag.  strict=True means ``<``; infinity is always
    strict."""

    expr: AffineExpr | None
    strict: bool

    def __post_init__(self):
        if self.expr is None and not self.strict:
            raise SynthError("infinite bounds are strict")
        object.__setattr__(self, "_hash", hash((self.expr, self.strict)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return (self is other
                or (isinstance(other, StrictBound)
                    and self.strict == other.strict
                    and self.expr == other.expr))

    @property
    def is_inf(self) -> bool:
        return self.expr is None

    def __str__(self):
        if self.is_inf:
            return "inf"
        return f"({self.expr}, {'<' if self.strict else '<='})"


INF_BOUND = StrictBound(None, True)
ZERO_LE = StrictBound(ZERO, False)


def bound(e: AffineExpr | int, strict: bool = False) -> StrictBound:
    return StrictBound(_expr(e), strict)


def bound_add(b1: StrictBound, b2: StrictBound) -> StrictBound:
    """Sum of bounds; infinity absorbs, the sum is weak only when both are."""
    if b1.expr is None or b2.expr is None:
        return INF_BOUND
    if b1 is ZERO_LE:
        return b2
    if b2 is ZERO_LE:
        return b1
    return StrictBound(b1.expr + b2.expr, b1.strict or b2.strict)


def bound_le_constraint(b1: StrictBound, b2: StrictBound) -> Constraint:
    """Constraint over parameters expressing "b1 is at most b2" in the
    lexicographic bound order (value first, weak before strict)."""
    if b2.expr is None:
        return TRUE_CONSTRAINT
    if b1.expr is None:
        return FALSE_CONSTRAINT
    # weak1 implies weak2 yields a weak comparison, otherwise strict
    weak_cmp = b1.strict or not b2.strict
    return Constraint(b1.expr - b2.expr, strict=not weak_cmp)


class BoundTable:
    """Hash-consed bounds over one box, with their sums and comparisons
    memoized.

    ``intern`` maps a bound to the one object the table keeps for all
    equal bounds, and every bound the table returns is such an object, so
    a matrix built from them decides equal entries by identity.  The memos
    are keyed by the identities of interned bounds, a pair of them packed
    into one int as ``id(a) << 64 | id(b)`` (one int is smaller than a
    tuple of two); the table holds every bound it keys on, so no key
    outlives its object, and a bound that is not interned just misses and
    is interned on the way.  Comparisons are memoized as extension bits
    over the box, so ``ext & bits == ext`` decides one on an extension
    ``ext``.  ``window_bits`` memoizes, per widening window, where a
    bound lies inside it and an id of its values clamped to it; the
    widening and the node table of the symbolic engine both read it.

    A miss goes to ``ParamBox.affine_bits`` with the constant and the
    coefficients of the difference it compares, built without an
    expression object: two bounds with equal coefficients, or a constant
    bound against a window, leave a constant that holds on the whole box
    or nowhere; a difference over one parameter is a threshold mask; only
    one over two or more parameters is evaluated on the grid.
    """

    def __init__(self, box: ParamBox):
        self.box = box
        self._canon: dict[StrictBound, StrictBound] = {
            INF_BOUND: INF_BOUND, ZERO_LE: ZERO_LE}
        # the closure and widening loops read these memos directly
        self.sums: dict[int, dict[int, StrictBound]] = {}
        self.les: dict[int, int] = {}
        # window (hi, lo) -> id of a bound -> its window_bits
        self._windows: dict[tuple[int, int], dict] = {}
        self._grids: dict[tuple[int, ...], list] = {}
        self._value_ids: dict[bytes, int] = {}
        self._floor: dict[int, StrictBound] = {}

    def intern(self, b: StrictBound) -> StrictBound:
        """The table's object for bounds equal to ``b``."""
        got = self._canon.get(b)
        if got is None:
            got = self._canon[b] = b
        return got

    def add(self, b1: StrictBound, b2: StrictBound) -> StrictBound:
        """Interned ``bound_add(b1, b2)``."""
        got = self.plus(b1).get(id(b2))
        if got is None:
            b1, b2 = self.intern(b1), self.intern(b2)
            got = self.plus(b1)[id(b2)] = self.intern(bound_add(b1, b2))
        return got

    def plus(self, b: StrictBound) -> dict[int, StrictBound]:
        """Memo of the sums ``b + c``, keyed by the identity of ``c``."""
        got = self.sums.get(id(b))
        if got is None:
            b = self.intern(b)
            got = self.sums.setdefault(id(b), {})
        return got

    def le_bits(self, b1: StrictBound, b2: StrictBound) -> int:
        """Extension of "b1 is at most b2": the box points where it holds."""
        got = self.les.get(id(b1) << 64 | id(b2))
        if got is None:
            b1, b2 = self.intern(b1), self.intern(b2)
            e1, e2 = b1.expr, b2.expr
            if e2 is None:
                got = self.box._full_bits
            elif e1 is None:
                got = 0
            else:
                # e1 - e2 <= 0, strict when only b2 is: as bound_le_constraint
                diff = dict(e1.coeffs)
                for p, z in e2.coeffs:
                    diff[p] = diff.get(p, 0) - z
                got = self.box.affine_bits(
                    e1.const - e2.const,
                    [(p, z) for p, z in diff.items() if z],
                    b2.strict and not b1.strict)
            self.les[id(b1) << 64 | id(b2)] = got
        return got

    def windows(self, maxima: Sequence[int]) -> list[list[dict]]:
        """Per entry (i, j), the ``window_bits`` memo of the window
        (maxima[i], -maxima[j]), keyed by the identity of the bound."""
        maxima = tuple(maxima)
        got = self._grids.get(maxima)
        if got is None:
            got = self._grids[maxima] = [
                [self._windows.setdefault((hi, -m), {}) for m in maxima]
                for hi in maxima]
        return got

    def window_bits(self, b: StrictBound, hi: int,
                    lo: int) -> tuple[int, int, int]:
        """Points where the finite bound's value is at most ``hi``, points
        where it is at least ``lo``, and the id of its encoded values
        ``2v + weak`` at every point clamped to [2*lo - 1, 2*hi + 2], one
        step outside the window: equal ids mean equal values wherever
        either bound lies inside the window."""
        b = self.intern(b)
        memo = self._windows.setdefault((hi, lo), {})
        got = memo.get(id(b))
        if got is None:
            e, box = b.expr, self.box
            weak = 0 if b.strict else 1
            if e.is_const:
                # the bytes the array below would hold, without the array
                v = min(max(2 * e.const + weak, 2 * lo - 1), 2 * hi + 2)
                raw = v.to_bytes(8, sys.byteorder, signed=True) * box.size
            else:
                vals = box.values(e) * 2 + weak
                np.maximum(vals, 2 * lo - 1, out=vals)
                raw = np.minimum(vals, 2 * hi + 2, out=vals).tobytes()
            # e - hi <= 0 and lo - e <= 0
            got = memo[id(b)] = (
                box.affine_bits(e.const - hi, e.coeffs, False),
                box.affine_bits(lo - e.const, [(p, -z) for p, z in e.coeffs],
                                False),
                self._value_ids.setdefault(raw, len(self._value_ids)))
        return got

    def floor(self, m: int) -> StrictBound:
        """The interned bound ``(-m, <)``."""
        got = self._floor.get(m)
        if got is None:
            got = self._floor[m] = self.intern(StrictBound(AffineExpr(-m), True))
        return got


def bound_eval(b: StrictBound, v: Mapping[str, int]) -> tuple[int, bool] | None:
    """Concrete (value, strict) pair, or None for infinity."""
    if b.is_inf:
        return None
    return b.expr.eval(v), b.strict
