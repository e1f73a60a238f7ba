"""Pregroup types: atomic types, adjoints, and type sequences.

Each atomic type ``a`` has iterated left and right adjoints, tracked by an
integer winding number ``z``: ``a.l`` has z-1, ``a.r`` has z+1, and the
adjoint laws (a.l).r == a == (a.r).l hold as plain integer arithmetic.
A sequence reduces by deleting any adjacent pair (a^z, a^(z+1)); the empty
sequence is the monoidal unit.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

NOUN = "n"
SENTENCE = "s"


@dataclass(frozen=True)
class PType:
    """A single pregroup type: an atomic base with an adjoint winding."""

    base: str
    z: int = 0

    @property
    def l(self) -> PType:
        return PType(self.base, self.z - 1)

    @property
    def r(self) -> PType:
        return PType(self.base, self.z + 1)

    def __str__(self) -> str:
        if self.z < 0:
            return self.base + "." + "l" * (-self.z)
        if self.z > 0:
            return self.base + "." + "r" * self.z
        return self.base

    def __repr__(self) -> str:
        return f"PType({self.base!r}, {self.z})" if self.z else f"PType({self.base!r})"


@dataclass(frozen=True)
class TypeSeq:
    """Ordered sequence of PTypes; concatenation is the monoidal product."""

    items: tuple[PType, ...] = ()

    def __matmul__(self, other: TypeSeq) -> TypeSeq:
        return TypeSeq(self.items + other.items)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[PType]:
        return iter(self.items)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return TypeSeq(self.items[key])
        return self.items[key]

    def __bool__(self) -> bool:
        return bool(self.items)

    @property
    def l(self) -> TypeSeq:
        """Left adjoint: reverse the sequence and decrement each winding."""
        return TypeSeq(tuple(t.l for t in reversed(self.items)))

    @property
    def r(self) -> TypeSeq:
        """Right adjoint: reverse the sequence and increment each winding."""
        return TypeSeq(tuple(t.r for t in reversed(self.items)))

    def __str__(self) -> str:
        return " @ ".join(str(t) for t in self.items) if self.items else "()"

    def __repr__(self) -> str:
        return f"TypeSeq({self.items!r})"


EMPTY = TypeSeq()


def ts(*specs: PType | str) -> TypeSeq:
    """Build a TypeSeq from PTypes or strings like "n", "n.l", "s.rr"."""
    out = []
    for spec in specs:
        if isinstance(spec, PType):
            out.append(spec)
            continue
        parts = spec.split(".", 1)
        base = parts[0]
        z = 0
        if len(parts) == 2:
            tail = parts[1].replace(".", "")
            if tail and set(tail) <= {"l"}:
                z = -len(tail)
            elif tail and set(tail) <= {"r"}:
                z = len(tail)
            else:
                raise ValueError(f"bad type spec {spec!r}")
        out.append(PType(base, z))
    return TypeSeq(tuple(out))


def _cancels(a: PType, b: PType) -> bool:
    return a.base == b.base and a.z + 1 == b.z


def reduce(seq: TypeSeq) -> TypeSeq:
    """Canonical irreducible form of a type sequence.

    Deletes adjacent (a^z, a^(z+1)) pairs with a greedy left-to-right stack
    scan. Deletion orders are not confluent when deletable pairs overlap
    (n.l n n.r strands either end), so this is one canonical choice; use
    reduces_to for reachability questions.
    """
    stack: list[PType] = []
    for t in seq:
        if stack and _cancels(stack[-1], t):
            stack.pop()
        else:
            stack.append(t)
    return TypeSeq(tuple(stack))


@lru_cache(maxsize=65536)
def _reachable(items: tuple[PType, ...], target: tuple[PType, ...]) -> bool:
    if items == target:
        return True
    if len(items) < len(target):
        return False
    return any(
        _reachable(items[:i] + items[i + 2:], target)
        for i in range(len(items) - 1)
        if _cancels(items[i], items[i + 1])
    )


def reduces_to(seq: TypeSeq, target: TypeSeq) -> bool:
    """Whether some sequence of adjacent-pair deletions turns seq into target.

    The greedy scan is only a witness, not a decision procedure: deletion
    is not confluent (n.l n n.r deletes to n.r or to n.l), so a miss by
    the greedy scan falls back to an exhaustive memoized search.
    """
    if reduce(seq) == target:
        return True
    return _reachable(seq.items, target.items)

