"""String diagrams over pregroup types.

A diagram is a list of layers, each holding one box and the count of wires
to its left. Scanning layers top to bottom from the domain, every box must
consume exactly the wire window at its offset; the final wire sequence is
the codomain. ``Diagram`` values are immutable.

Diagrams are built in a ``Builder``, a layer list plus the wires below its
last layer. ``Builder.add`` is the one per-layer type check (it raises
``IllTyped``), and ``Builder.diagram()`` freezes the list once. The public
constructor (``Diagram(dom, cod, layers)``, ``diagram_from_dict``),
``cup_at``, the readers, the CCG conversion and the rewrite fragments all
go through ``add``. ``then``, ``tensor``, ``rewrite.apply`` and
``normal_form`` only combine or reorder typed layers, so they freeze their
results unchecked. ``normal_form`` copies the layer list once and yanks
every snake in place, resuming its scan near each yanked cap. Building,
rewriting and normalising an L-layer diagram thus checks and copies O(L)
layers.

Box variants:

* ``Word(token, dom, cod)`` -- a labelled process (usually a state, dom=()).
* ``Cup(base, z)`` -- contraction of the adjacent pair (a^z, a^(z+1)).
* ``Cap(base, z)`` -- creation of the matched pair (a^(z+1), a^z), oriented
  so that both snake equations hold against ``Cup(base, z)``.
* ``Spider(base, z, n_in, n_out)`` -- commutative merge of equal wires.
* ``Swap(left, right)`` -- explicit wire crossing.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Union

from .types import EMPTY, PType, TypeSeq, hash_once


class TypeMismatch(Exception):
    """Sequential composition with non-matching boundary types."""


class IllTyped(Exception):
    """A layer list that does not scan against its declared dom/cod."""


@hash_once
@dataclass(frozen=True)
class Word:
    token: str
    dom: TypeSeq = EMPTY
    cod: TypeSeq = EMPTY


@dataclass(frozen=True)
class Cup:
    base: str
    z: int = 0

    @property
    def dom(self) -> TypeSeq:
        return TypeSeq((PType(self.base, self.z), PType(self.base, self.z + 1)))

    @property
    def cod(self) -> TypeSeq:
        return EMPTY


@dataclass(frozen=True)
class Cap:
    base: str
    z: int = 0

    @property
    def dom(self) -> TypeSeq:
        return EMPTY

    @property
    def cod(self) -> TypeSeq:
        return TypeSeq((PType(self.base, self.z + 1), PType(self.base, self.z)))


@dataclass(frozen=True)
class Spider:
    base: str
    z: int
    n_in: int
    n_out: int

    def __post_init__(self):
        if self.n_in < 0 or self.n_out < 0 or self.n_in + self.n_out < 1:
            raise ValueError("spider needs at least one leg")

    @property
    def dom(self) -> TypeSeq:
        return TypeSeq((PType(self.base, self.z),) * self.n_in)

    @property
    def cod(self) -> TypeSeq:
        return TypeSeq((PType(self.base, self.z),) * self.n_out)


@dataclass(frozen=True)
class Swap:
    left: PType
    right: PType

    @property
    def dom(self) -> TypeSeq:
        return TypeSeq((self.left, self.right))

    @property
    def cod(self) -> TypeSeq:
        return TypeSeq((self.right, self.left))


Box = Union[Word, Cup, Cap, Spider, Swap]


@dataclass(frozen=True)
class Diagram:
    """A layer list that scans from ``dom`` to ``cod``.

    Invariant: every instance type-checks. The constructor checks each
    layer once through ``Builder.add``; composition, tensor and
    ``normal_form`` preserve typing, so their results skip the check.
    """

    dom: TypeSeq = EMPTY
    cod: TypeSeq = EMPTY
    layers: tuple[tuple[Box, int], ...] = ()

    def __post_init__(self):
        self._check()

    def _check(self) -> None:
        b = Builder(self.dom)
        for box, offset in self.layers:
            b.add(box, offset)
        if b.cod != self.cod:
            raise IllTyped(f"final wires {b.cod} do not match cod {self.cod}")

    @classmethod
    def _typed(cls, dom: TypeSeq, cod: TypeSeq,
               layers: tuple[tuple[Box, int], ...]) -> Diagram:
        """Build without scanning; the caller guarantees that layers scan."""
        d = object.__new__(cls)
        object.__setattr__(d, "dom", dom)
        object.__setattr__(d, "cod", cod)
        object.__setattr__(d, "layers", layers)
        return d

    @staticmethod
    def identity(types: TypeSeq) -> Diagram:
        return Diagram(types, types, ())

    @staticmethod
    def from_box(box: Box) -> Diagram:
        return Diagram(box.dom, box.cod, ((box, 0),))

    def then(self, other: Diagram) -> Diagram:
        """Sequential composition; self on top, other below."""
        if self.cod != other.dom:
            raise TypeMismatch(
                f"cannot compose: cod {self.cod} does not match dom {other.dom}"
            )
        return Diagram._typed(self.dom, other.cod, self.layers + other.layers)

    def tensor(self, other: Diagram) -> Diagram:
        """Parallel composition; other placed to the right of self."""
        shifted = tuple(
            (box, offset + len(self.cod)) for box, offset in other.layers
        )
        return Diagram._typed(
            self.dom @ other.dom,
            self.cod @ other.cod,
            self.layers + shifted,
        )

    def __rshift__(self, other: Diagram) -> Diagram:
        return self.then(other)

    def __matmul__(self, other: Diagram) -> Diagram:
        return self.tensor(other)

    def wire_layers(self) -> list[TypeSeq]:
        """Wire sequences at every boundary: index k is above layer k."""
        out = [self.dom]
        wires = self.dom
        for box, offset in self.layers:
            wires = wires[:offset] @ box.cod @ wires[offset + len(box.dom):]
            out.append(wires)
        return out

    @property
    def boxes(self) -> list[Box]:
        return [box for box, _ in self.layers]

    def normal_form(self) -> Diagram:
        """Remove every yankable cap-cup snake, iterating to a fixed point."""
        layers = list(self.layers)
        _remove_snakes(layers)
        return Diagram._typed(self.dom, self.cod, tuple(layers))

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(diagram_to_dict(self), indent=indent)

    @staticmethod
    def from_json(text: str) -> Diagram:
        return diagram_from_json(text)


class Builder:
    """A layer list that scans from ``dom``, and the wires below it."""

    def __init__(self, dom: TypeSeq = EMPTY):
        self.dom = dom
        self.wires = list(dom)
        self.layers: list[tuple[Box, int]] = []

    @property
    def cod(self) -> TypeSeq:
        return TypeSeq(tuple(self.wires))

    def add(self, box: Box, offset: int) -> Builder:
        """Append ``box`` consuming the wires at ``offset``."""
        wires, dom = self.wires, box.dom
        end = offset + len(dom)
        if offset < 0 or end > len(wires):
            raise IllTyped(f"layer {len(self.layers)}: offset {offset} out of "
                           f"range for {len(wires)} wires and box dom {dom}")
        window = TypeSeq(tuple(wires[offset:end]))
        if window != dom:
            raise IllTyped(f"layer {len(self.layers)}: box dom {dom} does not "
                           f"match wires {window}")
        wires[offset:end] = box.cod.items
        self.layers.append((box, offset))
        return self

    def cup(self, offset: int) -> Builder:
        """Append a cup over the cancelling pair of wires at ``offset``."""
        if not 0 <= offset < len(self.wires) - 1:
            raise IllTyped(f"cup offset {offset} out of range for "
                           f"{len(self.wires)} wires")
        a, b = self.wires[offset], self.wires[offset + 1]
        if a.base != b.base or a.z + 1 != b.z:
            raise TypeMismatch(
                f"wires {a} and {b} at offset {offset} do not cancel")
        return self.add(Cup(a.base, a.z), offset)

    def diagram(self) -> Diagram:
        return Diagram._typed(self.dom, self.cod, tuple(self.layers))


def word(token: str, cod: TypeSeq, dom: TypeSeq = EMPTY) -> Diagram:
    return Diagram.from_box(Word(token, dom, cod))


def cup_at(d: Diagram, offset: int) -> Diagram:
    """Append a cup over the adjacent cancelling pair at ``offset`` of d.cod."""
    return d >> Builder(d.cod).cup(offset).diagram()


# ---------------------------------------------------------------------------
# Snake removal.
#
# A snake is a cap with one leg wired straight into a cup such that the pair
# is one of the two yankable patterns:
#   right snake: the cap's right leg enters the cup's left slot,
#   left snake:  the cap's left leg enters the cup's right slot.
# Every box between the two layers misses the traced wire, so it lies
# strictly left or strictly right of it. Right boxes commute with the cup
# (whose body is on the left of the wire for a left snake) and left boxes
# commute with the cap, and vice versa for right snakes; pushing the
# off-side boxes below the cup and sliding the cap down the remaining ones
# always makes the pair adjacent, where deleting both layers is the yank.
#
# Each step yanks the snake of the first cap, in layer order, that has one,
# trying its right leg before its left. A yank permutes only the layers from
# its cap to its cup and keeps every wire's consumer but one: the wire that
# entered the cup's other slot now runs on to where the cap's other leg
# went. So the caps above the yanked one stay without a snake, except the
# cap, if any, that drew that wire, and the scan resumes at that cap or at
# the yanked cap's layer instead of at layer 0. Each cap is thus traced
# once, plus once for each yank that rewires one of its legs.
# ---------------------------------------------------------------------------


def _interchange(layers: list, k: int) -> bool:
    """Swap layers k and k+1 in place if their windows are disjoint."""
    (b1, o1), (b2, o2) = layers[k], layers[k + 1]
    c1, d1 = len(b1.cod), len(b1.dom)
    d2 = len(b2.dom)
    if o2 >= o1 + c1:
        layers[k:k + 2] = (b2, o2 - c1 + d1), (b1, o1)
    elif o2 + d2 <= o1:
        layers[k:k + 2] = (b2, o2), (b1, o1 + len(b2.cod) - d2)
    else:
        return False
    return True


def _follow_wire(layers, start_layer: int, position: int):
    """Trace the wire at ``position`` below ``start_layer`` until consumed.

    Returns (consumer_layer, position_at_consumer, dom_slot, lefts, rights)
    or None when the wire reaches the codomain. lefts/rights are the layer
    indices passed strictly on each side of the wire.
    """
    wire = position
    lefts, rights = [], []
    for j in range(start_layer + 1, len(layers)):
        box, off = layers[j]
        nd = len(box.dom)
        if off <= wire < off + nd:
            return j, wire, wire - off, lefts, rights
        if off + nd <= wire:
            wire += len(box.cod) - nd
            lefts.append(j)
        else:
            rights.append(j)
    return None


def _producer(layers: list, layer: int, position: int) -> int:
    """The layer above ``layer`` whose box outputs the wire at ``position``
    of ``layer``'s input, or -1 for a wire of the domain."""
    for k in range(layer - 1, -1, -1):
        box, off = layers[k]
        nc = len(box.cod)
        if off <= position < off + nc:
            return k
        if off + nc <= position:
            position += len(box.dom) - nc
    return -1


def _snake(layers: list, i: int):
    """The snake of the cap at layer ``i``, right leg first, as (leg,
    cup_layer, wire position at the cup, lefts, rights), or None."""
    box, off = layers[i]
    # leg 0 is the cap's left output, leg 1 its right output
    for leg, want_slot in ((1, 0), (0, 1)):
        hit = _follow_wire(layers, i, off + leg)
        if hit is None:
            continue
        j, wire, slot, lefts, rights = hit
        cup = layers[j][0]
        if isinstance(cup, Cup) and slot == want_slot \
                and cup.base == box.base and cup.z == box.z:
            return leg, j, wire, lefts, rights
    return None


def _remove_snakes(layers: list) -> None:
    """Yank every snake of ``layers`` in place, first cap first."""
    i = 0
    while i < len(layers):
        snake = _snake(layers, i) if isinstance(layers[i][0], Cap) else None
        if snake is None:
            i += 1
            continue
        leg, j, wire, lefts, rights = snake
        # the cup's other slot is right of the traced wire for a right
        # snake (leg 1), left of it for a left snake
        drawer = _producer(layers, j, wire + 2 * leg - 1)
        _yank(layers, i, j, leg, lefts, rights)
        if 0 <= drawer < i and isinstance(layers[drawer][0], Cap):
            i = drawer


def _yank(layers: list, cap: int, cup: int, leg: int,
          lefts: list[int], rights: list[int]) -> None:
    """Yank the snake of the layers ``cap`` and ``cup``, in place.

    Every interchange succeeds: each moves a box past one on the other side
    of the traced wire, or past the cap or cup on that wire's far side.
    """
    # off-side boxes go below the cup; the cap slides down the near-side ones
    below, near = (lefts, rights) if leg == 1 else (rights, lefts)
    for idx in reversed(below):
        for k in range(idx, cup):
            _interchange(layers, k)
        cup -= 1
    for _ in near:
        _interchange(layers, cap)
        cap += 1
    # the adjacent cap and cup compose to the identity on the traced wire
    del layers[cap:cap + 2]


# ---------------------------------------------------------------------------
# JSON serialization.
# ---------------------------------------------------------------------------


class ParseError(Exception):
    """Malformed diagram document."""

    def __init__(self, reason: str, offset: int = 0):
        super().__init__(f"{reason} (byte offset {offset})")
        self.reason = reason
        self.offset = offset


def _type_to_dict(t: PType) -> dict:
    return {"base": t.base, "z": t.z}


def _seq_to_list(seq: TypeSeq) -> list:
    return [_type_to_dict(t) for t in seq]


def _box_to_dict(box: Box) -> dict:
    if isinstance(box, Word):
        return {"kind": "word", "token": box.token,
                "dom": _seq_to_list(box.dom), "cod": _seq_to_list(box.cod)}
    if isinstance(box, Cup):
        return {"kind": "cup", "base": box.base, "z": box.z}
    if isinstance(box, Cap):
        return {"kind": "cap", "base": box.base, "z": box.z}
    if isinstance(box, Spider):
        return {"kind": "spider", "base": box.base, "z": box.z,
                "n_in": box.n_in, "n_out": box.n_out}
    if isinstance(box, Swap):
        return {"kind": "swap", "left": _type_to_dict(box.left),
                "right": _type_to_dict(box.right)}
    raise TypeError(f"unknown box {box!r}")


def diagram_to_dict(d: Diagram) -> dict:
    return {
        "dom": _seq_to_list(d.dom),
        "cod": _seq_to_list(d.cod),
        "layers": [{"box": _box_to_dict(b), "offset": o} for b, o in d.layers],
    }


def _type_from_dict(obj) -> PType:
    if not isinstance(obj, dict) or "base" not in obj:
        raise ParseError(f"expected a type object, got {obj!r}")
    base, z = obj["base"], obj.get("z", 0)
    if not isinstance(base, str) or not isinstance(z, int):
        raise ParseError(f"bad type fields in {obj!r}")
    return PType(base, z)


def _seq_from_list(obj) -> TypeSeq:
    if not isinstance(obj, list):
        raise ParseError(f"expected a list of types, got {obj!r}")
    return TypeSeq(tuple(_type_from_dict(t) for t in obj))


def _box_from_dict(obj) -> Box:
    if not isinstance(obj, dict):
        raise ParseError(f"expected a box object, got {obj!r}")
    kind = obj.get("kind")
    try:
        if kind == "word":
            return Word(obj["token"], _seq_from_list(obj["dom"]),
                        _seq_from_list(obj["cod"]))
        if kind == "cup":
            return Cup(obj["base"], obj["z"])
        if kind == "cap":
            return Cap(obj["base"], obj["z"])
        if kind == "spider":
            return Spider(obj["base"], obj["z"], obj["n_in"], obj["n_out"])
        if kind == "swap":
            return Swap(_type_from_dict(obj["left"]),
                        _type_from_dict(obj["right"]))
    except KeyError as exc:
        raise ParseError(f"box missing field {exc} in {obj!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad box fields: {exc}") from exc
    raise ParseError(f"unknown box kind {kind!r}")


def diagram_from_dict(obj) -> Diagram:
    if not isinstance(obj, dict):
        raise ParseError(f"expected a diagram object, got {obj!r}")
    for key in ("dom", "cod", "layers"):
        if key not in obj:
            raise ParseError(f"diagram missing field {key!r}")
    layers = []
    for entry in obj["layers"]:
        if not isinstance(entry, dict) or "box" not in entry or "offset" not in entry:
            raise ParseError(f"bad layer entry {entry!r}")
        if not isinstance(entry["offset"], int):
            raise ParseError(f"offset must be an integer in {entry!r}")
        layers.append((_box_from_dict(entry["box"]), entry["offset"]))
    try:
        return Diagram(_seq_from_list(obj["dom"]), _seq_from_list(obj["cod"]),
                       tuple(layers))
    except IllTyped as exc:
        raise ParseError(f"diagram does not type-check: {exc}") from exc


def diagram_from_json(text: str) -> Diagram:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.pos) from exc
    return diagram_from_dict(obj)
