"""CCG derivation ingestion and conversion to pregroup string diagrams.

Derivations come from CCGBank AUTO files: one derivation per line, internal
nodes ``(<T cat head dtrs> child...)``, leaves ``(<L cat pos1 pos2 token
pred-arg-cat>)``, each under an optional ``ID=`` header. AUTO stores no
combinator names, so the rule tag of every node is inferred from the child
and parent categories.

The translation to pregroup types sends N, NP and PP to the noun type, any
S[feature] to the sentence type, X/Y to T(X) ++ T(Y).l and X\\Y to
T(Y).r ++ T(X). Application and composition become nested cups; crossed
composition routes the displaced block with explicit swaps; type raising
becomes a cap; other unary re-typings that are not cap-shaped fall back to
a typed bridge box. A category marked [conj] maps to T(X).r ++ T(X) and the
conjunction word itself is typed as the right adjoint of its neighbour, so
coordination completes with ordinary backward-application cups.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import Iterator, Optional, Union

from .diagram import (
    Builder, Cap, Diagram, IllTyped, Swap, TypeMismatch, Word,
)
from .types import NOUN, SENTENCE, PType, TypeSeq, hash_once

logger = logging.getLogger(__name__)

PUNCT_ATOMS = {",", ".", ":", ";", "LRB", "RRB", "``", "''"}
CONJ_ATOMS = {"conj"}

RULES = ("FA", "BA", "FC", "BC", "FX", "BX", "TR", "LEX", "CONJ", "UNARY")

# parse_category, cat_to_typeseq, infer_rule and infer_unary_rule are pure
# maps of frozen categories, called once per leaf or node of every
# derivation, so each keeps its results in a bounded cache of 4096 entries:
# CCGBank has about 1,300 lexical category types, so the bound holds every
# category of a corpus, and a rarer combination past it is evicted least
# recently used first. An exception is never cached: a bad category or
# combination raises on every call.


class ParseError(Exception):
    """Malformed AUTO derivation text."""

    def __init__(self, reason: str, line: int = 0, column: int = 0):
        super().__init__(f"{reason} (line {line}, column {column})")
        self.reason = reason
        self.line = line
        self.column = column


class UnknownCategory(Exception):
    """A category string that cannot be parsed or mapped to pregroup types."""


class DerivationError(Exception):
    """A well-formed derivation using an unsupported or ill-typed combination."""


# ---------------------------------------------------------------------------
# Categories.
# ---------------------------------------------------------------------------


@hash_once
@dataclass(frozen=True)
class Atomic:
    name: str
    feature: Optional[str] = None
    conj: bool = False


@hash_once
@dataclass(frozen=True)
class Forward:
    result: "CCGCategory"
    argument: "CCGCategory"
    conj: bool = False


@hash_once
@dataclass(frozen=True)
class Backward:
    result: "CCGCategory"
    argument: "CCGCategory"
    conj: bool = False


CCGCategory = Union[Atomic, Forward, Backward]


def _strip_conj(c: CCGCategory) -> CCGCategory:
    if not c.conj:
        return c
    return replace(c, conj=False)


def _strip_features(c: CCGCategory) -> CCGCategory:
    if isinstance(c, Atomic):
        return Atomic(c.name)
    return type(c)(_strip_features(c.result), _strip_features(c.argument))


def cat_eq(a: CCGCategory, b: CCGCategory) -> bool:
    """Category equality modulo bracket features and conj marking."""
    return _strip_features(a) == _strip_features(b)


def category_to_str(c: CCGCategory) -> str:
    if isinstance(c, Atomic):
        out = c.name + (f"[{c.feature}]" if c.feature else "")
    else:
        slash = "/" if isinstance(c, Forward) else "\\"
        res = category_to_str(c.result)
        arg = category_to_str(c.argument)
        if not isinstance(c.argument, Atomic):
            arg = f"({arg})"
        if not isinstance(c.result, Atomic):
            res = f"({res})"
        out = f"{res}{slash}{arg}"
    return out + ("[conj]" if c.conj else "")


class _CatParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, reason: str):
        raise UnknownCategory(f"{reason} in category {self.text!r} at {self.pos}")

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> CCGCategory:
        cat = self.parse_cat()
        if self.pos != len(self.text):
            self.fail("trailing characters")
        return cat

    def parse_cat(self) -> CCGCategory:
        cat = self.parse_item()
        while self.peek() in ("/", "\\"):
            slash = self.peek()
            self.pos += 1
            arg = self.parse_item()
            cat = Forward(cat, arg) if slash == "/" else Backward(cat, arg)
            cat = self.parse_brackets(cat)
        return cat

    def parse_item(self) -> CCGCategory:
        if self.peek() == "(":
            self.pos += 1
            cat = self.parse_cat()
            if self.peek() != ")":
                self.fail("unbalanced parenthesis")
            self.pos += 1
            return self.parse_brackets(cat)
        start = self.pos
        while self.peek() and self.peek() not in "/\\()[]":
            self.pos += 1
        name = self.text[start:self.pos]
        if not name:
            self.fail("empty atom")
        return self.parse_brackets(Atomic(name))

    def parse_brackets(self, cat: CCGCategory) -> CCGCategory:
        while self.peek() == "[":
            end = self.text.find("]", self.pos)
            if end < 0:
                self.fail("unbalanced bracket")
            feature = self.text[self.pos + 1:end]
            self.pos = end + 1
            if feature == "conj":
                cat = replace(cat, conj=True)
            elif isinstance(cat, Atomic) and cat.feature is None:
                cat = Atomic(cat.name, feature, cat.conj)
            # a second plain feature on the same node is ignored
        return cat


@lru_cache(maxsize=4096)
def parse_category(text: str) -> CCGCategory:
    return _CatParser(text).parse()


# ---------------------------------------------------------------------------
# Trees.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    token: str
    category: CCGCategory


@dataclass(frozen=True)
class Node:
    category: CCGCategory
    rule: str
    children: tuple["CCGTree", ...]

    def __post_init__(self):
        if self.rule not in RULES:
            raise ValueError(f"unknown rule {self.rule!r}")
        unary = self.rule in ("TR", "LEX", "UNARY")
        if len(self.children) != (1 if unary else 2):
            raise ValueError(f"rule {self.rule} has wrong arity")


CCGTree = Union[Leaf, Node]


def _is_punct(c: CCGCategory) -> bool:
    return isinstance(c, Atomic) and c.name in PUNCT_ATOMS


def _is_conj_atom(c: CCGCategory) -> bool:
    return isinstance(c, Atomic) and c.name in CONJ_ATOMS


@lru_cache(maxsize=4096)
def infer_rule(left: CCGCategory, right: CCGCategory,
               parent: CCGCategory) -> str:
    """Name the binary combinator that takes (left, right) to parent."""
    if parent.conj and (_is_conj_atom(left) or _is_punct(left)) \
            and cat_eq(_strip_conj(parent), right):
        return "CONJ"
    if _is_punct(left) and cat_eq(parent, right):
        return "CONJ"
    if _is_punct(right) and cat_eq(parent, left):
        return "CONJ"
    if right.conj and cat_eq(left, _strip_conj(right)) and cat_eq(parent, left):
        return "CONJ"
    if isinstance(left, Forward) and cat_eq(left.argument, right) \
            and cat_eq(parent, left.result):
        return "FA"
    if isinstance(right, Backward) and cat_eq(right.argument, left) \
            and cat_eq(parent, right.result):
        return "BA"
    if isinstance(left, Forward) and isinstance(right, Forward) \
            and cat_eq(left.argument, right.result) \
            and isinstance(parent, Forward) \
            and cat_eq(parent.result, left.result) \
            and cat_eq(parent.argument, right.argument):
        return "FC"
    if isinstance(left, Backward) and isinstance(right, Backward) \
            and cat_eq(right.argument, left.result) \
            and isinstance(parent, Backward) \
            and cat_eq(parent.result, right.result) \
            and cat_eq(parent.argument, left.argument):
        return "BC"
    if isinstance(left, Forward) and isinstance(right, Backward) \
            and cat_eq(left.argument, right.result) \
            and isinstance(parent, Backward) \
            and cat_eq(parent.result, left.result) \
            and cat_eq(parent.argument, right.argument):
        return "FX"
    if isinstance(left, Forward) and isinstance(right, Backward) \
            and cat_eq(right.argument, left.result) \
            and isinstance(parent, Forward) \
            and cat_eq(parent.result, right.result) \
            and cat_eq(parent.argument, left.argument):
        return "BX"
    raise DerivationError(
        f"no supported rule combines {category_to_str(left)} and "
        f"{category_to_str(right)} into {category_to_str(parent)}")


@lru_cache(maxsize=4096)
def infer_unary_rule(child: CCGCategory, parent: CCGCategory) -> str:
    if isinstance(parent, Forward) and isinstance(parent.argument, Backward) \
            and cat_eq(parent.argument.argument, child) \
            and cat_eq(parent.result, parent.argument.result):
        return "TR"
    if isinstance(parent, Backward) and isinstance(parent.argument, Forward) \
            and cat_eq(parent.argument.argument, child) \
            and cat_eq(parent.result, parent.argument.result):
        return "TR"
    if isinstance(child, Atomic) and isinstance(parent, Atomic):
        return "LEX"
    return "UNARY"


# ---------------------------------------------------------------------------
# AUTO parsing.
#
# One scanner, ``scan_auto``, reads AUTO text for ``parse_auto``,
# ``section_to_diagrams`` and ``pipeline.compile_model``. It keys each
# derivation by its ID and hands it on with its file line, so every
# ParseError names the line of the file that it is on.
# ---------------------------------------------------------------------------


class _AutoParser:
    def __init__(self, line: str, lineno: int):
        self.line = line
        self.lineno = lineno
        self.pos = 0

    def fail(self, reason: str):
        raise ParseError(reason, self.lineno, self.pos + 1)

    def skip_ws(self):
        while self.pos < len(self.line) and self.line[self.pos] == " ":
            self.pos += 1

    def expect(self, ch: str):
        if self.pos >= len(self.line) or self.line[self.pos] != ch:
            self.fail(f"expected {ch!r}")
        self.pos += 1

    def parse_node(self) -> CCGTree:
        self.skip_ws()
        self.expect("(")
        self.expect("<")
        end = self.line.find(">", self.pos)
        if end < 0:
            self.fail("unterminated node header")
        fields = self.line[self.pos:end].split(" ")
        self.pos = end + 1
        if fields[0] == "L":
            if len(fields) != 6:
                self.fail(f"leaf header needs 6 fields, got {len(fields)}")
            category = parse_category(fields[1])
            tree: CCGTree = Leaf(fields[4], category)
            self.skip_ws()
            self.expect(")")
            return tree
        if fields[0] == "T":
            if len(fields) != 4:
                self.fail(f"internal header needs 4 fields, got {len(fields)}")
            category = parse_category(fields[1])
            try:
                n_children = int(fields[3])
            except ValueError:
                self.fail(f"bad child count {fields[3]!r}")
            if n_children not in (1, 2):
                self.fail(f"unsupported child count {n_children}")
            children = tuple(self.parse_node() for _ in range(n_children))
            self.skip_ws()
            self.expect(")")
            if len(children) == 1:
                rule = infer_unary_rule(children[0].category, category)
            else:
                rule = infer_rule(children[0].category, children[1].category,
                                  category)
            return Node(category, rule, children)
        self.fail(f"unknown node tag {fields[0]!r}")

    def parse(self) -> CCGTree:
        try:
            tree = self.parse_node()
        except RecursionError:
            raise ParseError(
                "derivation is too deep to parse (nesting exceeds the "
                "interpreter's recursion limit)", self.lineno,
                self.pos + 1) from None
        self.skip_ws()
        if self.pos != len(self.line):
            self.fail("trailing characters after derivation")
        return tree


def scan_auto(text: str) -> Iterator[tuple[str, int, str]]:
    """(ID, file line, derivation line) of each derivation in AUTO text.

    The ID is the first field of the ``ID=`` header line before a
    derivation (``ID=wsj_0001.1 PARSER=GOLD`` gives ``"wsj_0001.1"``). A
    derivation without a header is keyed by its 0-based position among the
    text's derivations, so ``write_auto``'s ``ID=i`` headers and a
    headerless file both key item i as ``str(i)``. Blank lines are skipped.
    Raises ParseError on an empty or repeated ID.
    """
    seen: set[str] = set()
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("ID="):
            current = line.split()[0][3:]
            if not current:
                raise ParseError("empty derivation ID", lineno, 1)
            continue
        key = current if current is not None else str(len(seen))
        if key in seen:
            raise ParseError(f"repeated derivation ID {key!r}", lineno, 1)
        seen.add(key)
        current = None
        yield key, lineno, line


def parse_auto(text: str) -> list[CCGTree]:
    """Parse AUTO-format text, one derivation per non-header line."""
    return [_AutoParser(line, lineno).parse()
            for _, lineno, line in scan_auto(text)]


# ---------------------------------------------------------------------------
# Category translation.
# ---------------------------------------------------------------------------

_ATOM_IMAGE = {"N": NOUN, "NP": NOUN, "PP": NOUN, "S": SENTENCE}


@lru_cache(maxsize=4096)
def cat_to_typeseq(c: CCGCategory) -> TypeSeq:
    if c.conj:
        base = cat_to_typeseq(_strip_conj(c))
        return base.r @ base
    if isinstance(c, Atomic):
        if c.name not in _ATOM_IMAGE:
            raise UnknownCategory(f"no pregroup image for atom {c.name!r}")
        return TypeSeq((PType(_ATOM_IMAGE[c.name]),))
    if isinstance(c, Forward):
        return cat_to_typeseq(c.result) @ cat_to_typeseq(c.argument).l
    return cat_to_typeseq(c.argument).r @ cat_to_typeseq(c.result)


# ---------------------------------------------------------------------------
# Tree to diagram.
# ---------------------------------------------------------------------------


def _cups(b: Builder, start: int, count: int) -> None:
    """Nested cups cancelling ``count`` pairs straddling position start+count."""
    for step in range(count):
        try:
            b.cup(start + count - 1 - step)
        except (TypeMismatch, IllTyped) as exc:
            raise DerivationError(f"cups do not cancel: {exc}") from exc


def _swap_block_left(b: Builder, start: int, size: int, dist: int) -> None:
    """Move the ``size`` wires at ``start`` left across ``dist`` wires."""
    for i in range(size):
        for pos in range(start + i - 1, start + i - 1 - dist, -1):
            b.add(Swap(b.wires[pos], b.wires[pos + 1]), pos)


def _swap_block_right(b: Builder, start: int, size: int, dist: int) -> None:
    """Move the ``size`` wires at ``start`` right across ``dist`` wires."""
    # always move the rightmost remaining block wire first
    for last in range(start + size - 1, start - 1, -1):
        for pos in range(last, last + dist):
            b.add(Swap(b.wires[pos], b.wires[pos + 1]), pos)


def _cap_shaped(a: PType, b: PType) -> bool:
    return a.base == b.base and a.z == b.z + 1


def tree_to_diagram(t: CCGTree) -> Diagram:
    """Convert a derivation to a diagram with dom [] and cod T(root)."""
    b = Builder()
    try:
        _convert(t, b)
    except RecursionError:
        raise DerivationError(
            "derivation is too deep to convert (nesting exceeds the "
            "interpreter's recursion limit)") from None
    d = b.diagram()
    want = cat_to_typeseq(t.category)
    if d.cod != want:
        raise DerivationError(
            f"converted codomain {d.cod} does not match root type {want}")
    return d


def _convert(t: CCGTree, b: Builder) -> None:
    """Append the layers of ``t``'s diagram to ``b``, in post-order.

    Invariant: ``t``'s wires start at the right end of ``b``'s wires, since
    every subtree to its left is complete. So no tensor, composition or
    offset shift is needed: a combining layer acts at an offset counted
    from ``start``, where the left child's wires begin.
    """
    if isinstance(t, Leaf):
        b.add(Word(t.token, cod=cat_to_typeseq(t.category)), len(b.wires))
        return
    if t.rule in ("TR", "LEX", "UNARY"):
        return _convert_unary(t, b)
    if t.rule == "CONJ":
        return _convert_conj(t, b)
    left, right = t.children
    start = len(b.wires)
    _convert(left, b)
    mid = len(b.wires)
    _convert(right, b)
    lc, rc = left.category, right.category
    if t.rule in ("FA", "FC"):
        # left: T(X) ++ T(Y).l; cancel T(Y).l against the right's first wires
        x = len(cat_to_typeseq(lc.result))
        return _cups(b, start + x, len(cat_to_typeseq(lc.argument)))
    if t.rule in ("BA", "BC"):
        # right: T(Y).r ++ T(X); cancel T(Y).r against the left's last wires
        y = len(cat_to_typeseq(rc.argument))
        return _cups(b, mid - y, y)
    if t.rule == "FX":
        # left: T(X) ++ T(Y).l, right: T(Z).r ++ T(Y); pull T(Z).r leftmost
        y = cat_to_typeseq(lc.argument)
        x = len(cat_to_typeseq(lc.result))
        zlen = len(cat_to_typeseq(rc.argument))
        _swap_block_left(b, mid, zlen, mid - start)
        return _cups(b, start + zlen + x, len(y))
    if t.rule == "BX":
        # left: T(Y) ++ T(Z).l, right: T(Y).r ++ T(X); push T(Z).l rightmost
        y = cat_to_typeseq(rc.argument)
        zlen = len(cat_to_typeseq(lc.argument))
        _swap_block_right(b, start + len(y), zlen, len(b.wires) - mid)
        return _cups(b, start, len(y))
    raise DerivationError(f"unhandled rule {t.rule}")


def _convert_unary(t: Node, b: Builder) -> None:
    child = t.children[0]
    start = len(b.wires)
    _convert(child, b)
    a = cat_to_typeseq(child.category)
    c = cat_to_typeseq(t.category)
    if a == c:
        return
    if len(c) == len(a) + 2 and c[2:] == a and _cap_shaped(c[0], c[1]):
        b.add(Cap(c[1].base, c[1].z), start)
    elif len(c) == len(a) + 2 and c[:-2] == a and _cap_shaped(c[-2], c[-1]):
        b.add(Cap(c[-1].base, c[-1].z), len(b.wires))
    else:
        # general re-typing: a trainable bridge box consuming T(A), producing T(B)
        src = category_to_str(child.category)
        dst = category_to_str(t.category)
        b.add(Word(f"[{src}->{dst}]", dom=a, cod=c), start)


def _convert_conj(t: Node, b: Builder) -> None:
    left, right = t.children
    lc, rc, pc = left.category, right.category, t.category
    if pc.conj and isinstance(left, Leaf) \
            and (_is_conj_atom(lc) or _is_punct(lc)):
        neighbour = cat_to_typeseq(rc)
        b.add(Word(left.token, cod=neighbour.r), len(b.wires))
        _convert(right, b)
    elif rc.conj and cat_eq(lc, _strip_conj(rc)):
        start = len(b.wires)
        _convert(left, b)
        _convert(right, b)
        _cups(b, start, len(cat_to_typeseq(lc)))
    elif _is_punct(rc) and isinstance(right, Leaf):
        _convert(left, b)
        b.add(Word(right.token), len(b.wires))
    elif _is_punct(lc) and isinstance(left, Leaf):
        b.add(Word(left.token), len(b.wires))
        _convert(right, b)
    else:
        raise DerivationError(
            f"unsupported conj/punct combination at {category_to_str(pc)}")


# ---------------------------------------------------------------------------
# Corpus conversion.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConversionResult:
    derivation_id: str
    diagram: Optional[Diagram] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.diagram is not None


def section_to_diagrams(path: str | Path) -> list[ConversionResult]:
    """Convert every derivation under ``path``; failures become records."""
    path = Path(path)
    files = sorted(path.glob("*.auto")) if path.is_dir() else [path]
    results = []
    for file in files:
        try:
            derivations = list(scan_auto(file.read_text(encoding="utf-8")))
        except ParseError as exc:
            logger.warning("skipping %s: %s", file.name, exc)
            results.append(ConversionResult(file.name, error=str(exc)))
            continue
        for deriv_id, lineno, line in derivations:
            try:
                tree = _AutoParser(line, lineno).parse()
                diagram = tree_to_diagram(tree)
                results.append(ConversionResult(deriv_id, diagram=diagram))
            except (ParseError, UnknownCategory, DerivationError) as exc:
                logger.warning("skipping %s: %s", deriv_id, exc)
                results.append(ConversionResult(deriv_id, error=str(exc)))
    return results
