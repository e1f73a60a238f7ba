"""CCG derivation ingestion and conversion to pregroup string diagrams.

Derivations come from CCGBank AUTO files: one derivation per line, internal
nodes ``(<T cat head dtrs> child...)``, leaves ``(<L cat pos1 pos2 token
pred-arg-cat>)``, each under an optional ``ID=`` header. AUTO stores no
combinator names, so the rule tag of every node is inferred from the child
and parent categories.

A line is read by one regex tokenisation (a closed leaf, another node
header, or a closing parenthesis) into a tree, converted by a loop over a
stack of steps: neither recurses, so no derivation is too deep. Only a
category recurses, and one nested past a fixed bound is refused by name.

The translation to pregroup types sends N, NP and PP to the noun type, any
S[feature] to the sentence type, X/Y to T(X) ++ T(Y).l and X\\Y to
T(Y).r ++ T(X). Application and composition become nested cups; crossed
composition routes the displaced block with explicit swaps; type raising
becomes a cap; other unary re-typings that are not cap-shaped fall back to
a typed bridge box. A category marked [conj] maps to T(X).r ++ T(X) and the
conjunction word itself is typed as the right adjoint of its neighbour, so
coordination completes with ordinary backward-application cups.

A token decides nothing in the parse or the translation: it only labels
its leaf's word. So ``line_to_diagram`` converts one line per key, the line
with its leaves' tokens lifted out, and keeps the diagram with the layer of
each leaf's word; a later line of the key is that diagram with its own
tokens in those words, and builds no tree. ``parse_auto`` and
``tree_to_diagram`` keep nothing.
"""
from __future__ import annotations

import itertools
import logging
import re
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import Iterator, Optional, Union

from .diagram import (
    Builder, Cap, Diagram, IllTyped, Swap, TypeMismatch, Word,
)
from .types import EMPTY, NOUN, SENTENCE, PType, TypeSeq, hash_once

logger = logging.getLogger(__name__)

PUNCT_ATOMS = {",", ".", ":", ";", "LRB", "RRB", "``", "''"}
CONJ_ATOMS = {"conj"}

RULES = ("FA", "BA", "FC", "BC", "FX", "BX", "TR", "LEX", "CONJ", "UNARY")
_UNARY = ("TR", "LEX", "UNARY")

# parse_category, cat_to_typeseq, infer_rule and infer_unary_rule are pure
# maps of frozen categories, called once per leaf or node of every
# derivation, so each keeps its results in a bounded cache of 4096 entries:
# CCGBank has about 1,300 lexical category types, so the bound holds every
# category of a corpus, and a rarer combination past it is evicted least
# recently used first. An exception is never cached: a bad category or
# combination raises on every call. The diagram of a derivation line is kept
# per key in a bounded cache in the same way (``line_to_diagram``).


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


# the most parentheses and slashes a category may hold: it bounds how deep
# its parse, hash, equality and translation recurse: far below Python's
# default recursion limit, and far above what a treebank category holds
_MAX_NESTING = 100


@lru_cache(maxsize=4096)
def parse_category(text: str) -> CCGCategory:
    if text.count("(") + text.count("/") + text.count("\\") > _MAX_NESTING:
        shown = text if len(text) <= 40 else text[:40] + "..."
        raise UnknownCategory(f"category {shown!r} nests too deep: more than "
                              f"{_MAX_NESTING} parentheses and slashes")
    return _CatParser(text).parse()


# ---------------------------------------------------------------------------
# Trees.
# ---------------------------------------------------------------------------


class _Tree:
    """Equality and hash of a derivation by its ``_shape`` and tokens, and
    its repr, all walked without recursion, so a tree of any depth
    compares, hashes and prints."""

    def __eq__(self, other):
        if not isinstance(other, _Tree):
            return NotImplemented
        return _shape(self) == _shape(other)

    def __hash__(self) -> int:
        shape, tokens = _shape(self)
        return hash((shape, tuple(tokens)))

    def __repr__(self) -> str:
        parts, stack = [], [self]
        while stack:
            t = stack.pop()
            if isinstance(t, str):
                parts.append(t)
            elif isinstance(t, Leaf):
                parts.append(f"Leaf(token={t.token!r}, "
                             f"category={t.category!r})")
            else:
                parts.append(f"Node(category={t.category!r}, "
                             f"rule={t.rule!r}, children=(")
                # pushed last to first, as the tuple's repr reads them
                if len(t.children) == 1:
                    stack += [",))", t.children[0]]
                else:
                    stack += ["))", t.children[1], ", ", t.children[0]]
        return "".join(parts)


@dataclass(frozen=True, eq=False, repr=False)
class Leaf(_Tree):
    token: str
    category: CCGCategory


@dataclass(frozen=True, eq=False, repr=False)
class Node(_Tree):
    category: CCGCategory
    rule: str
    children: tuple["CCGTree", ...]

    def __post_init__(self):
        if self.rule not in RULES:
            raise ValueError(f"unknown rule {self.rule!r}")
        unary = self.rule in _UNARY
        if len(self.children) != (1 if unary else 2):
            raise ValueError(f"rule {self.rule} has wrong arity")


CCGTree = Union[Leaf, Node]


def _shape(t: CCGTree) -> tuple[tuple, list[str]]:
    """The shape of a derivation, and its tokens from left to right.

    The shape lists the derivation in pre-order, a node as its rule and
    category and a leaf as its category alone, so it determines the tree
    up to its tokens. It is walked without recursion, so a tree of any
    depth compares and hashes."""
    shape, tokens, stack = [], [], [t]
    while stack:
        t = stack.pop()
        if isinstance(t, Leaf):
            shape.append(t.category)
            tokens.append(t.token)
        else:
            shape += (t.rule, t.category)
            stack.extend(reversed(t.children))
    return tuple(shape), tokens


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
# derivation by its ID and hands it on with its file line, indentation
# kept, so every ParseError names the line and column of the file.
#
# ``_parse`` reads a line as the tokens of one regex, ``_TOKEN``, each after
# any spaces: a closed leaf ``(<L ...>)`` with its category and token;
# another node header ``(<...>``, split into fields on single spaces; a
# closing parenthesis; or any other character, which is out of place. It
# keeps the open nodes on a list, not on the interpreter's stack, and builds
# each ``Leaf`` or ``Node`` as it closes, a node's rule inferred from its
# children's categories. So a line of any depth parses. Only an error reads
# a token's position, from the same regex.
#
# ``line_to_diagram`` takes each derivation line of set-up to its diagram.
# A token decides nothing in a parse or a conversion but its leaf's word, so
# a line is keyed by its text with the token of every closed leaf lifted
# out (``_LEAF``), its POS tags and predicate-argument category kept. The
# first line of a key is parsed and converted, and its diagram kept with the
# layer of each leaf's word; a later line of the key is that diagram with
# its own tokens in those words. On a line that parses, ``_LEAF`` lifts
# exactly the tokens of the leaves ``_TOKEN`` reads: both read a leaf by the
# same fields, and a ``_LEAF`` match anywhere else lies inside a node
# header, which then has too many fields. A lifted token holds no space and
# no ``>``, so a later line of the key parses as its template did.
# ---------------------------------------------------------------------------

# a closed leaf's category and token; another node header, or ")"; or any
# other character, out of place
_TOKEN = re.compile(r" *(?:\(<L ([^ >]*) [^ >]* [^ >]* ([^ >]*) [^ >]*> *\)"
                    r"|(\(<[^>]*>|\))|([^ ]))")
# the head of a closed leaf up to its token, and the token
_LEAF = re.compile(r"(\(<L (?:[^ >]* ){3})([^ >]*)(?= [^ >]*> *\))")


def scan_auto(text: str) -> Iterator[tuple[str, int, str]]:
    """(ID, file line, derivation line) of each derivation in AUTO text.

    The ID is the first field of the ``ID=`` header line before a
    derivation (``ID=wsj_0001.1 PARSER=GOLD`` gives ``"wsj_0001.1"``). A
    derivation without a header is keyed by its 0-based position among the
    text's derivations, so ``write_auto``'s ``ID=i`` headers and a
    headerless file both key item i as ``str(i)``. Blank lines are skipped.
    A derivation line keeps its indentation, so a column counts from the
    first character of the file line; a leading byte-order mark is skipped.
    Raises ParseError on an empty or repeated ID.
    """
    seen: set[str] = set()
    current: Optional[str] = None
    for lineno, raw in enumerate(text.removeprefix("\ufeff").splitlines(), 1):
        line = raw.rstrip()
        body = line.lstrip()
        if not body:
            continue
        column = len(line) - len(body) + 1
        if body.startswith("ID="):
            current = body.split()[0][3:]
            if not current:
                raise ParseError("empty derivation ID", lineno, column)
            continue
        key = current if current is not None else str(len(seen))
        if key in seen:
            raise ParseError(f"repeated derivation ID {key!r}", lineno, column)
        seen.add(key)
        current = None
        yield key, lineno, line


def parse_auto(text: str) -> list[CCGTree]:
    """Parse AUTO-format text, one derivation per non-header line."""
    return [_parse(line, lineno) for _, lineno, line in scan_auto(text)]


def line_to_diagram(line: str, lineno: int = 1) -> Diagram:
    """The diagram of the derivation on one line of an AUTO file,
    ``lineno``: ``tree_to_diagram(parse_auto(line)[0])``, re-labelled from
    the template of the line's key once one line of that key has
    converted."""
    pieces = _LEAF.split(line)
    tokens = pieces[2::3]
    del pieces[2::3]
    cell = _line_templates(tuple(pieces))
    if cell:
        template, leaves = cell[0]
        layers = list(template.layers)
        for k, token in zip(leaves, tokens):
            box, offset = layers[k]
            layers[k] = Word(token, box.dom, box.cod), offset
        return Diagram._typed(template.dom, template.cod, tuple(layers))
    d, leaves = _converted(_parse(line, lineno))
    cell.append((d, leaves))
    return d


@lru_cache(maxsize=1024)  # bounded, like the categories' caches
def _line_templates(key: tuple) -> list:
    """The diagram of the lines of one key, and the layer of each leaf's
    word, once the first has converted. Empty until then, and after a
    failed parse or conversion, so a line that fails fails every time."""
    return []


def _parse(line: str, lineno: int) -> CCGTree:
    """The derivation on one line of an AUTO file, ``lineno``."""
    # the open internal nodes, each [category, children, children still to
    # come]; built holds the subtrees no node has taken yet
    built, open_nodes = [], []
    unclosed = False  # a leaf header with no ")" next
    found = _TOKEN.findall(line, _indent(line))
    for k, (category, token, text, other) in enumerate(found):
        if text == ")":
            if not open_nodes or open_nodes[-1][2]:
                break
            category, arity, _ = open_nodes.pop()
            if arity == 2:
                right = built.pop()
                left = built[-1]
                built[-1] = Node(category, infer_rule(
                    left.category, right.category, category), (left, right))
            else:
                child = built[-1]
                built[-1] = Node(category, infer_unary_rule(
                    child.category, category), (child,))
        else:
            if other or built and not open_nodes \
                    or open_nodes and not open_nodes[-1][2]:
                break  # out of place, after the root, or where ")" is due
            if not text:  # a closed leaf
                built.append(Leaf(token, parse_category(category)))
            else:
                fields = text[2:-1].split(" ")
                if fields[0] == "T":
                    if len(fields) != 4:
                        raise _header_error(
                            f"internal header needs 4 fields, got "
                            f"{len(fields)}", line, lineno, k)
                    category = parse_category(fields[1])
                    try:
                        arity = int(fields[3])
                    except ValueError:
                        raise _header_error(f"bad child count {fields[3]!r}",
                                            line, lineno, k) from None
                    if arity not in (1, 2):
                        raise _header_error(f"unsupported child count "
                                            f"{arity}", line, lineno, k)
                    open_nodes.append([category, arity, arity])
                    continue
                if fields[0] != "L":
                    raise _header_error(f"unknown node tag {fields[0]!r}",
                                        line, lineno, k)
                if len(fields) != 6:
                    raise _header_error(f"leaf header needs 6 fields, got "
                                        f"{len(fields)}", line, lineno, k)
                parse_category(fields[1])  # a bad category is named first
                # no ")" follows, or the leaf would be a closed one: the
                # token after it is out of place
                unclosed, k = True, k + 1
                break
        if not open_nodes:  # the root is complete
            if k + 1 == len(found):
                return built[0]
        else:
            open_nodes[-1][2] -= 1
    else:
        k = len(found)
    # token k, or the end of the line, is out of place
    at = _span(line, k)[0] if k < len(found) else len(line)
    if unclosed or open_nodes and not open_nodes[-1][2]:
        reason, column = "expected ')'", at + 1
    elif built and not open_nodes:  # after the root
        reason, column = "trailing characters after derivation", at + 1
    elif line[at:at + 1] != "(":
        reason, column = "expected '('", at + 1
    elif line[at + 1:at + 2] != "<":
        reason, column = "expected '<'", at + 2
    else:
        reason, column = "unterminated node header", at + 3
    raise ParseError(reason, lineno, column)


def _indent(line: str) -> int:
    """Where a line's first token starts: after its leading whitespace."""
    return len(line) - len(line.lstrip())


def _span(line: str, k: int) -> tuple[int, int]:
    """Where the k-th ``_TOKEN`` of a line starts, after its spaces, and
    ends: read only for the column of an error."""
    m = next(itertools.islice(_TOKEN.finditer(line, _indent(line)), k, None))
    return m.end() - len(m.group().lstrip(" ")), m.end()


def _header_error(reason: str, line: str, lineno: int, k: int) -> ParseError:
    """The error of a malformed header, the k-th token of a line, named at
    the column after it."""
    return ParseError(reason, lineno, _span(line, k)[1] + 1)


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
    return _converted(t)[0]


def _converted(t: CCGTree) -> tuple[Diagram, tuple[int, ...]]:
    """The diagram of a derivation, and the layer of each leaf's word from
    left to right.

    The layers come in post-order, from a loop over a stack of steps, not
    from recursion, so a derivation of any depth converts. Invariant: a
    subtree's wires start at the right end of the builder's wires, since
    every subtree to its left is complete. So no tensor, composition or
    offset shift is needed: a node's combining layers act at offsets
    counted from where its children's wires start.
    """
    b = _Conversion()
    wires = b.wires
    # a step is a subtree still to convert; a node whose left child is done,
    # (node, start); a node whose children are done, (node, start, mid); or
    # a punctuation word of no wires, (token,). start and mid are where the
    # node's left and right child's wires start, mid None where the node's
    # layers do not read it.
    steps = [t]
    push = steps.append
    while steps:
        step = steps.pop()
        if type(step) is tuple:
            if len(step) == 3:
                node, start, mid = step
                _join(node, start, mid, b)
            elif len(step) == 2:  # the right child is next
                node, start = step
                push((node, start, len(wires)))
                push(node.children[1])
            else:
                b.leaf(step[0])
        elif isinstance(step, Leaf):
            b.leaf(step.token, cat_to_typeseq(step.category))
        elif step.rule in _UNARY:
            push((step, len(wires), None))
            push(step.children[0])
        else:
            steps += _binary_steps(step, b, len(wires))
    d, want = b.diagram(), cat_to_typeseq(t.category)
    if d.cod != want:
        raise DerivationError(
            f"converted codomain {d.cod} does not match root type {want}")
    return d, tuple(b.leaves)


class _Conversion(Builder):
    """A Builder that records the layer of each leaf's word."""

    def __init__(self):
        super().__init__()
        self.leaves: list[int] = []

    def leaf(self, token: str, cod: TypeSeq = EMPTY) -> None:
        self.leaves.append(len(self.layers))
        self.add(Word(token, cod=cod), len(self.wires))


# the kinds of the left and right categories each binary rule combines,
# whose parts its conversion reads: FA takes X/Y and Y, BA takes Y and X\Y
_OPERANDS = {"FA": (Forward, object), "BA": (object, Backward),
             "FC": (Forward, Forward), "BC": (Backward, Backward),
             "FX": (Forward, Backward), "BX": (Forward, Backward)}


def _binary_steps(t: Node, b: _Conversion, start: int) -> tuple:
    """The steps that convert a binary node whose wires start at ``start``,
    last first, once its rule is checked against its categories; a word
    that a conjunction or punctuation node places before its children is
    appended at once."""
    left, right = t.children
    lc, rc = left.category, right.category
    if t.rule != "CONJ":
        kind_l, kind_r = _OPERANDS[t.rule]
        if not (isinstance(lc, kind_l) and isinstance(rc, kind_r)):
            raise _misfit(t)  # a hand-built node: parse_auto infers the rule
        if t.rule in ("FA", "FC"):
            return (t, start, None), right, left
        return (t, start), left
    if t.category.conj and isinstance(left, Leaf) \
            and (_is_conj_atom(lc) or _is_punct(lc)):
        b.leaf(left.token, cat_to_typeseq(rc).r)
        return right,
    if rc.conj and cat_eq(lc, _strip_conj(rc)):  # joined by cups
        return (t, start, None), right, left
    if _is_punct(rc) and isinstance(right, Leaf):
        return (right.token,), left
    if _is_punct(lc) and isinstance(left, Leaf):
        b.leaf(left.token)
        return right,
    raise _misfit(t)


def _misfit(t: Node) -> DerivationError:
    """The error of a binary node whose rule does not fit its categories."""
    left, right = (category_to_str(c.category) for c in t.children)
    return DerivationError(
        f"rule {t.rule} does not combine {left} and {right} into "
        f"{category_to_str(t.category)}")


def _join(t: Node, start: int, mid: int, b: _Conversion) -> None:
    """Append the layers that take a node's converted children to the node:
    its left child's wires start at ``start``, its right child's at
    ``mid``."""
    if t.rule in _UNARY:  # unchanged, by a cap, or by a bridge box
        child = t.children[0].category
        a, c = cat_to_typeseq(child), cat_to_typeseq(t.category)
        if a == c:
            return
        if len(c) == len(a) + 2 and c[2:] == a and _cap_shaped(c[0], c[1]):
            b.add(Cap(c[1].base, c[1].z), start)
        elif len(c) == len(a) + 2 and c[:-2] == a \
                and _cap_shaped(c[-2], c[-1]):
            b.add(Cap(c[-1].base, c[-1].z), len(b.wires))
        else:  # a trainable bridge box consuming T(A), producing T(B)
            name = f"[{category_to_str(child)}->{category_to_str(t.category)}]"
            b.add(Word(name, dom=a, cod=c), start)
        return
    lc, rc = t.children[0].category, t.children[1].category
    if t.rule == "CONJ":  # X and X[conj]
        return _cups(b, start, len(cat_to_typeseq(lc)))
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
    # BX: left: T(Y) ++ T(Z).l, right: T(Y).r ++ T(X); push T(Z).l rightmost
    y = cat_to_typeseq(rc.argument)
    zlen = len(cat_to_typeseq(lc.argument))
    _swap_block_right(b, start + len(y), zlen, len(b.wires) - mid)
    _cups(b, start, len(y))


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
            derivations = list(scan_auto(file.read_bytes().decode("utf-8")))
        except (ParseError, UnicodeDecodeError) as exc:
            logger.warning("skipping %s: %s", file.name, exc)
            results.append(ConversionResult(file.name, error=str(exc)))
            continue
        for deriv_id, lineno, line in derivations:
            try:
                diagram = line_to_diagram(line, lineno)
                results.append(ConversionResult(deriv_id, diagram=diagram))
            except (ParseError, UnknownCategory, DerivationError) as exc:
                logger.warning("skipping %s: %s", deriv_id, exc)
                results.append(ConversionResult(deriv_id, error=str(exc)))
    return results
