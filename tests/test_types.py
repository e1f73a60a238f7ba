import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from synq.types import EMPTY, PType, TypeSeq, reduce, reduces_to, ts


def exhaustive_irreducibles(items):
    """All irreducible forms reachable by any order of adjacent-pair deletion.

    Independent oracle for the greedy scan: explores every deletion order.
    """
    def cancels(a, b):
        return a.base == b.base and a.z + 1 == b.z

    seen = set()
    out = set()
    stack = [tuple(items)]
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        pairs = [i for i in range(len(cur) - 1) if cancels(cur[i], cur[i + 1])]
        if not pairs:
            out.add(cur)
        for i in pairs:
            stack.append(cur[:i] + cur[i + 2:])
    return out


ptypes = st.builds(
    PType,
    base=st.sampled_from(["n", "s"]),
    z=st.integers(min_value=-2, max_value=2),
)
typeseqs = st.builds(TypeSeq, st.tuples()) | st.lists(ptypes, max_size=12).map(
    lambda items: TypeSeq(tuple(items))
)


class TestAdjoints:
    def test_winding_arithmetic(self):
        n = PType("n")
        assert n.l.r == n == n.r.l
        assert n.l.l == PType("n", -2)
        assert str(n.l.l) == "n.ll"
        assert str(n.r) == "n.r"

    def test_seq_adjoints_reverse(self):
        seq = ts("n.r", "s")
        assert seq.l == ts("s.l", "n")
        assert seq.r == ts("s.r", "n.rr")
        assert (seq.l).r == seq == (seq.r).l

    def test_concat_unit(self):
        seq = ts("n", "s")
        assert seq @ EMPTY == seq == EMPTY @ seq
        a, b, c = ts("n"), ts("s"), ts("n.l")
        assert (a @ b) @ c == a @ (b @ c)


class TestReduce:
    def test_single_cancellation(self):
        assert reduce(ts("n", "n.r", "s")) == ts("s")

    def test_five_word_sentence(self):
        # John | gave | Mary | a | flower
        seq = (ts("n") @ ts("n.r", "s", "n.l", "n.l") @ ts("n")
               @ ts("n", "n.l") @ ts("n"))
        assert reduce(seq) == ts("s")
        assert reduces_to(seq, ts("s"))

    def test_no_cancellation(self):
        assert reduce(ts("n", "s")) == ts("n", "s")

    def test_unit(self):
        assert reduce(EMPTY) == EMPTY

    def test_reduces_to_nonmaximal_target(self):
        seq = ts("n", "n.r", "n", "n.r")
        assert reduces_to(seq, ts("n", "n.r"))
        assert reduces_to(seq, seq)
        assert not reduces_to(seq, ts("n"))

    def test_reduces_to_sees_past_greedy(self):
        # greedy reaches [s] here, but [n, n.l, s] is reachable too
        seq = ts("n", "n.l", "n", "n.r", "s")
        assert reduce(seq) == ts("s")
        assert reduces_to(seq, ts("n", "n.l", "s"))

    def test_deletion_is_not_confluent(self):
        # overlapping deletable pairs strand different ends; the greedy
        # result is one canonical choice among the reachable forms
        forms = exhaustive_irreducibles(ts("n.ll", "n.l", "n").items)
        assert forms == {ts("n").items, ts("n.ll").items}
        assert reduce(ts("n.ll", "n.l", "n")) == ts("n")

    @settings(max_examples=300)
    @given(typeseqs)
    def test_greedy_result_reachable_and_irreducible(self, seq):
        forms = exhaustive_irreducibles(seq.items)
        got = reduce(seq)
        assert got.items in forms
        assert reduces_to(seq, got)

    @given(typeseqs)
    def test_reduce_idempotent(self, seq):
        assert reduce(reduce(seq)) == reduce(seq)


def test_ts_helper_round_trips():
    for spec in ["n", "n.l", "n.r", "s.rr", "s.ll"]:
        (t,) = ts(spec)
        assert str(t) == spec
