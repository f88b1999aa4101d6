import pytest
from hypothesis import given, strategies as st

from gcflag.flags import (
    FlagType,
    anticanonical_lambda,
    dimension,
    ladder_diagram,
    meet_join,
    normalize_index_set,
    path_count,
    positive_paths,
)
from gcflag.polytopes import is_pinned


def test_parse_roundtrip():
    for text in ["1,2|3", "2|4", "1,2,3|4", "2,4|5"]:
        assert str(FlagType.parse(text)) == text


def test_parse_rejects_garbage():
    for bad in ["", "3", "2|", "0|3", "3|3", "2,1|4"]:
        with pytest.raises(ValueError):
            FlagType.parse(bad)


def test_constructors():
    assert FlagType.full(4).steps == (1, 2, 3)
    assert FlagType.grassmannian(2, 5).steps == (2,)
    assert FlagType.full(4).is_full()
    assert not FlagType.grassmannian(2, 5).is_full()


def test_steps_must_be_a_tuple():
    for steps in ([1, 2], range(1, 3), "12"):
        with pytest.raises(ValueError, match="steps must be a tuple"):
            FlagType(3, steps)
    for n, steps, message in (
        (0, (), "n must be positive"),
        (3, (0, 2), "steps must lie strictly between 0 and n"),
        (4, (2, 1), "steps must be strictly increasing"),
    ):
        with pytest.raises(ValueError, match=message):
            FlagType(n, steps)
    assert FlagType(3, (1, 2)) == FlagType.full(3)
    assert {FlagType(3, (1, 2)), FlagType.full(3), FlagType.grassmannian(1, 3)} == {
        FlagType.full(3), FlagType(3, (1,))
    }


def test_block_structure():
    fl = FlagType(5, (2, 4))
    assert fl.dims == (0, 2, 4, 5)
    assert fl.block_sizes == (2, 2, 1)
    assert [fl.block_of(i) for i in range(1, 6)] == [1, 1, 2, 2, 3]


def test_dimension_formula():
    # full flag: n(n-1)/2; Grassmannian: k(n-k)
    for n in range(2, 7):
        assert dimension(FlagType.full(n)) == n * (n - 1) // 2
    assert dimension(FlagType.grassmannian(2, 4)) == 4
    assert dimension(FlagType.grassmannian(3, 5)) == 6
    assert dimension(FlagType(5, (2, 4))) == 2 * 3 + 2 * 1


def test_ladder_boxes_count_equals_dimension():
    for fl in [FlagType.full(3), FlagType.full(5), FlagType.grassmannian(2, 4),
               FlagType(5, (2, 4)), FlagType(6, (1, 4))]:
        assert len(ladder_diagram(fl).boxes) == dimension(fl)
        # the top row of the pattern is lambda itself
        assert all(is_pinned(fl, fl.n, i) for i in range(1, fl.n + 1))


def test_ladder_corners():
    ld = ladder_diagram(FlagType(5, (2, 4)))
    assert ld.corners == ((5, 0), (2, 2), (4, 4))


def test_positive_paths_count():
    fl = FlagType(5, (2, 4))
    assert len(positive_paths(fl, 1)) == path_count(fl, 1) == 10
    assert len(positive_paths(fl, 2)) == path_count(fl, 2) == 5
    assert positive_paths(fl, 1)[0] == (1, 2)
    assert positive_paths(fl, 1)[-1] == (4, 5)


def test_normalize_index_set():
    assert normalize_index_set((1, 2, 3)) == ((1, 2, 3), 1)
    assert normalize_index_set((2, 1, 3)) == ((1, 2, 3), -1)
    assert normalize_index_set((3, 1, 2)) == ((1, 2, 3), 1)
    assert normalize_index_set((1, 1)) == ((1, 1), 0)


@given(st.lists(st.integers(1, 9), min_size=1, max_size=6))
def test_normalize_sign_matches_inversion_parity(idx):
    srt, sign = normalize_index_set(idx)
    assert srt == tuple(sorted(idx))
    if len(set(idx)) != len(idx):
        assert sign == 0
    else:
        inversions = sum(
            1
            for a in range(len(idx))
            for b in range(a + 1, len(idx))
            if idx[a] > idx[b]
        )
        assert sign == (-1) ** inversions


def test_meet_join_examples():
    assert meet_join((1, 3), (2, 4)) == ((1, 3), (2, 4))
    assert meet_join((2, 3), (1, 4)) == ((1, 3), (2, 4))
    assert meet_join((2,), (1, 3)) == ((1, 3), (2,))
    assert meet_join((3,), (1, 2)) == ((1, 2), (3,))


@st.composite
def index_pair(draw):
    n = draw(st.integers(2, 7))
    k1 = draw(st.integers(1, n))
    k2 = draw(st.integers(1, n))
    I = tuple(sorted(draw(st.sets(st.integers(1, n), min_size=k1, max_size=k1))))
    J = tuple(sorted(draw(st.sets(st.integers(1, n), min_size=k2, max_size=k2))))
    return I, J


@given(index_pair())
def test_meet_join_properties(pair):
    I, J = pair
    meet, join = meet_join(I, J)
    assert len(meet) == max(len(I), len(J))
    assert len(join) == min(len(I), len(J))
    k = min(len(I), len(J))
    A, B = (I, J) if len(I) <= len(J) else (J, I)
    for l in range(k):
        assert meet[l] == min(A[l], B[l])
        assert join[l] == max(A[l], B[l])
    # meet/join are strictly increasing (guarded in the implementation)
    assert all(a < b for a, b in zip(meet, meet[1:]))
    assert all(a < b for a, b in zip(join, join[1:]))
    # multiset of a sorted pair is preserved when |I| = |J|
    if len(I) == len(J):
        assert sorted(meet + join) == sorted(I + J)


def test_anticanonical():
    assert anticanonical_lambda(FlagType.full(3)) == (2, 0, -2)
    assert anticanonical_lambda(FlagType.full(4)) == (3, 1, -1, -3)
    assert anticanonical_lambda(FlagType.grassmannian(2, 4)) == (2, 2, -2, -2)
    assert anticanonical_lambda(FlagType.grassmannian(2, 5)) == (3, 3, -2, -2, -2)
    # always sums to zero against block sizes times values
    for fl in [FlagType(5, (2, 4)), FlagType(6, (3,)), FlagType.full(6)]:
        lam = anticanonical_lambda(fl)
        assert sum(lam) == 0
