import functools
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from basix.arrangement import build_arrangement
from basix.decompose import (
    decompose_set,
    is_closed_cellwise,
    is_open_cellwise,
    s_star_boundary_dim,
)
from basix.scene import RELS, Scene
from basix.signdist import (
    classify_component,
    classify_sides,
    condition_a_check,
    make_delta,
    make_sigma,
    make_sigmas,
)

F = Fraction

HALF = "factor f = y; set S = { f > 0 };"
QUAD = "factor a = x; factor b = y; set S = { a > 0, b > 0 };"
SADDLE = "factor a = x; factor b = y; set S = { a > 0, b > 0 } | { a < 0, b < 0 };"
PARA = (
    "factor a = x; factor l = y; factor p = y - x^2;"
    "set S = { a < 0, l > 0, p != 0 } | { a > 0, l > 0, p < 0 };"
)
CUBIC = (
    "factor a = x; factor f0 = y - x^2; factor f1 = y - x^2 - x^3;"
    "factor f2 = y - x^2 - 2*x^3; factor f3 = y - x^2 - 3*x^3;"
    "set S = { f0 > 0, f1 < 0 } | { f0 < 0, f1 > 0 } | { a < 0, f2 < 0, f3 > 0 };"
)


def D(text):
    sc = Scene.from_text(text)
    return decompose_set(build_arrangement(sc), sc)


def test_half_decomposition():
    d = D(HALF)
    assert d.zariski_boundary == {"f"}
    assert len(d.a_components) == 1
    assert d.s_meets_boundary == "empty"
    assert is_open_cellwise(d)
    assert not is_closed_cellwise(d)


def test_neq_whole_line_boundary():
    d = D("factor f = y; set S = { f != 0 };")
    assert d.zariski_boundary == {"f"}
    assert d.s_meets_boundary == "empty"
    assert len(d.a_components) == 0


def test_quad_decomposition():
    d = D(QUAD)
    assert d.zariski_boundary == {"a", "b"}
    assert len(d.a_components) == 3
    assert d.s_meets_boundary == "empty"


def test_saddle_delta():
    d = D(SADDLE)
    delta = make_delta(d)
    arr = d.arrangement
    assert len(delta.plus) == 2 and len(delta.minus) == 2
    for f in ("a", "b"):
        cc = classify_component(f, delta, arr)
        assert cc.verdict == "ChangeOnly"


def test_half_sigma():
    d = D(HALF)
    s = make_sigma(d, 0)
    assert len(s.plus) == 1 and len(s.minus) == 1


def test_cubic_components_and_silence():
    d = D(CUBIC)
    assert d.zariski_boundary == {"f0", "f1", "f2", "f3"}
    assert len(d.a_components) == 5
    arr = d.arrangement
    # the component between f2 and f3 for x > 0: find it by sample signs
    target = None
    for i, comp in enumerate(d.a_components):
        rid = next(iter(comp))
        x, y = arr.regions[rid].sample
        sc = d.scene
        if (
            len(comp) == 1
            and sc.factors["f3"].sign_at(x, y) < 0 < sc.factors["f2"].sign_at(x, y)
            and x > 0
        ):
            target = i
    assert target is not None
    sigma = make_sigma(d, target)
    assert classify_component("f2", sigma, arr).verdict == "Silent"
    assert classify_component("f0", sigma, arr).verdict == "Silent"
    assert condition_a_check(d) is None


def test_para_condition_a_fails():
    d = D(PARA)
    fail = condition_a_check(d)
    assert fail is not None
    assert fail.factor == "p"
    cc = fail.classification
    assert cc.omega1 and cc.omega2_plus


def test_classify_sides_table():
    # (arc, sign on one side, sign on the other) -> verdict and the arcs kept
    rows = [
        ([("a", 1, -1), ("b", 1, 1), ("c", -1, -1)], "PositiveTypeChanging"),
        ([("a", 0, 1), ("b", -1, 1), ("c", -1, -1)], "NegativeTypeChanging"),
        ([("a", 1, -1), ("b", 0, 0), ("c", 1, 0)], "ChangeOnly"),
        ([("a", 1, 1), ("b", -1, -1), ("c", 0, -1)], "Silent"),
        ([], "Silent"),
    ]
    for triples, verdict in rows:
        cls = classify_sides(triples)
        assert cls.verdict == verdict, triples
        assert cls.omega1 == [a for a, s1, s2 in triples if {s1, s2} == {1, -1}]
        assert cls.omega2_plus == [a for a, s1, s2 in triples if s1 == s2 == 1]
        assert cls.omega2_minus == [a for a, s1, s2 in triples if s1 == s2 == -1]
    # ordered: the first sign-change arc and the first (+,+) arc lead
    cls = classify_sides([("p", 1, 1), ("q", -1, 1), ("r", 1, 1), ("s", 1, -1)])
    assert (cls.omega1, cls.omega2_plus) == (["q", "s"], ["p", "r"])


def test_s_star_dims():
    assert s_star_boundary_dim(D(HALF)) == "empty"
    assert s_star_boundary_dim(D(PARA)) == "one_dimensional"
    assert s_star_boundary_dim(D(CUBIC)) == "empty"
    assert s_star_boundary_dim(D(SADDLE)) == "empty"


def test_lemma_equivalence_on_fixtures():
    for text in (HALF, QUAD, SADDLE, PARA, CUBIC):
        d = D(text)
        fails = condition_a_check(d) is not None
        assert fails == (s_star_boundary_dim(d) == "one_dimensional")


def test_no_negative_type_changing_on_fixtures():
    for text in (HALF, QUAD, SADDLE, PARA, CUBIC):
        d = D(text)
        for s in make_sigmas(d):
            for f in d.zariski_boundary:
                assert classify_component(f, s, d.arrangement).verdict != "NegativeTypeChanging"


def test_complement_decomposition_quad():
    d = D(QUAD)
    dc = decompose_set(d.arrangement, d.scene.open_complement(d.zariski_boundary))
    # complement of closed Q1: interior closure contains the negative axes
    assert s_star_boundary_dim(dc) == "one_dimensional"


def test_closedness():
    d = D("factor f = y; set S = { f >= 0 };")
    assert is_closed_cellwise(d)
    assert not is_open_cellwise(d)
    d2 = D(HALF)
    assert not is_closed_cellwise(d2)


def _is_closed_cellwise_reference(d):
    """The closedness test as a loop over every edge and every vertex per
    member region; `is_closed_cellwise` must agree with it."""
    arr = d.arrangement
    for rid in d.s_regions:
        for e in arr.edges:
            if rid in e.sides() and e.eid not in d.s_edges:
                return False
    touched: set[int] = set()
    for eid in d.s_edges:
        for end in arr.edges[eid].ends:
            if end and end[0] == "vertex":
                touched.add(end[1])
    for rid in d.s_regions:
        for v in arr.vertices:
            if rid in arr.regions_at_vertex(v.vid):
                touched.add(v.vid)
    return all(vid in d.s_vertices for vid in touched)


@functools.lru_cache(maxsize=None)
def _fixture_arrangement(text):
    return build_arrangement(Scene.from_text(text))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([HALF, QUAD, PARA, CUBIC, "factor o = x^2 + y^2; factor l = y - 1; set S = { l > 0 };"]),
    st.lists(
        st.lists(st.tuples(st.integers(0, 4), st.sampled_from(RELS)), min_size=1, max_size=3),
        min_size=1,
        max_size=3,
    ),
)
def test_is_closed_cellwise_matches_reference(text, clauses):
    # random formulas over the factors of one arrangement, decomposed on it
    arr = _fixture_arrangement(text)
    atoms = [[(arr.order[i % len(arr.order)], rel) for i, rel in clause] for clause in clauses]
    sc = Scene.build(arr.factors, arr.order, atoms)
    d = decompose_set(arr, sc)
    assert is_closed_cellwise(d) == _is_closed_cellwise_reference(d)
