import math
import random
from collections import namedtuple

import pytest
from hypothesis import given, settings, strategies as st

from graphdim import cayley
from graphdim.cayley import (
    AbelianGroup,
    GeneratorSet,
    cayley_graph,
    dim_via_transitivity,
    translate,
)
from graphdim.core import (
    bits_of,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    mask_of,
)
from graphdim.dimension import SubdimCertificate, dim_exact, subdim
from graphdim.errors import CapExceeded, DomainError


def units(k):
    return GeneratorSet({1 << i for i in range(k)})


def cube_group(k):
    return AbelianGroup((2,) * k)


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------

def test_group_validation():
    with pytest.raises(DomainError):
        AbelianGroup(())
    with pytest.raises(DomainError):
        AbelianGroup((3, 0))


def test_encode_decode_round_trip():
    grp = AbelianGroup((3, 4, 2))
    assert grp.size == 24
    for eid in range(grp.size):
        assert grp.encode(grp.decode(eid)) == eid
        assert grp.add(eid, grp.neg(eid)) == 0


def test_mixed_radix_addition():
    grp = AbelianGroup((3, 4))
    a = grp.encode((2, 3))
    b = grp.encode((2, 2))
    assert grp.decode(grp.add(a, b)) == (1, 1)


def test_encode_reduces_residues():
    grp = AbelianGroup((5,))
    assert grp.encode((7,)) == 2
    assert grp.encode((-1,)) == 4
    # a caller's own named tuple is a sequence of coordinates
    assert grp.encode(namedtuple("Point", "x")(7)) == 2


def test_constructors_take_integers_exactly():
    assert AbelianGroup([3, True]).orders == (3, 1)
    assert GeneratorSet(range(1, 3)).elements == frozenset({1, 2})
    for orders in ((2.5,), ("3",), (4, 2.0)):
        with pytest.raises(DomainError, match="cyclic order must be an integer"):
            AbelianGroup(orders)
    with pytest.raises(DomainError, match="generator must be an integer"):
        GeneratorSet([1.7])
    with pytest.raises(DomainError, match="coordinate must be an integer"):
        AbelianGroup((3,)).encode((1.5,))


@pytest.mark.parametrize("call,message", [
    pytest.param(lambda: AbelianGroup((3, 4)).encode((1,)), "1 coordinates, wanted 2",
                 id="encode-arity"),
    pytest.param(lambda: AbelianGroup((3, 4)).decode(12), "out of range", id="decode-high"),
    pytest.param(lambda: AbelianGroup((3, 4)).decode(-1), "out of range", id="decode-negative"),
    pytest.param(lambda: translate(AbelianGroup((2, 2)), 1 << 4, 1), "outside the group",
                 id="translate-outside"),
    pytest.param(lambda: translate(AbelianGroup((2, 2)), -1, 1), "outside the group",
                 id="translate-negative"),
    pytest.param(lambda: AbelianGroup((2, 2)).add(5, 0), "element id 5 out of range",
                 id="add-high"),
    pytest.param(lambda: AbelianGroup((2, 2)).add(0, -1), "element id -1 out of range",
                 id="add-negative"),
    pytest.param(lambda: AbelianGroup((2, 2)).neg(7), "element id 7 out of range",
                 id="neg-high"),
    pytest.param(lambda: AbelianGroup(5), "orders must be a sequence of cyclic orders, got 5",
                 id="group-int"),
    pytest.param(lambda: AbelianGroup((3,)).encode(5),
                 "element must be a sequence of coordinates, got 5", id="encode-int"),
    pytest.param(lambda: GeneratorSet(5), "generators must be an iterable of element ids, got 5",
                 id="generators-int"),
    pytest.param(lambda: GeneratorSet(SubdimCertificate(1, 2, 3)),
                 r"^generators must be an iterable of element ids, got SubdimCertificate\(",
                 id="generators-record"),
])
def test_group_refusals(call, message):
    with pytest.raises(DomainError, match=message):
        call()


# ---------------------------------------------------------------------------
# cayley graphs
# ---------------------------------------------------------------------------

def test_cycle_as_cayley_graph():
    assert cayley_graph(AbelianGroup((5,)), GeneratorSet({1, 4})) == cycle_graph(5)


def test_cube_as_cayley_graph():
    # hypercube_graph builds through from_edges, cayley_graph by translating
    # the generator mask: two routes to the same rows
    for n in range(1, 7):
        assert cayley_graph(cube_group(n), units(n)) == hypercube_graph(n)


def test_complete_as_cayley_graph():
    assert cayley_graph(AbelianGroup((6,)), GeneratorSet(range(1, 6))) == complete_graph(6)


@pytest.mark.parametrize("call,message", [
    (lambda: cayley_graph(AbelianGroup((5,)), {1, 4}),
     "generators must be a GeneratorSet, got {1, 4}"),
    (lambda: cayley_graph((5,), GeneratorSet({1, 4})),
     "group must be an AbelianGroup, got (5,)"),
    (lambda: dim_via_transitivity(AbelianGroup((5,)), [1, 4]),
     "generators must be a GeneratorSet, got [1, 4]"),
    (lambda: dim_via_transitivity((5,), GeneratorSet({1, 4})),
     "group must be an AbelianGroup, got (5,)"),
    (lambda: translate((5,), 1, 1), "group must be an AbelianGroup, got (5,)"),
], ids=["cayley-set", "cayley-tuple", "transitivity-list", "transitivity-tuple", "translate"])
def test_arguments_of_another_class_are_refused(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message


def test_generator_validation():
    grp = AbelianGroup((5,))
    with pytest.raises(DomainError):
        cayley_graph(grp, GeneratorSet({0, 1, 4}))  # identity forbidden
    with pytest.raises(DomainError):
        cayley_graph(grp, GeneratorSet({1}))  # missing inverse
    with pytest.raises(DomainError):
        cayley_graph(grp, GeneratorSet({7}))  # out of range


def test_generator_closure_helper():
    grp = AbelianGroup((5,))
    gens = GeneratorSet({1, 4})  # 1 and its negation
    assert grp.neg(1) in gens.elements
    assert cayley_graph(grp, gens) == cycle_graph(5)


def test_involution_generator_is_its_own_inverse():
    grp = AbelianGroup((4,))
    g = cayley_graph(grp, GeneratorSet({2}))
    assert g.edge_count() == 2  # perfect matching 0-2, 1-3


# ---------------------------------------------------------------------------
# translations
# ---------------------------------------------------------------------------

def test_translate_by_identity():
    grp = AbelianGroup((6,))
    w = mask_of([0, 2, 5])
    assert translate(grp, w, 0) == w


def test_translate_shift():
    grp = AbelianGroup((4,))
    assert translate(grp, mask_of([0, 1]), 2) == mask_of([2, 3])


def test_translate_refuses_ids_outside_the_group():
    grp = AbelianGroup((2, 2))
    for a in (7, 4, -1):
        with pytest.raises(DomainError, match="out of range"):
            translate(grp, 1, a)
    assert translate(grp, 1, 3) == 1 << 3


def test_translate_inverse_undoes():
    rng = random.Random(50)
    for _ in range(50):
        orders = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 3)))
        grp = AbelianGroup(orders)
        w = rng.getrandbits(grp.size)
        a = rng.randrange(grp.size)
        assert translate(grp, translate(grp, w, a), grp.neg(a)) == w
        assert translate(grp, w, a).bit_count() == w.bit_count()


def _group_and_two_sets():
    orders = st.lists(st.integers(1, 8), min_size=1, max_size=3).filter(
        lambda o: math.prod(o) <= 64)
    return orders.flatmap(lambda o: st.tuples(
        st.just(AbelianGroup(tuple(o))),
        st.integers(0, 2**math.prod(o) - 1), st.integers(0, 2**math.prod(o) - 1)))


@settings(derandomize=True, database=None)
@given(_group_and_two_sets(), st.data())
def test_translate_and_cayley_graph_match_per_element_sums(case, data):
    grp, w, s = case
    a = data.draw(st.integers(0, grp.size - 1))

    def plus(x, y):  # coordinatewise, one element at a time
        return grp.encode([(p + q) % n for p, q, n in
                           zip(grp.decode(x), grp.decode(y), grp.orders)])

    assert translate(grp, w, a) == mask_of(plus(x, a) for x in bits_of(w))
    # the nonzero members of s and their negations form a connection set
    conn = {t for t in bits_of(s) if t}
    conn |= {grp.encode([-c for c in grp.decode(t)]) for t in conn}
    rows = tuple(mask_of(plus(x, t) for t in conn) for x in range(grp.size))
    assert cayley_graph(grp, GeneratorSet(conn)).adj == rows


# ---------------------------------------------------------------------------
# counting identity and averaging
# ---------------------------------------------------------------------------

def _overlaps(grp, w, s):
    """|(W + a) & S| for each group element a, in element order."""
    return [(translate(grp, w, a) & s).bit_count() for a in range(grp.size)]


def _random_group(rng):
    while True:
        orders = tuple(rng.randint(1, 8) for _ in range(rng.randint(1, 3)))
        if math.prod(orders) <= 64:
            return AbelianGroup(orders)


def test_counting_identity_cube_example():
    grp = cube_group(3)
    assert sum(_overlaps(grp, mask_of(range(5)), (1 << 8) - 1)) == 5 * 8 == 40


def test_counting_identity_empty_set():
    grp = AbelianGroup((5,))
    assert _overlaps(grp, 0, mask_of([1, 2])) == [0] * 5


def test_counting_identity_small_cyclic():
    grp = AbelianGroup((5,))
    assert sum(_overlaps(grp, mask_of([0, 1, 2]), mask_of([0, 3]))) == 3 * 2 == 6


def test_counting_identity_random_triples():
    rng = random.Random(51)
    for _ in range(100):
        grp = _random_group(rng)
        w = rng.getrandbits(grp.size)
        s = rng.getrandbits(grp.size)
        assert sum(_overlaps(grp, w, s)) == w.bit_count() * s.bit_count()


@settings(derandomize=True, database=None)
@given(_group_and_two_sets())
def test_counting_identity_property(case):
    grp, w, s = case
    overlaps = _overlaps(grp, w, s)
    product = w.bit_count() * s.bit_count()
    assert sum(overlaps) == product
    assert max(overlaps) >= -(-product // grp.size)


def test_best_translate_self_overlap():
    grp = AbelianGroup((7,))
    w = mask_of([0, 2, 3])
    overlaps = _overlaps(grp, w, w)
    assert max(overlaps) == 3 and overlaps.index(3) == 0


def test_best_translate_everything_covered():
    grp = cube_group(2)
    assert max(_overlaps(grp, mask_of([0, 1, 2]), (1 << 4) - 1)) == 3


def test_best_translate_beats_average():
    rng = random.Random(52)
    for _ in range(100):
        grp = _random_group(rng)
        w = rng.getrandbits(grp.size)
        s = rng.getrandbits(grp.size)
        assert max(_overlaps(grp, w, s)) >= -(-w.bit_count() * s.bit_count() // grp.size)


def test_best_translate_specific_lower_bound():
    grp = cube_group(3)
    w = mask_of([0, 1, 2, 4, 7])
    s = mask_of([0, 1, 2, 3, 4, 5])
    assert max(_overlaps(grp, w, s)) >= -(-5 * 6 // 8)  # ceil(30/8) = 4


# ---------------------------------------------------------------------------
# dimension through transitivity
# ---------------------------------------------------------------------------

def test_dim_via_transitivity_small_cubes():
    assert dim_via_transitivity(cube_group(2), units(2)).value == 2
    assert dim_via_transitivity(cube_group(3), units(3)).value == 2


def test_dim_via_transitivity_matches_exhaustive():
    cases = [
        (AbelianGroup((6,)), GeneratorSet({1, 5})),
        (AbelianGroup((7,)), GeneratorSet({1, 2, 5, 6})),
        (AbelianGroup((5,)), GeneratorSet({1, 2, 3, 4})),
        (cube_group(3), units(3)),
    ]
    for grp, gens in cases:
        g = cayley_graph(grp, gens)
        assert dim_via_transitivity(grp, gens).value == dim_exact(g).value


def test_dim_via_transitivity_certificate_shape():
    cert = dim_via_transitivity(cube_group(3), units(3))
    g = hypercube_graph(3)
    assert cert.witness_max == g.vertex_mask
    assert cert.inner.witness_min.bit_count() == 5
    assert subdim(g, g.vertex_mask) == cert.inner


def test_dim_via_transitivity_cap():
    with pytest.raises(CapExceeded):
        dim_via_transitivity(cube_group(5), units(5))


def test_dim_via_transitivity_checks_the_cap_before_building(monkeypatch):
    def unbuildable(grp, gens):
        raise AssertionError("an oversize Cayley graph was built")
    monkeypatch.setattr(cayley, "cayley_graph", unbuildable)
    with pytest.raises(CapExceeded):
        dim_via_transitivity(cube_group(20), units(20))


def test_half_witness_translation_covers_majorities():
    # exhaustive over every nonempty target subset for the 1-, 2-, 3-cubes
    for k in (1, 2, 3):
        grp = cube_group(k)
        g = cayley_graph(grp, units(k))
        w = subdim(g, g.vertex_mask).witness_min
        for s_set in range(1, 1 << g.n):
            assert max(_overlaps(grp, w, s_set)) >= s_set.bit_count() // 2 + 1
