"""The value classes built on `quiver.Record` against their dataclass twins."""

from __future__ import annotations

import copy
import operator
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import FAMILIES, TWINS, twin_of

from taudec.brauer import IdentityCheck
from taudec.dynkin import DynkinType
from taudec.glue import GLUING, INTERNAL, GluedHasse, HasseNode
from taudec.quiver import Arrow, Valuation, ValuedGraph, ValuedQuiver

small = st.integers(-1, 4)
valuations = st.builds(Valuation, st.integers(1, 3), st.integers(1, 3))
arrows = st.builds(Arrow, st.integers(1, 4), st.integers(1, 4), valuations)
ints = st.lists(small, max_size=4).map(tuple)
edges = st.tuples(small, small, st.tuples(st.integers(1, 3), st.integers(1, 3)))
signs = st.lists(st.sampled_from((1, -1)), max_size=3).map(tuple)
supports = st.lists(ints, max_size=3).map(tuple)
nodes = st.builds(HasseNode, signs, supports, ints)
families = st.sampled_from(FAMILIES + ("X",))

# argument tuples per class, invalid ones and defaults among them
ARGUMENTS = {
    Valuation: st.tuples(small, small),
    Arrow: st.tuples(small, small) | st.tuples(small, small, valuations),
    ValuedQuiver: st.tuples(small) | st.tuples(small, st.lists(arrows, max_size=3).map(tuple)),
    ValuedGraph: st.tuples(ints) | st.tuples(ints, st.lists(edges, max_size=3).map(tuple)),
    DynkinType: st.tuples(families) | st.tuples(families, st.integers(-1, 9)),
    HasseNode: st.tuples(signs, supports, ints),
    GluedHasse: st.tuples(
        st.lists(nodes, max_size=3).map(tuple),
        st.lists(st.tuples(small, small, st.sampled_from((INTERNAL, GLUING))),
                 max_size=3).map(tuple)),
    IdentityCheck: st.tuples(st.text(max_size=4), small, small, small),
}
ORDERED = (Valuation, Arrow)
COMPARISONS = (operator.lt, operator.le, operator.gt, operator.ge)


def built(cls, args):
    """The value of `cls(*args)` and of its twin on the twinned arguments,
    or each one's ValueError."""
    out = []
    for make, given_args in ((cls, args), (TWINS[cls], twin_of(args))):
        try:
            out.append(make(*given_args))
        except ValueError as exc:  # QuiverError too
            out.append(exc)
    return out


def outcome(compare, a, b):
    try:
        return compare(a, b)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("cls", ARGUMENTS, ids=lambda cls: cls.__name__)
@settings(max_examples=150)
@given(data=st.data())
def test_value_semantics_match_the_dataclass_twin(cls, data):
    first = data.draw(ARGUMENTS[cls])
    second = data.draw(st.just(first) | ARGUMENTS[cls])
    a, twin_a = built(cls, first)
    b, twin_b = built(cls, second)
    if isinstance(twin_a, ValueError):
        assert (type(a), str(a)) == (type(twin_a), str(twin_a))
        return
    assert type(a) is cls and cls.__match_args__ == TWINS[cls].__match_args__
    assert repr(a) == repr(twin_a)
    assert hash(a) == hash(twin_a)
    assert a != twin_a and a != tuple(getattr(a, name) for name in cls.__match_args__)
    if not isinstance(twin_b, ValueError):
        assert (a == b, a != b) == (twin_a == twin_b, twin_a != twin_b)
        for compare in COMPARISONS:
            got, want = outcome(compare, a, b), outcome(compare, twin_a, twin_b)
            assert got == want
            assert (got is TypeError) == (cls not in ORDERED)
    for name in (*cls.__slots__, "other"):
        for change in (lambda x: setattr(x, name, 0), lambda x: delattr(x, name)):
            errors = []
            for value in (a, twin_a):
                with pytest.raises(AttributeError) as info:
                    change(value)
                errors.append(str(info.value))
            assert errors[0] == errors[1]


ONE_OF_EACH = [
    Valuation(1, 2),
    Arrow(2, 1, Valuation(3, 1)),
    ValuedQuiver(2, (Arrow(2, 1), Arrow(1, 1, Valuation(2, 2)))),
    ValuedGraph((1, 3, 2), ((1, 2, (1, 2)), (2, 3, (1, 1)))),
    DynkinType("D", 4),
    HasseNode((1, -1), ((1,), (1, 2)), (1, -2)),
    GluedHasse((HasseNode((1,), ((1,),), (1,)), HasseNode((-1,), (), (0,))), ((0, 1, GLUING),)),
    IdentityCheck("total-sum", 3, 10, 10),
]


@pytest.mark.parametrize("value", ONE_OF_EACH, ids=lambda value: type(value).__name__)
def test_copy_and_pickle_round_trip(value):
    assert {type(one) for one in ONE_OF_EACH} == set(TWINS)
    copies = [copy.copy(value), copy.deepcopy(value)] + [
        pickle.loads(pickle.dumps(value, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for other in copies:
        assert type(other) is type(value)
        assert other == value and hash(other) == hash(value)


@pytest.mark.parametrize("compare", COMPARISONS, ids=lambda compare: compare.__name__)
def test_order_between_valuation_and_arrow_is_a_type_error(compare):
    # each record's `__lt__` declines the other class, as each twin's does
    for a, b in ((Valuation(1, 2), Arrow(1, 2)), (Arrow(1, 2), Valuation(1, 2))):
        assert outcome(compare, a, b) is TypeError
        assert outcome(compare, twin_of(a), twin_of(b)) is TypeError
