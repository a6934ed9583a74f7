"""The hand-written value types behave as the frozen dataclasses they replace.

Each twin below is the frozen dataclass with the same fields: hashes, set
orders, equality and repr must match it exactly, since output orders come
from hashing these values.
"""

import copy
import pickle
from dataclasses import dataclass
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from steenrod_kit.chains import Cell, Simplex
from steenrod_kit.rings import Ring


@dataclass(frozen=True)
class SimplexTwin:
    vertices: tuple


@dataclass(frozen=True)
class CellTwin:
    dim: int
    label: object


@dataclass(frozen=True)
class RingTwin:
    kind: str
    p: Optional[int] = None


labels = st.one_of(st.integers(-5, 5), st.text(max_size=3), st.tuples(st.integers(0, 3), st.text(max_size=2)))
simplices = st.lists(st.integers(0, 6), min_size=1, max_size=5).map(tuple)
cells = st.tuples(st.integers(0, 4), labels)
rings = st.sampled_from([("Integers", None), ("Rationals", None), ("PrimeField", 2), ("PrimeField", 3), ("PrimeField", 7)])


def _instances(s, cell, ring_fields):
    """(value, dataclass twin, field tuple) for one instance of each type."""
    d, label = cell
    yield Simplex(s), SimplexTwin(s), (s,)
    yield Cell(d, label), CellTwin(d, label), (d, label)
    yield Ring(*ring_fields), RingTwin(*ring_fields), ring_fields


@settings(max_examples=60, deadline=None)
@given(simplices, cells, rings)
def test_hash_eq_and_repr_are_the_dataclass_ones(s, c, r):
    for value, twin, fields in _instances(s, c, r):
        assert hash(value) == hash(fields) == hash(twin)
        assert repr(value) == repr(twin).replace("Twin(", "(")
        again = type(value)(*fields)
        assert value == again and not value != again and hash(value) == hash(again)
        assert copy.deepcopy(value) == value and pickle.loads(pickle.dumps(value)) == value


@settings(max_examples=30, deadline=None)
@given(st.lists(cells, max_size=12), st.lists(simplices, max_size=12))
def test_sets_iterate_in_the_dataclass_order(cell_fields, simplex_fields):
    assert [(c.dim, c.label) for c in set(Cell(*f) for f in cell_fields)] == [
        (c.dim, c.label) for c in set(CellTwin(*f) for f in cell_fields)
    ]
    assert [v.vertices for v in set(map(Simplex, simplex_fields))] == [
        v.vertices for v in set(map(SimplexTwin, simplex_fields))
    ]


def test_equality_holds_within_a_class_only():
    assert Cell(1, 2) == Cell(1, 2) and Cell(1, 2) != Cell(1, 3)
    assert Cell(1, 2) != Simplex((1, 2)) and Simplex((1, 2)) != Cell(1, 2)
    assert Cell(1, 2) != (1, 2) and Ring("Integers") != ("Integers", None)
    assert Simplex((0, 1)) != (0, 1) and Simplex((0, 1)) != SimplexTwin((0, 1))
    assert Ring("Integers") != RingTwin("Integers")
    assert Cell(1, 2).__eq__(Simplex((1, 2))) is NotImplemented
    assert Ring("Integers").__eq__("Z") is NotImplemented


@pytest.mark.parametrize(
    "value, name",
    [
        (Simplex((0, 1)), "vertices"),
        (Cell(0, "v"), "label"),
        (Cell(0, "v"), "dim"),
        (Ring("Integers"), "kind"),
        (Ring("PrimeField", 2), "p"),
    ],
)
def test_fields_cannot_be_assigned_or_added(value, name):
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1


def test_simplex_vertices_are_a_tuple():
    assert Simplex([0, 1]).vertices == (0, 1)
    assert type(Simplex([0, 1]).vertices) is tuple
    assert Simplex([0, 1]) == Simplex((0, 1))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Simplex(()), "a simplex needs at least one vertex"),
        (lambda: Simplex([]), "a simplex needs at least one vertex"),
        (lambda: Ring("Naturals"), "unknown ring kind: 'Naturals'"),
        (lambda: Ring("PrimeField"), "PrimeField characteristic must be prime, got None"),
        (lambda: Ring("PrimeField", 4), "PrimeField characteristic must be prime, got 4"),
        (lambda: Ring("Integers", 2), "Integers takes no characteristic"),
        (lambda: Ring("Rationals", 3), "Rationals takes no characteristic"),
    ],
)
def test_constructor_errors_are_unchanged(make, message):
    with pytest.raises(ValueError) as caught:
        make()
    assert str(caught.value) == message


@settings(max_examples=30, deadline=None)
@given(simplices, cells, rings)
def test_the_kept_hash_is_the_field_tuple_hash(s, c, r):
    for value, _, fields in _instances(s, c, r):
        assert hash(value) == hash(fields) and hash(value) == hash(value._fields())
        for again in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert again == value and hash(again) == hash(fields)


def test_the_kept_hash_cannot_be_set_from_outside():
    value = Cell(1, ("a", 2))
    with pytest.raises(AttributeError):
        value._hash = 0
    hash(value)
    with pytest.raises(AttributeError):
        value._hash = 0
    with pytest.raises(AttributeError):
        del value._hash
    assert hash(value) == hash((1, ("a", 2)))
