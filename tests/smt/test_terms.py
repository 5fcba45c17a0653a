"""Tests for the term AST and smart constructors."""

from __future__ import annotations

import pytest

from repro.smt import terms as T


def _name(*parts: str) -> str:
    # A fresh, equal but distinct string object for each call.
    return "".join(parts)


def _one_of_each_term_class() -> list[T.Term]:
    x = T.BoolVar(_name("x", "1"))
    y = T.BoolVar(_name("y", "1"))
    a = T.BvVar(_name("a", "1"), 8)
    b = T.BvVar(_name("b", "1"), 8)
    k = T.BvConst(256 + 7, 8)
    return [
        T.BoolConst(True),
        x,
        T.Not(x),
        T.And((x, y)),
        T.Or((x, y)),
        T.Ite(x, y, T.Not(y)),
        a,
        k,
        T.BvEq(a, k),
        T.BvUlt(a, b),
        T.BvUle(b, a),
        T.BvAnd(a, b),
        T.BvAdd(a, b),
        T.BvIte(x, a, b),
    ]


def test_interning_gives_identity():
    assert T.bool_var("x") is T.bool_var("x")
    assert T.bv_var("p", 8) is T.bv_var("p", 8)
    assert T.bv_const(3, 8) is T.bv_const(3, 8)
    assert T.and_(T.bool_var("x"), T.bool_var("y")) is T.and_(
        T.bool_var("x"), T.bool_var("y")
    )
    # Every term class: structurally equal constructions are one object.
    first, second = _one_of_each_term_class(), _one_of_each_term_class()
    assert {type(t) for t in first} == {
        cls for cls in vars(T).values()
        if isinstance(cls, type) and issubclass(cls, T.Term) and not cls.__name__.startswith("_")
    } - {T.Term}
    for one, other in zip(first, second):
        assert one is other
    assert T.BoolConst(1) is T.TRUE
    # Same children, different operator: distinct nodes (And/Or, BvAnd/BvAdd).
    assert first[3] is not first[4]
    assert first[11] is not first[12]


def test_bv_const_wraps_modulo_width():
    assert T.bv_const(256, 8).value == 0
    assert T.bv_const(-1, 8).value == 255


def test_not_folding():
    x = T.bool_var("x")
    assert T.not_(T.not_(x)) is x
    assert T.not_(T.true()) is T.false()
    assert T.not_(T.false()) is T.true()


def test_and_flattening_and_units():
    x, y, z = T.bool_var("x"), T.bool_var("y"), T.bool_var("z")
    assert T.and_() is T.true()
    assert T.and_(x) is x
    assert T.and_(x, T.true()) is x
    assert T.and_(x, T.false()) is T.false()
    inner = T.and_(x, y)
    flat = T.and_(inner, z)
    assert isinstance(flat, T.And)
    assert flat.args == (x, y, z)


def test_and_contradiction_detected():
    x = T.bool_var("x")
    assert T.and_(x, T.not_(x)) is T.false()


def test_or_duals():
    x, y = T.bool_var("x"), T.bool_var("y")
    assert T.or_() is T.false()
    assert T.or_(x, T.true()) is T.true()
    assert T.or_(x, T.false()) is x
    assert T.or_(x, T.not_(x)) is T.true()
    assert T.or_(T.or_(x, y), y) is T.or_(x, y)


def test_implies_and_iff_folding():
    x = T.bool_var("x")
    assert T.implies(T.true(), x) is x
    assert T.implies(T.false(), x) is T.true()
    assert T.iff(x, x) is T.true()
    assert T.iff(x, T.true()) is x
    assert T.iff(x, T.false()) is T.not_(x)


def test_ite_folding():
    x, y, c = T.bool_var("x"), T.bool_var("y"), T.bool_var("c")
    assert T.ite(T.true(), x, y) is x
    assert T.ite(T.false(), x, y) is y
    assert T.ite(c, x, x) is x
    assert T.ite(c, T.true(), T.false()) is c
    assert T.ite(c, T.false(), T.true()) is T.not_(c)


def test_bv_ite_requires_matching_width():
    c = T.bool_var("c")
    with pytest.raises(TypeError):
        T.ite(c, T.bv_var("a", 8), T.bv_var("b", 16))


def test_bv_relations_fold_constants():
    three = T.bv_const(3, 8)
    five = T.bv_const(5, 8)
    assert T.bv_eq(three, three) is T.true()
    assert T.bv_eq(three, five) is T.false()
    assert T.bv_ult(three, five) is T.true()
    assert T.bv_ult(five, three) is T.false()
    assert T.bv_ule(three, three) is T.true()
    assert T.bv_ule(three, five) is T.true()


def test_bv_bitwise_folding():
    a = T.bv_var("a", 8)
    zeros = T.bv_const(0, 8)
    ones = T.bv_const(0xFF, 8)
    assert T.bv_and(a, ones) is a
    assert T.bv_and(a, zeros) is zeros
    assert T.bv_add(a, zeros) is a
    assert T.bv_and(T.bv_const(0b1100, 8), T.bv_const(0b1010, 8)).value == 0b1000


def test_width_mismatch_raises():
    with pytest.raises(TypeError):
        T.bv_eq(T.bv_var("a", 8), T.bv_var("b", 16))
    with pytest.raises(TypeError):
        T.bv_and(T.bv_var("a", 8), T.bv_var("b", 4))


def test_width_property_on_bool_raises():
    with pytest.raises(TypeError):
        __ = T.bool_var("x").width


def test_or_of_term_and_its_negation_is_true():
    shared = T.and_(T.bool_var("x"), T.bool_var("y"))
    assert T.or_(shared, T.not_(shared)) is T.true()


def test_bitvec_sort_cached_and_immutable():
    assert T.BitVecSort(8) is T.BitVecSort(8)
    with pytest.raises(ValueError):
        T.BitVecSort(0)
    with pytest.raises(AttributeError):
        T.BitVecSort(8).width = 9


def test_terms_hash_and_compare_by_identity():
    assert T.Term.__hash__ is object.__hash__
    assert T.Term.__eq__ is object.__eq__
    assert "_hash" not in T.Term.__slots__


def test_the_boolean_constants_survive_an_intern_table_clear():
    T.clear_intern_cache()
    assert T.BoolConst(True) is T.TRUE
    assert T.BoolConst(0) is T.FALSE
    assert T.and_(T.BoolConst(True), T.bool_var("x")) is T.bool_var("x")


def test_complements_are_detected_in_either_order_and_when_nested():
    x, y, z = T.bool_var("x"), T.bool_var("y"), T.bool_var("z")
    eq = T.bv_eq(T.bv_var("a", 8), T.bv_const(1, 8))
    for left, right in ((x, T.not_(x)), (T.not_(x), x), (eq, T.not_(eq))):
        assert T.and_(left, right) is T.FALSE
        assert T.and_(right, left) is T.FALSE
        assert T.or_(left, right) is T.TRUE
        assert T.or_(right, left) is T.TRUE
    # The complement arrives flattened out of a nested operand.
    assert T.and_(T.and_(z, x), T.not_(x)) is T.FALSE
    assert T.and_(T.not_(x), T.and_(z, x)) is T.FALSE
    assert T.or_(T.or_(z, x), T.not_(x)) is T.TRUE
    assert T.or_(T.not_(x), [T.or_(x, z)]) is T.TRUE
    # An operand and the negation of a *different* term are not complements.
    assert T.and_(T.not_(x), y) is T.And((T.not_(x), y))


def test_complement_free_calls_intern_nothing_new():
    # Names no other test uses, so no ``Not`` of them exists yet.
    x, y, z = (T.bool_var(f"complement-free.{n}") for n in "xyz")
    not_z = T.not_(z)
    conj, disj = T.And((x, y, not_z)), T.Or((x, y, not_z))
    size = len(T._INTERN)
    assert T.and_(x, y, not_z) is conj
    assert T.or_([x, y, not_z]) is disj
    assert len(T._INTERN) == size
