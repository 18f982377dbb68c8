"""Dirichlet character enumeration and structure."""
import importlib
from math import gcd

import pytest

from qzeta.arith import euler_phi
from qzeta.characters import character, characters, is_primitive, unit_group
from qzeta.fields import CycRat


def test_unit_group_mod_4():
    g = unit_group(4)
    assert g.generators == ((3, 2),)


def test_unit_group_mod_5_primitive_root():
    g = unit_group(5)
    assert g.generators == ((2, 4),)


def test_unit_group_mod_8_two_generators():
    g = unit_group(8)
    assert set(g.generators) == {(7, 2), (5, 2)}


def test_unit_group_dlog_complete():
    for N in (1, 2, 3, 4, 5, 8, 9, 12, 16, 15):
        g = unit_group(N)
        assert len(g.dlog) == euler_phi(N)


def test_characters_mod_1():
    chars = characters(1)
    assert len(chars) == 1
    chi = chars[0]
    assert chi.is_trivial()
    assert is_primitive(chi)
    assert chi(0) == 1 and chi(17) == 1


def test_characters_mod_4():
    chars = characters(4)
    assert len(chars) == 2
    nontrivial = [c for c in chars if not c.is_trivial()]
    assert len(nontrivial) == 1
    assert nontrivial[0](3) == -1


def test_characters_mod_5_orders():
    assert sorted(c.order for c in characters(5)) == [1, 2, 4, 4]


def test_primitive_mod_4():
    chi = [c for c in characters(4) if not c.is_trivial()][0]
    assert is_primitive(chi)


def test_character_mod_6_induced_from_3_not_primitive():
    for chi in characters(6):
        assert not is_primitive(chi)  # both factor through 1 or 3


@pytest.mark.parametrize("N", range(2, 13))
def test_orthogonality(N):
    for chi in characters(N):
        if chi.is_trivial():
            continue
        total = CycRat.zero(chi.order)
        for n in range(N):
            total = total + chi(n)
        assert total.is_zero()


@pytest.mark.parametrize("N", range(1, 13))
def test_multiplicativity(N):
    for chi in characters(N):
        for a in range(N if N > 1 else 2):
            for b in range(N if N > 1 else 2):
                assert chi(a * b) == chi(a) * chi(b)


@pytest.mark.parametrize("N", range(1, 25))
def test_character_count(N):
    assert len(characters(N)) == euler_phi(N)


def test_zero_on_non_units():
    chi = character(6, 1)
    for n in range(6):
        if gcd(n, 6) > 1:
            assert chi(n).is_zero()


def test_values_are_roots_of_unity():
    for chi in characters(8):
        m = chi.order
        for n in range(1, 8):
            v = chi(n)
            if not v.is_zero():
                assert v**m == 1


def test_index_addressing_round_trip():
    for N in (3, 5, 8, 12):
        for chi in characters(N):
            assert character(N, chi.index) == chi


def test_real_characters_have_rational_values():
    for N in (3, 4, 8, 12):
        for chi in characters(N):
            if chi.is_real():
                for n in range(N):
                    assert chi(n).is_rational()


def test_complex_character_mod_5():
    chi = character(5, 1)
    assert chi.order == 4
    i = CycRat.zeta_power(4, 1)
    assert chi(2) in (i, -i)  # 2 is a primitive root; chi sends it to +-i


def test_to_json_shape():
    doc = character(4, 1).to_json()
    assert doc["modulus"] == 4 and doc["order"] == 2 and doc["primitive"] is True
    assert {"n": 3, "value": "-1"} in doc["values"]


@pytest.mark.parametrize("check", ["phi_factor_indices", "unit_group", "character"])
def test_broken_invariants_raise_arithmetic_error(monkeypatch, check):
    # explicit checks, not asserts: they must also hold under python -O
    arith = importlib.import_module("qzeta.arith")
    chars = importlib.import_module("qzeta.characters")  # not the function
    if check == "phi_factor_indices":
        monkeypatch.setattr(arith, "euler_phi", lambda n: n)
        with pytest.raises(ArithmeticError):
            arith.phi_factor_indices(3, 2)
    elif check == "unit_group":
        monkeypatch.setattr(chars, "euler_phi", lambda n: n)
        monkeypatch.setattr(chars, "_unit_group_cache", {})
        with pytest.raises(ArithmeticError):
            unit_group(7)
    else:
        monkeypatch.setattr(chars.DirichletCharacter, "index", property(lambda self: -1))
        with pytest.raises(ArithmeticError):
            character(5, 1)
