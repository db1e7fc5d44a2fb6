from __future__ import annotations

import pytest

from designforge import (
    CodeSpec,
    TooLarge,
    affine_orbit_check,
    closure_check,
    defining_set_of_family,
    generator_basis,
    membership_test,
    preceq,
)
from designforge.invariance import orbit_invariant_basis
from designforge.polyops import cyclotomic_coset


def test_preceq():
    assert preceq(1, 3)
    assert not preceq(2, 5)
    for e in range(32):
        assert preceq(e, e)
        assert preceq(0, e)
    # r <= e numerically whenever r preceq e
    for e in range(64):
        for r in range(64):
            if preceq(r, e):
                assert r <= e


@pytest.mark.parametrize(
    "spec",
    [CodeSpec("c1", 2), CodeSpec("c1", 3), CodeSpec("c1", 4),
     CodeSpec("c2", 2, 1), CodeSpec("c2", 3, 1), CodeSpec("c2", 3, 2),
     CodeSpec("c2", 4, 1), CodeSpec("c2", 4, 3)],
)
def test_closure_positive(spec):
    ok, witness = closure_check(set(defining_set_of_family(spec)), spec.m)
    assert ok and witness is None


def test_closure_weight_one_set():
    # {0} plus the coset of 1 contains only weight <= 1 exponents
    t = {0} | set(cyclotomic_coset(1, 15).members)
    assert closure_check(t, 4) == (True, None)


def test_closure_negative_witness():
    t = {0} | set(cyclotomic_coset(7, 15).members)
    assert sorted(t) == [0, 7, 11, 13, 14]
    ok, witness = closure_check(t, 4)
    assert not ok
    assert witness == (7, 3)


def test_closure_brute_force_agreement():
    # covering-relation closure equals the full submask definition
    import random

    rng = random.Random(5)
    for _ in range(40):
        t = {0} | {rng.randrange(16) for _ in range(rng.randrange(1, 8))}
        ok, witness = closure_check(t, 4)
        naive = all(r in t for e in t for r in range(16) if preceq(r, e))
        assert ok == naive
        if witness is not None:
            e, r = witness
            assert e in t and preceq(r, e) and r not in t


def test_closure_coset_union_invariance():
    # closure verdict is unchanged by completing members to full cosets
    spec = CodeSpec("c1", 3)
    t = set(defining_set_of_family(spec))
    completed = set(t)
    for e in t:
        if e:
            completed |= cyclotomic_coset(e, 63).members
    assert closure_check(t, 6) == closure_check(completed, 6)


@pytest.mark.parametrize(
    "spec",
    [CodeSpec("c1", 2), CodeSpec("c1", 3),
     CodeSpec("c2", 2, 1), CodeSpec("c2", 3, 1), CodeSpec("c2", 3, 2)],
)
def test_affine_orbit_positive(spec, f4, f6):
    field = f4 if spec.m == 4 else f6
    assert affine_orbit_check(spec, field)


def test_affine_orbit_negative(f4):
    # a weight-1 word plus the all-one word do not span an invariant code
    assert not orbit_invariant_basis(f4, [1, (1 << 16) - 1])


def test_affine_orbit_too_large(f8):
    with pytest.raises(TooLarge):
        affine_orbit_check(CodeSpec("c1", 4), f8)


def test_orbit_check_against_slow_route(f4):
    # independent slow check: permute each basis word coordinate by
    # coordinate and test membership
    spec = CodeSpec("c1", 2)
    basis = generator_basis(spec, f4)
    for a in range(1, 16):
        for b in range(16):
            for word in basis:
                permuted = 0
                for i in range(16):
                    if (word >> i) & 1:
                        permuted |= 1 << f4.index(f4.mul(a, f4.element(i)) ^ b)
                assert membership_test(permuted, basis, 16)


def test_affine_maps_form_group(f6):
    # composing two maps gives a map already in the family
    import random

    rng = random.Random(11)
    for _ in range(32):
        a1, b1 = rng.randrange(1, 64), rng.randrange(64)
        a2, b2 = rng.randrange(1, 64), rng.randrange(64)
        a3 = f6.mul(a2, a1)
        b3 = f6.mul(a2, b1) ^ b2
        assert a3 != 0
        for x in (0, 1, 17, 63):
            y = f6.mul(a2, f6.mul(a1, x) ^ b1) ^ b2
            assert y == f6.mul(a3, x) ^ b3
