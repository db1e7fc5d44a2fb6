from __future__ import annotations

import random
from functools import reduce
from operator import xor

import numpy as np
import pytest

from designforge import (
    CodeSpec,
    affine_orbit_check,
    closure_check,
    defining_set_of_family,
    generator_basis,
    membership_test,
    preceq,
)
from designforge.codebuild import move_words, reduce_rows
from designforge.invariance import orbit_invariant_basis
from designforge.polyops import cyclotomic_coset


def _affine_image(field, word, a, b):
    """word with the bit at coordinate i moved to the coordinate of a*x + b."""
    out = 0
    for i in range(field.q):
        if (word >> i) & 1:
            out |= 1 << field.index(field.mul(a, field.element(i)) ^ b)
    return out


def _slow_orbit_invariant(field, rows):
    """Apply all q(q-1) affine maps to every basis word, coordinate by coordinate."""
    basis = reduce_rows(rows)
    return all(
        membership_test(_affine_image(field, word, a, b), basis, field.q)
        for a in range(1, field.q)
        for b in range(field.q)
        for word in basis
    )


def _scale(field, word):
    # x -> alpha*x fixes coordinate 0 and rotates coordinates 1..n up by one
    n = field.n
    rest = word >> 1
    rotated = ((rest << 1) | (rest >> (n - 1))) & ((1 << n) - 1)
    return (rotated << 1) | (word & 1)


def _trace_word(field, e):
    """tr(x^e) at every coordinate."""
    bits = field.trace_np[field.power_table(e)]
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


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


def test_orbit_check_rejects_words_outside_the_field(f4, f6):
    for field, bad in ((f4, 1 << 16), (f4, -1), (f6, 1 << 64), (f6, -3)):
        with pytest.raises(ValueError, match="point >= v"):
            orbit_invariant_basis(field, [0b110, bad])


@pytest.mark.parametrize("m", [4, 6])
def test_move_words_matches_the_affine_image(m, f4, f6):
    field = f4 if m == 4 else f6
    rng = random.Random(m)
    words = [0, (1 << field.q) - 1] + [rng.getrandbits(field.q) for _ in range(10)]
    maps = [(1, 0), (2, 0), (1, 1)] + [(rng.randrange(1, field.q), rng.randrange(field.q)) for _ in range(5)]
    points = field.elements_in_order()
    images = [field.scalar_mul_vec(a, points) ^ b for a, b in maps]
    moved = move_words(field, words, images)
    assert moved == [[_affine_image(field, w, a, b) for w in words] for a, b in maps]
    # x -> x^2 is no affine map: each bit goes from coordinate i to that of x^2
    square = field.power_table(2)
    assert move_words(field, words, [square]) == [
        [sum(1 << field.index(int(square[i])) for i in range(field.q) if w >> i & 1) for w in words]
    ]


def test_move_words_refuses_a_map_that_is_no_permutation(f4):
    points = f4.elements_in_order()
    for image in (points * 0, np.where(points == 1, 2, points), points ^ (points == 3)):
        with pytest.raises(ValueError, match="sends two points to one"):
            move_words(f4, [0b110], [points, image])
    for image in (points[:-1], np.append(points, 0)):
        with pytest.raises(ValueError):
            move_words(f4, [0b110], [image])
    with pytest.raises(ValueError, match="point >= v"):
        move_words(f4, [1 << 16], [points])


def test_affine_orbit_m8(f8):
    for spec in (CodeSpec("c1", 4), CodeSpec("c2", 4, 1), CodeSpec("c2", 4, 3)):
        assert affine_orbit_check(spec, f8)
    # tr(a*x^7) is fixed by x -> alpha*x but not by the translations:
    # {0} plus the coset of 7 is not downward closed (7 covers 3)
    word = _trace_word(f8, 7)
    assert word & 1 == 0
    orbit = [word]
    for _ in range(f8.n - 1):
        orbit.append(_scale(f8, orbit[-1]))
    assert not closure_check({0} | set(cyclotomic_coset(7, 255).members), 8)[0]
    assert not orbit_invariant_basis(f8, orbit + [(1 << 256) - 1])


def test_orbit_check_against_slow_route(f4):
    # independent slow check: permute each basis word coordinate by
    # coordinate and test membership
    basis = generator_basis(CodeSpec("c1", 2), f4)
    assert _slow_orbit_invariant(f4, basis)
    assert affine_orbit_check(CodeSpec("c1", 2), f4)


def test_generator_check_agrees_with_all_maps(f4):
    # three kinds of span: full affine orbits (invariant), x -> alpha*x
    # orbits plus the all-one word (fixed by that map only), and
    # translation orbits (fixed by the translations only)
    rng = random.Random(23)
    ones = (1 << 16) - 1

    def low_weight_word():
        return sum(1 << i for i in rng.sample(range(16), rng.randrange(1, 5)))

    def scale_orbit(word):
        orbit = [word]
        for _ in range(f4.n - 1):
            orbit.append(_scale(f4, orbit[-1]))
        return orbit

    affine = [[_affine_image(f4, w, a, b) for a in range(1, 16) for b in range(16)]
              for w in (low_weight_word() for _ in range(6))]
    # every sum of tr(x^e) over coset leaders e in {1, 3, 5, 7}, then random words
    sums = [reduce(xor, (_trace_word(f4, e) for e, pick in zip((1, 3, 5, 7), bits) if pick), 0)
            for bits in np.ndindex(2, 2, 2, 2)][1:]
    scaled = [scale_orbit(w) + [ones] for w in sums + [rng.randrange(1 << 16) & ~1 for _ in range(6)]]
    translated = [[_affine_image(f4, w, 1, b) for b in range(16)]
                  for w in (low_weight_word() for _ in range(12))]

    for kind, spans in (("affine", affine), ("scale", scaled), ("translation", translated)):
        verdicts = []
        for rows in spans:
            fast = orbit_invariant_basis(f4, rows)
            assert fast == _slow_orbit_invariant(f4, rows), (kind, rows)
            verdicts.append(fast)
        if kind == "affine":
            assert all(verdicts)
        else:
            assert not all(verdicts), kind


def test_affine_maps_form_group(f6):
    # composing two maps gives a map already in the family
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
