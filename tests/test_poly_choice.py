"""A different primitive polynomial permutes coordinates, so every weight
distribution and design parameter must come out unchanged."""

from __future__ import annotations

from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from designforge import (
    CodeSpec,
    Field,
    NonPrimitivePolynomial,
    cyclic_weight_distribution,
    full_design_report,
    weight_distribution,
)

# alternates: x^4+x^3+1 and x^6+x^4+x^3+x+1
ALT_POLYS = {4: 0x19, 6: 0x5B}


@pytest.mark.parametrize("spec", [CodeSpec("c1", 2), CodeSpec("c2", 2, 1),
                                  CodeSpec("c1", 3), CodeSpec("c2", 3, 1)])
def test_distribution_invariant_under_poly_choice(spec):
    default = Field(spec.m)
    alt = Field(spec.m, ALT_POLYS[spec.m])
    assert default.poly != alt.poly
    assert weight_distribution(spec, default) == weight_distribution(spec, alt)
    assert cyclic_weight_distribution(spec, default) == cyclic_weight_distribution(spec, alt)


def test_designs_invariant_under_poly_choice():
    spec = CodeSpec("c1", 2)
    default = Field(4)
    alt = Field(4, ALT_POLYS[4])
    for t in (2, 3):
        got_default = {(r.k, r.lam, r.verified) for r in full_design_report(spec, default, t=t)}
        got_alt = {(r.k, r.lam, r.verified) for r in full_design_report(spec, alt, t=t)}
        assert got_default == got_alt


M6_SPECS = [CodeSpec("c1", 3), CodeSpec("c2", 3, 1), CodeSpec("c2", 3, 2)]


def _is_primitive(poly: int, m: int) -> bool:
    try:
        Field(m, poly)
    except NonPrimitivePolynomial:
        return False
    return True


# every primitive degree-6 polynomial but the built-in one
ALT_POLYS_M6 = [p for p in range(0x41, 0x80, 2) if p != Field(6).poly and _is_primitive(p, 6)]


@cache
def _design_params(spec: CodeSpec, poly: int | None) -> frozenset:
    reports = full_design_report(spec, Field(spec.m, poly), threads=2)
    return frozenset((r.k, r.lam, r.verified) for r in reports)


@settings(max_examples=3, deadline=None)
@given(st.sampled_from(ALT_POLYS_M6))
def test_lambdas_invariant_under_poly_choice_m6(poly):
    for spec in M6_SPECS:
        assert _design_params(spec, poly) == _design_params(spec, None)
