"""The unfolded reference of the spectrum tests: one plain sweep of every
word of a span, with no orbit or coset taken."""

from __future__ import annotations

from designforge.codebuild import weight_histogram
from designforge.spectrum import WeightDistribution


def span_distribution(basis: list[int], length: int, threads: int = 1) -> WeightDistribution:
    """Exact distribution of the span of independent rows by one plain sweep
    of every span word.  The sweep takes a basis whose leading rows hold
    distinct columns, such as cyclic_generator_basis."""
    dist = WeightDistribution(weight_histogram(basis, length, threads), length, len(basis))
    dist.validate()
    return dist
