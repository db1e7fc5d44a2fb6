"""Bases the sweep takes: its kt leading rows must hold a distinct column
at every coordinate (codebuild._SweepTables), so each batch is one layer."""

from __future__ import annotations

import numpy as np

from designforge import CodeSpec, Field
from designforge.codebuild import bits_to_ints, h0_basis


def one_layer_basis(span: CodeSpec | list[int], over: Field | int) -> list[int]:
    """A one-layer basis of a given span.

    For a CodeSpec and its Field: the H0 basis, which leads with the m
    linear words, then the all-one word; it spans the extended code, as
    generator_basis does.  For a list of rows and a length: the coordinate
    rows of that length, bit x of row j being bit j of x, then the rows.
    """
    if isinstance(span, CodeSpec):
        return h0_basis(span, over) + [(1 << span.length) - 1]
    bits = np.arange(over) >> np.arange((over - 1).bit_length())[:, None] & 1
    return bits_to_ints(bits.astype(np.uint8)) + list(span)
