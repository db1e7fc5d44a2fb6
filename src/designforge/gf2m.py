"""Arithmetic in GF(2^m) for even m.

Field elements are plain ints: bit k of the int is the coefficient of
alpha^k in the polynomial basis {1, alpha, ..., alpha^(m-1)}, where alpha
is the root of the primitive polynomial.  Addition is XOR; multiplication
goes through precomputed log/antilog tables (q <= 65536, so the tables are
cheap and enumeration-heavy callers get O(1) multiply).

A field always has m = 2s, and carries the trace to GF(2), the index-2
subfield GF(2^s), and the trace from that subfield down to GF(2).

The coordinate order used by all code constructions is fixed here:
index 0 is the zero element, index i >= 1 is alpha^(i-1).
"""

from __future__ import annotations

import numpy as np

from .checks import require
# Default primitive polynomials, LSB = constant term: for each m the least
# primitive polynomial of that degree.
#   m=4:  x^4+x+1            m=6:  x^6+x+1       m=8: x^8+x^4+x^3+x^2+1
#   m=10: x^10+x^3+1          m=12: x^12+x^6+x^4+x+1
#   m=14: x^14+x^5+x^3+x+1    m=16: x^16+x^5+x^3+x^2+1
DEFAULT_PRIMITIVE_POLYS = {
    4: 0x13,
    6: 0x43,
    8: 0x11D,
    10: 0x409,
    12: 0x1053,
    14: 0x402B,
    16: 0x1002D,
}


class UnsupportedM(ValueError):
    """m is odd or out of the supported 4..16 range."""


class NonPrimitivePolynomial(ValueError):
    """Supplied polynomial is not primitive of the right degree."""


class NotInSubfield(ValueError):
    """Element is not in the index-2 subfield GF(2^s)."""


class IndexOutOfRange(IndexError):
    """Element index outside [0, q-1]."""


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _conjugate_sum(square: np.ndarray, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """x + x^2 + ... + x^(2^(steps-1)) and x^(2^steps), for every element x."""
    total = np.zeros_like(square)
    y = np.arange(len(square), dtype=square.dtype)
    for _ in range(steps):
        total ^= y
        y = square[y]
    return total, y


class Field:
    """GF(2^m) with a fixed primitive element, m = 2s even.

    Every table is a read-only numpy array indexed by element value:
    exp_np (alpha^i for 0 <= i < 2n), log_np, trace_np (trace to GF(2)),
    in_subfield_np (1 on GF(2^s)) and sub_trace_np (trace from GF(2^s) to
    GF(2), 0 off the subfield), and power_table(e), built on first use.
    The scalar methods return Python ints.

    Attributes:
        m, s: extension degrees (m = 2s)
        q, n: field size 2^m and multiplicative order q-1
        poly: primitive polynomial as an int, bit k = coeff of x^k
    """

    def __init__(self, m: int, poly: int | None = None):
        if m % 2 != 0 or not 4 <= m <= 16:
            raise UnsupportedM(f"m must be even with 4 <= m <= 16, got {m}")
        if poly is None:
            poly = DEFAULT_PRIMITIVE_POLYS[m]
        if poly < 0:
            raise NonPrimitivePolynomial(f"polynomial {poly:#x} is negative")
        if poly.bit_length() - 1 != m:
            raise NonPrimitivePolynomial(f"polynomial {poly:#x} has degree {poly.bit_length() - 1}, need {m}")
        if not poly & 1:
            raise NonPrimitivePolynomial(f"polynomial {poly:#x} has zero constant term (x divides it)")

        self.m = m
        self.s = m // 2
        self.q = 1 << m
        self.n = self.q - 1
        self.poly = poly

        # log/antilog tables; building them doubles as the primitivity check:
        # x must return to 1 first after exactly n multiplications.
        exp = [0] * self.n
        log = [0] * self.q
        x = 1
        for i in range(self.n):
            if x == 1 and i > 0:
                raise NonPrimitivePolynomial(f"root of {poly:#x} has order {i} < {self.n}")
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & self.q:
                x ^= poly
        if x != 1:
            raise NonPrimitivePolynomial(f"{poly:#x} is not primitive")
        self.exp_np = _read_only(np.array(exp + exp, dtype=np.int64))
        self.log_np = _read_only(np.array(log, dtype=np.int64))

        # Traces are sums of Frobenius conjugates, taken over all q elements
        # at once: tr(x) = x + x^2 + ... + x^(2^(m-1)) to GF(2), and the same
        # sum of s terms from the index-2 subfield GF(2^s) = {x : x^(2^s) = x}.
        square = np.zeros(self.q, dtype=np.int64)
        square[1:] = self.exp_np[2 * self.log_np[1:] % self.n]
        trace, _ = _conjugate_sum(square, m)
        require(bool((trace <= 1).all()), "trace did not land in GF(2)")
        sub_trace, frobenius_s = _conjugate_sum(square, self.s)
        in_sub = frobenius_s == np.arange(self.q)
        require(bool((sub_trace[in_sub] <= 1).all()), "subfield trace did not land in GF(2)")
        self.trace_np = _read_only(trace.astype(np.uint8))
        self.in_subfield_np = _read_only(in_sub.astype(np.uint8))
        self.sub_trace_np = _read_only(np.where(in_sub, sub_trace, 0).astype(np.uint8))
        self._powers: dict[int, np.ndarray] = {}  # power_table by exponent

    # -- arithmetic --------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self.exp_np[self.log_np[a] + self.log_np[b]])

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            return 0 if e else 1
        # a Python int product: log * e can overflow int64 for large e
        return int(self.exp_np[int(self.log_np[a]) * e % self.n])

    def alpha_pow(self, i: int) -> int:
        """alpha^i for any integer i."""
        return int(self.exp_np[i % self.n])

    # -- traces and subfield -----------------------------------------------

    def trace(self, x: int) -> int:
        """Trace from GF(2^m) onto GF(2)."""
        return int(self.trace_np[x])

    def in_subfield(self, x: int) -> bool:
        """True iff x lies in the index-2 subfield GF(2^s)."""
        return bool(self.in_subfield_np[x])

    def subfield_trace(self, x: int) -> int:
        """Trace from GF(2^s) onto GF(2), defined on subfield elements only."""
        if not self.in_subfield_np[x]:
            raise NotInSubfield(f"element {x:#x} is not in GF(2^{self.s})")
        return int(self.sub_trace_np[x])

    def subfield_elements(self) -> list[int]:
        return np.flatnonzero(self.in_subfield_np).tolist()

    # -- coordinate order ---------------------------------------------------

    def element(self, i: int) -> int:
        """Element at coordinate i: 0 -> zero, i >= 1 -> alpha^(i-1)."""
        if not 0 <= i <= self.n:
            raise IndexOutOfRange(f"index {i} outside [0, {self.n}]")
        return 0 if i == 0 else int(self.exp_np[i - 1])

    def index(self, x: int) -> int:
        """Inverse of element(): coordinate of a field element."""
        if not 0 <= x < self.q:
            raise IndexOutOfRange(f"value {x} is not a field element")
        return 0 if x == 0 else int(self.log_np[x]) + 1

    def elements_in_order(self) -> np.ndarray:
        """All q elements in coordinate order [0, 1, alpha, alpha^2, ...]."""
        return self.power_table(1)

    def power_table(self, e: int) -> np.ndarray:
        """x^e for every x in coordinate order (0^e = 0 for e >= 1).

        Built once per exponent and field, then the same read-only array
        is returned: a basis of 3m words reads one table per trace term.
        """
        table = self._powers.get(e)
        if table is None:
            table = np.empty(self.q, dtype=np.int64)
            table[0] = 0
            table[1:] = self.exp_np[(np.arange(self.n, dtype=np.int64) * e) % self.n]
            table = self._powers.setdefault(e, _read_only(table))
        return table

    def scalar_mul_vec(self, a: int, xs: np.ndarray) -> np.ndarray:
        """a * x elementwise for a vector of field elements."""
        if a == 0:
            return np.zeros_like(xs)
        out = np.zeros_like(xs)
        nz = xs != 0
        out[nz] = self.exp_np[(self.log_np[a] + self.log_np[xs[nz]]) % self.n]
        return out

    def __repr__(self):
        return f"Field(m={self.m}, poly={self.poly:#x})"
