"""Arithmetic in binary extension fields GF(2^m).

Field elements are plain ints, m-bit words: the integer b_{m-1}...b_1 b_0
stands for sum b_i * alpha^i, where alpha is the residue class of x modulo
the field polynomial.  Addition is xor; ``Field.mul``, ``pow`` and ``inv``
do the rest, and ``Field.element`` checks that a value is such a word.  A
basis is a sequence of m words.  Sets of powers of one element are slices of
``Field.exp_table``, the uint32 array of powers of the primitive element,
built once per field by GF(2)-linear maps.

Polynomials over GF(2) are plain ints too, bit i the coefficient of x^i:
``poly_mul``, ``poly_divmod`` and the rest act on them, and ``poly_str``
writes one out.

Also provides the trace machinery this library is built on: absolute and
relative traces and trace-dual bases.  The coordinates of x over a basis are
Tr(x * b_j) for the words b_j of its dual.
"""

from __future__ import annotations

import operator
import re
from functools import cached_property, lru_cache

import numpy as np

from . import bitmat
from .bitmat import _integer

MAX_M = 20

# Least irreducible polynomial of minimal weight for each degree, as a
# bit word (bit i = coefficient of x^i).  Regenerated by the exhaustive
# search in the test suite.
DEFAULT_MODULI = {
    1: 0x2, 2: 0x7, 3: 0xB, 4: 0x13, 5: 0x25, 6: 0x43, 7: 0x83,
    8: 0x11B, 9: 0x203, 10: 0x409, 11: 0x805, 12: 0x1009, 13: 0x201B,
    14: 0x4021, 15: 0x8003, 16: 0x1002B, 17: 0x20009, 18: 0x40009,
    19: 0x80027, 20: 0x100009,
}


# ---------------------------------------------------------------------------
# Polynomials over GF(2) as bit words (bit i = coefficient of x^i).

def poly_degree(p: int) -> int:
    return p.bit_length() - 1


def poly_mul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def poly_str(p: int) -> str:
    """p written out from its leading term down: "x^8 + x^7 + x^6 + x^4 + 1"."""
    terms = [f"x^{i}" if i > 1 else "x" if i else "1"
             for i in range(poly_degree(p), -1, -1) if (p >> i) & 1]
    return " + ".join(terms) or "0"


def poly_divmod(a: int, b: int) -> tuple[int, int]:
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    db = poly_degree(b)
    q = 0
    while a and poly_degree(a) >= db:
        shift = poly_degree(a) - db
        q |= 1 << shift
        a ^= b << shift
    return q, a


def poly_mod(a: int, b: int) -> int:
    return poly_divmod(a, b)[1]


def poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, poly_mod(a, b)
    return a


def _x_to_2e_mod(e: int, p: int) -> int:
    # x^(2^e) mod p by e squarings of x
    r = poly_mod(0b10, p)
    for _ in range(e):
        r = poly_mod(poly_mul(r, r), p)
    return r


def is_irreducible(p: int) -> bool:
    """Irreducibility over GF(2): p has no root in GF(2^d) for any proper
    divisor d of deg(p), and x^(2^deg) == x mod p."""
    deg = poly_degree(p)
    if p < 0 or deg <= 0:
        return False
    if deg == 1:
        return True
    if not (p & 1):
        return False
    if _x_to_2e_mod(deg, p) != poly_mod(0b10, p):
        return False
    for d in range(1, deg):
        if deg % d == 0:
            if poly_gcd(_x_to_2e_mod(d, p) ^ poly_mod(0b10, p), p) != 1:
                return False
    return True


def default_modulus(m: int) -> int:
    if m not in DEFAULT_MODULI:
        raise ValueError(f"extension degree m={m} outside supported range 1..{MAX_M}")
    return DEFAULT_MODULI[m]


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


_HEX_DIGITS = re.compile(r"[0-9a-fA-F]+")


def is_hex(s) -> bool:
    """True for a string of one or more hex digits and nothing else: no sign,
    0x prefix, underscore or white space, all of which int(s, 16) accepts."""
    return isinstance(s, str) and _HEX_DIGITS.fullmatch(s) is not None


# ---------------------------------------------------------------------------
# Field and elements.

class Field:
    """GF(2^m) with a fixed irreducible modulus.  Immutable."""

    def __init__(self, m: int, modulus: int | None = None):
        m = _integer(m, "extension degree m=")
        if not 1 <= m <= MAX_M:
            raise ValueError(f"extension degree m={m} outside supported range 1..{MAX_M}")
        if modulus is None:
            modulus = default_modulus(m)
        modulus = _integer(modulus, "modulus ")
        if modulus < 0:
            raise ValueError(f"modulus {modulus:#x} is negative")
        if poly_degree(modulus) != m:
            raise ValueError(f"modulus {modulus:#x} does not have degree {m}")
        if not is_irreducible(modulus):
            raise ValueError(f"modulus {modulus:#x} is reducible over GF(2)")
        self.m = m
        self.modulus = modulus
        self.order = 1 << m

    def __eq__(self, other):
        return isinstance(other, Field) and (self.m, self.modulus) == (other.m, other.modulus)

    def __hash__(self):
        return hash((self.m, self.modulus))

    def __repr__(self):
        return f"Field(m={self.m}, modulus={self.modulus:#x})"

    # -- element plumbing --------------------------------------------------

    def element(self, value) -> int:
        """value as an int, read through ``operator.index``; a ValueError
        unless it is an integer in 0..2^m - 1."""
        try:
            v = operator.index(value)
        except TypeError:
            raise ValueError(f"value {value!r} is not a word of {self.m} bits") from None
        if not 0 <= v < self.order:
            raise ValueError(f"value {v} is not a word of {self.m} bits")
        return v

    @property
    def alpha(self) -> int:
        # residue class of x; reduces to 0 resp. 1 in the two m=1 fields
        return poly_mod(0b10, self.modulus)

    # -- core arithmetic on raw words ---------------------------------------

    def mul(self, a: int, b: int) -> int:
        """Shift and add: a runs through a * alpha^i, reduced as it
        overflows m bits, and is added for each set bit i of b."""
        m, modulus = self.m, self.modulus
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a >> m:
                a ^= modulus
        return r

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        return self.pow(a, self.order - 2)

    # -- traces ------------------------------------------------------------

    @cached_property
    def _trace_mask(self) -> int:
        # Tr is GF(2)-linear, so trace(v) = parity(v & mask) with
        # mask bit i = Tr(alpha^i), each computed from the defining sum;
        # alpha^i is the word 1 << i for i < m.
        mask = 0
        for i in range(self.m):
            if self.trace_sum_of_squares(1 << i):
                mask |= 1 << i
        return mask

    def trace_sum_of_squares(self, a: int) -> int:
        """Absolute trace straight from its definition: a + a^2 + ... + a^(2^(m-1))."""
        return self.relative_trace_raw(a, 1)

    def trace(self, a: int) -> int:
        return (a & self._trace_mask).bit_count() & 1

    def _subfield_degree(self, h) -> int:
        """h as an int, read through ``operator.index``; a ValueError unless
        it is a positive divisor of m."""
        h = _integer(h, "subfield degree h=")
        if h <= 0 or self.m % h:
            raise ValueError(f"h={h} does not divide m={self.m}")
        return h

    def relative_trace_raw(self, a: int, h: int) -> int:
        """Tr from GF(2^m) onto its subfield GF(2^h), as a word of this field."""
        a, h = self.element(a), self._subfield_degree(h)
        acc = 0
        cur = a
        for _ in range(self.m // h):
            acc ^= cur
            for _ in range(h):
                cur = self.mul(cur, cur)
        return acc

    # -- bilinear form of the trace ------------------------------------------

    @cached_property
    def trace_form_rows(self) -> tuple[int, ...]:
        """Rows of the m x m bit matrix T with T[i][j] = Tr(alpha^i * alpha^j)."""
        tr_pows = []
        cur = 1
        for _ in range(2 * self.m - 1):
            tr_pows.append(self.trace(cur))
            cur = self.mul(cur, self.alpha)
        rows = []
        for i in range(self.m):
            row = 0
            for j in range(self.m):
                row |= tr_pows[i + j] << j
            rows.append(row)
        return tuple(rows)

    # -- multiplicative structure ---------------------------------------------

    @cached_property
    def primitive_element(self) -> int:
        """Least element (by word value) of multiplicative order 2^m - 1."""
        n = self.order - 1
        primes = _prime_factors(n)
        for v in range(1, self.order):
            if all(self.pow(v, n // p) != 1 for p in primes):
                return v
        raise AssertionError("no primitive element found")  # pragma: no cover

    @cached_property
    def exp_table(self) -> np.ndarray:
        """Read-only uint32 array of length 2^m - 1 whose entry i is g^i, g the
        primitive element.  Built by doubling: multiplying by c = g^len is
        GF(2)-linear, so the next len powers are the ones held so far under
        ``bitmat.linear_map`` with images c * alpha^i."""
        g = self.primitive_element
        table = np.ones(1, dtype=np.uint32)
        while len(table) < self.order - 1:
            c = self.mul(int(table[-1]), g)
            images = [self.mul(c, 1 << i) for i in range(self.m)]
            rest = table[:self.order - 1 - len(table)]
            table = np.concatenate([table, bitmat.linear_map(images, rest)])
        table.setflags(write=False)
        return table

    # a per-instance cache of element_of_order, made on first use: a cache on
    # the class would keep every field it saw alive

    @cached_property
    def _elements_of_order(self) -> dict[int, int]:
        return {}

    def element_of_order(self, n: int) -> int:
        """Least element of exact multiplicative order n; n must divide 2^m - 1.
        Those elements are g^((2^m - 1)/n * j) for j < n coprime to n."""
        n = _integer(n, "order n=")
        if n not in self._elements_of_order:
            if n < 1 or (self.order - 1) % n:
                raise ValueError(f"no element of order {n} in GF(2^{self.m})")
            powers = self.exp_table[::(self.order - 1) // n]
            self._elements_of_order[n] = int(powers[np.gcd(np.arange(n), n) == 1].min())
        return self._elements_of_order[n]

    # -- subfields ---------------------------------------------------------

    def subfield(self, h: int) -> "SubfieldEmbedding":
        return SubfieldEmbedding(self, self._subfield_degree(h))

    # -- bases -----------------------------------------------------------------

    @cached_property
    def polynomial_basis(self) -> tuple[int, ...]:
        """{1, alpha, ..., alpha^(m-1)}; word encodings are exactly 1 << i."""
        return tuple(1 << i for i in range(self.m))

    @cached_property
    def dual_polynomial_basis(self) -> tuple[int, ...]:
        return self.dual_basis(self.polynomial_basis)

    def dual_basis(self, words) -> tuple[int, ...]:
        """The words b_j with Tr(a_i * b_j) = delta_ij for the basis a of m
        m-bit words, via the inverse Gram matrix.  A ValueError unless the
        words are m linearly independent elements of this field."""
        m = self.m
        vals = [self.element(w) for w in words]
        if len(vals) != m:
            raise ValueError(f"basis needs {m} elements, got {len(vals)}")
        if len(bitmat.rref(vals, m)[1]) != m:
            raise ValueError("basis elements are linearly dependent over GF(2)")
        # Tr(a_i * a_j) = parity(a_i & T*a_j): gram row i is a_i under the linear
        # map whose image of bit k collects bit k of every T*a_j
        tc = bitmat.linear_map(self.trace_form_rows, vals).tolist()
        gram = bitmat.linear_map(bitmat.columns(tc, m), vals).tolist()
        # the Gram matrix is symmetric, so its inverse is too: row j of the
        # inverse holds the coefficients of b_j over the a_k
        duals = tuple(bitmat.linear_map(vals, bitmat.invert(gram, m)).tolist())
        for i in range(m):
            for j in range(m):
                if self.trace(self.mul(vals[i], duals[j])) != (i == j):
                    raise AssertionError("dual basis failed trace-orthonormality check")
        return duals

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"m": self.m, "modulus": format(self.modulus, "x")}

    @staticmethod
    def from_json_dict(d: dict) -> "Field":
        if not isinstance(d, dict):
            raise ValueError(f"a field must be an object with m and a hex-string "
                             f"modulus, got {type(d).__name__}")
        m = d["m"]
        if type(m) is not int:
            raise ValueError(f"m must be an integer, got {m!r}")
        modulus = d["modulus"]
        if not is_hex(modulus):
            raise ValueError(f"modulus must be a hex string, got {modulus!r}")
        return field(m, int(modulus, 16))


@lru_cache(maxsize=None)
def field(m: int, modulus: int | None = None) -> Field:
    """Interned Field constructor; repeated lookups share lazy caches."""
    return Field(m, modulus)


def as_field(f) -> Field:
    """f itself if it is a Field, else the interned field of degree f.  The
    degree is read through ``operator.index``: Python and numpy integers
    pass, while a float or a string raises a ValueError naming it (``int``
    would truncate 3.7 and read "3" as decimal three)."""
    if isinstance(f, Field):
        return f
    try:
        m = operator.index(f)
    except TypeError:
        raise ValueError(f"field {f!r} is neither a Field nor an integer degree") from None
    return field(m)


class SubfieldEmbedding:
    """Identifies {y in GF(2^m) : y^(2^h) = y} with a standalone GF(2^h).

    The subfield is zero and the group of order 2^h - 1, a strided slice of
    ``exp_table``; the isomorphism sends the least root r (inside the subfield)
    of the default degree-h modulus to the standalone alpha, so words map
    by change of basis {r^i} -> {alpha^i}.
    """

    def __init__(self, big: Field, h: int):
        self.big = big
        self.h = h
        self.small = field(h)
        r = None
        for y in sorted(self._members()):
            if self._eval_small_modulus(y) == 0:
                r = y
                break
        if r is None:  # pragma: no cover - the default modulus always splits
            raise AssertionError("default modulus has no root in subfield")
        self.root = r
        # up[c] = sum over set bits i of c of r^i; bijective on the subfield
        powers = [1]
        for _ in range(h - 1):
            powers.append(big.mul(powers[-1], r))
        vals = bitmat.span(powers).tolist()
        if len(set(vals)) != 1 << h:  # pragma: no cover
            raise AssertionError("powers of subfield root are dependent")
        self._up = vals
        self._down = {v: c for c, v in enumerate(vals)}

    def _members(self) -> list[int]:
        return [0] + self.big.exp_table[::(self.big.order - 1) // ((1 << self.h) - 1)].tolist()

    def _eval_small_modulus(self, y: int) -> int:
        p = self.small.modulus
        acc = 0
        for i in range(poly_degree(p), -1, -1):
            acc = self.big.mul(acc, y) ^ ((p >> i) & 1)
        return acc

    def down(self, v: int) -> int:
        """Map a subfield member of the big field to its standalone word."""
        try:
            return self._down[v]
        except KeyError:
            raise ValueError(f"{v:#x} is not in the embedded GF(2^{self.h})") from None

    def lift(self, c: int) -> int:
        """Map a standalone GF(2^h) word into the big field."""
        return self._up[c]
