"""Boolean functions on GF(2^m) and their Walsh spectra.

The Walsh coefficient used throughout pairs points through the field trace,

    W_f(w) = sum over x of (-1)^(f(x) + Tr(w*x)),

which matches the coordinate-free convention the code constructions need.
Since Tr(w*x) equals the dot product w.(T*x) for the trace bilinear form T,
which is symmetric and invertible, substituting y = T*x gives
W_f(w) = sum over y of (-1)^(f(T^-1 y) + w.y): the spectrum is the plain
Walsh--Hadamard transform over GF(2)^m of the truth table read in the order
y -> T^-1 y, the inverse of ``bitmat.span(field.trace_form_rows)``, built
once per field.  The transform uses the Kronecker factorisation
H_{2^m} = H_{2^w_1} (x) ... (x) H_{2^w_r} into r = ceil(m/5) near-equal
digits of at most 5 bits, one BLAS product per digit, for
2^m * sum(2^w_i) * 2 flops: 5 + 5 + 4 bits and 2.6 MFLOP at m = 14, a third
of the 8.4 MFLOP of two 7-bit digits.  The cap comes from a sweep of caps
3..8 at m = 1..24 (``BENCH_11.json``).
``walsh_transform`` runs it in float32: every partial sum is an integer of
magnitude at most 2^m <= 2^20 < 2^24, so the result is the exact integer
spectrum whatever the BLAS summation order or thread count.  The same
identity, Tr(a*x) = parity(x & T*a), gives the truth tables of
``trace_component`` and ``bent_function`` as array passes.
"""

from __future__ import annotations

import functools

import numpy as np

from . import bitmat
from .gf2 import Field, field as get_field, is_hex


def _as_field(f) -> Field:
    return f if isinstance(f, Field) else get_field(int(f))


_DIGIT_BITS = 5


@functools.cache
def _hadamard(dtype) -> np.ndarray:
    """The 32 x 32 Sylvester Hadamard matrix in ``dtype``, built on first
    use; its top-left 2^w x 2^w block is H_{2^w}, the factor for one digit
    of w <= 5 bits (the cap measured in ``BENCH_11.json``)."""
    h = np.ones((1, 1), dtype=dtype)
    for _ in range(_DIGIT_BITS):
        h = np.block([[h, h], [h, -h]])
    h.setflags(write=False)
    return h


def _fwht(a: np.ndarray) -> np.ndarray:
    """In-place Walsh--Hadamard transform over GF(2)^m (dot-product pairing)
    of a float32 or float64 vector of length 2^m; returns a.

    Bit positions are split into r = ceil(m/5) digits of near-equal width, and
    each digit is one product with H_{2^w} in a's dtype on its axis of the
    reshaped vector, written alternately into a and one scratch vector.  That
    is 2^m * sum(2^w_i) * 2 flops.  In the sweep in ``BENCH_11.json`` a cap of
    5 bits was the fastest, or within 10 % of it, at m = 13, 14 and 16..20 on
    one and on two BLAS threads; at m = 15 its 5 + 5 + 5 split, which caps 6
    and 7 share, took 1.5-1.9x cap 4's 4 + 4 + 4 + 3.  Exact for
    integer inputs while 2^m * max|a| stays at most 2^24 in float32 and 2^53
    in float64.
    """
    m = a.size.bit_length() - 1
    r = -(-m // _DIGIT_BITS)
    src, dst = a, np.empty_like(a)
    lo = 0
    for i in range(r):
        w = m // r + (i < m % r)
        h = _hadamard(a.dtype)[:1 << w, :1 << w]
        if lo == 0:
            np.matmul(src.reshape(-1, 1 << w), h, out=dst.reshape(-1, 1 << w))
        else:
            shape = (-1, 1 << w, 1 << lo)
            np.matmul(h, src.reshape(shape), out=dst.reshape(shape))
        src, dst = dst, src
        lo += w
    if src is not a:
        a[:] = src
    return a


@functools.lru_cache(maxsize=16)
def _walsh_input_order(field: Field) -> np.ndarray:
    """The index array y -> T^-1 y, the inverse of the permutation
    ``bitmat.span(field.trace_form_rows)``, as intp (a narrower index is
    converted on every gather).  Built on a field's first transform."""
    order = np.empty(field.order, dtype=np.intp)
    order[bitmat.span(field.trace_form_rows)] = np.arange(field.order)
    order.setflags(write=False)
    return order


# The in-word steps of the Moebius butterfly on uint64 words: spans 1..32 and,
# for each, the bit positions that have the span's bit set.  np.uint64
# constants keep the shifts and masks in uint64 under numpy 1.x promotion.
_SPANS = tuple(np.uint64(1 << s) for s in range(6))
_SPAN_MASKS = tuple(np.uint64(sum(1 << b for b in range(64) if b >> s & 1)) for s in range(6))
# per byte value: the weight of its index, and the largest weight among the
# indices 0..7 of its set bits, -128 (below any sum of weights) for no bit
_BYTE_WEIGHT = np.array([b.bit_count() for b in range(256)], dtype=np.int8)
_TOP_WEIGHT = np.array([-128] + [max(i.bit_count() for i in range(8) if b >> i & 1)
                                 for b in range(1, 256)], dtype=np.int8)


class BooleanFunction:
    """A function GF(2^m) -> GF(2), stored as a truth table indexed by word value."""

    def __init__(self, field, values):
        self.field = _as_field(field)
        table = np.asarray(list(values) if not isinstance(values, np.ndarray) else values)
        if table.shape != (self.field.order,):
            raise ValueError(
                f"truth table must have 2^{self.field.m} = {self.field.order} entries, "
                f"got {table.size}")
        # uint8 input needs one max reduction; others are compared with 0 and
        # 1 before the cast, which would wrap -1 and 256 and truncate 0.5
        if not (table.max(initial=0) <= 1 if table.dtype == np.uint8
                else np.all((table == 0) | (table == 1))):
            raise ValueError("truth table entries must be 0 or 1")
        self.table = table.astype(np.uint8)
        self.table.setflags(write=False)
        self._spectrum = None

    @property
    def m(self) -> int:
        return self.field.m

    @staticmethod
    def from_support(field, support) -> "BooleanFunction":
        """The characteristic function of a set of field elements (no duplicates).

        The first offending point in iteration order is named: one outside
        the field, or one that repeats an earlier point.
        """
        field = _as_field(field)
        points = np.asarray([int(v) for v in support])
        outside = (points < 0) | (points >= field.order)
        stop = int(np.argmax(outside)) if outside.any() else points.size
        inside = points[:stop].astype(np.int64)
        counts = np.bincount(inside, minlength=field.order)
        if counts.max() > 1:
            repeat = np.ones(stop, dtype=bool)
            repeat[np.unique(inside, return_index=True)[1]] = False
            v = int(inside[np.argmax(repeat)])
            raise ValueError(f"duplicate support point {v}; supports are sets")
        if stop < points.size:
            raise ValueError(f"support point {int(points[stop])} outside GF(2^{field.m})")
        return BooleanFunction(field, counts.astype(np.uint8))

    def support(self):
        """The set {x : f(x) = 1} as FieldElements in ascending order."""
        return [self.field.element(int(v)) for v in np.flatnonzero(self.table)]

    def support_values(self) -> list[int]:
        return [int(v) for v in np.flatnonzero(self.table)]

    def weight(self) -> int:
        return int(np.count_nonzero(self.table))

    def __call__(self, x: int) -> int:
        return int(self.table[x])

    def __eq__(self, other):
        return (isinstance(other, BooleanFunction)
                and self.field == other.field
                and bool((self.table == other.table).all()))

    def __hash__(self):
        return hash((self.field, self.table.tobytes()))

    def __repr__(self):
        return f"BooleanFunction(m={self.m}, weight={self.weight()})"

    # -- serialization: bit i of the hex value is f(i) -------------------------

    def to_hex(self) -> str:
        v = int.from_bytes(np.packbits(self.table, bitorder="little").tobytes(), "little")
        return format(v, f"0{max(1, self.field.order // 4)}x")

    @staticmethod
    def from_hex(field, s: str) -> "BooleanFunction":
        field = _as_field(field)
        width = max(1, field.order // 4)
        if len(s) != width:
            raise ValueError(f"expected {width} hex digits for m={field.m}, got {len(s)}")
        if not is_hex(s):  # int(s, 16) alone accepts a sign, 0x, _ and white space
            raise ValueError(f"expected {width} hex digits 0-9a-fA-F for m={field.m}, got {s!r}")
        v = int(s, 16)
        if v >> field.order:
            raise ValueError("hex truth table has bits beyond 2^m")
        data = np.frombuffer(v.to_bytes(max(1, field.order // 8), "little"), dtype=np.uint8)
        return BooleanFunction(field, np.unpackbits(data, bitorder="little")[:field.order])

    # -- Walsh spectrum ---------------------------------------------------------

    def walsh_transform(self) -> "WalshSpectrum":
        """Fast transform: the truth table read in the order y -> T^-1 y, its
        signs (-1)^f in float32, then the Kronecker-factored Walsh--Hadamard
        transform as one BLAS product per digit of at most 5 bits (three at
        m = 14, 2^m * sum(2^w_i) * 2 = 2.6 MFLOP).  Exact because every
        partial sum is an integer of magnitude at most 2^m <= 2^20 < 2^24."""
        if self._spectrum is None:
            reindexed = self.table[_walsh_input_order(self.field)].view(np.int8)
            signs = (1 - 2 * reindexed).astype(np.float32)
            self._spectrum = WalshSpectrum(self, _fwht(signs))
        return self._spectrum

    # -- algebraic normal form ---------------------------------------------------

    def _moebius(self) -> np.ndarray:
        """ANF coefficients as packed words: bit b of uint64 word i is the
        coefficient of the monomial whose variables are the set bits of
        64*i + b (the truth table packed little-endian, zero-padded to one
        word for m < 6).  The butterfly's steps of span 1..32 run inside each
        word as w ^= (w << span) & mask, the mask holding the bit positions
        with that span's bit set; the steps of span 64 and up xor whole words."""
        packed = np.packbits(self.table, bitorder="little")
        if packed.size < 8:
            words = np.zeros(1, dtype="<u8")
            words.view(np.uint8)[:packed.size] = packed
        else:
            words = packed.view("<u8")
        t = np.empty_like(words)
        for shift, mask in zip(_SPANS[:self.m], _SPAN_MASKS):
            np.left_shift(words, shift, out=t)
            t &= mask
            words ^= t
        h = 1
        while h < words.size:
            v = words.reshape(-1, 2 * h)
            v[:, h:] ^= v[:, :h]
            h *= 2
        return words

    def anf(self) -> "Anf":
        bits = np.unpackbits(self._moebius().view(np.uint8), bitorder="little")
        return Anf(self.field, frozenset(np.flatnonzero(bits[:self.field.order]).tolist()))

    def algebraic_degree(self) -> int:
        """Largest weight among the nonzero ANF coefficients' indices, read off
        the packed words without listing monomials.  Byte j of the words holds
        the monomials 8j..8j+7, so its best weight is weight(j) plus
        ``_TOP_WEIGHT`` of the byte; weight(j) is added 8 bits of j at a time,
        each a max over rows of 256 bytes."""
        best = _TOP_WEIGHT[self._moebius().view(np.uint8)]
        while best.size > 256:
            best = (best.reshape(-1, 256) + _BYTE_WEIGHT).max(axis=1)
        return max(int((best + _BYTE_WEIGHT[:best.size]).max()), 0)

    def nonlinearity(self) -> int:
        return self.walsh_transform().nonlinearity()

    def classify(self) -> tuple[str, dict[int, int]]:
        """Most specific of affine / bent / plateaued / balanced / general,
        together with the spectrum histogram."""
        spec = self.walsh_transform()
        hist = spec.histogram()
        absvals = sorted({abs(v) for v in hist})
        nonzero_abs = [v for v in absvals if v]
        q = self.field.order
        if nonzero_abs == [q]:
            return "affine", hist
        if self.m % 2 == 0 and absvals == [1 << (self.m // 2)]:
            return "bent", hist
        if len(nonzero_abs) == 1:
            return "plateaued", hist
        if spec.values[0] == 0:
            return "balanced", hist
        return "general", hist


class WalshSpectrum:
    """All 2^m Walsh coefficients of a Boolean function, with sanity checks; no
    reference back to the function that caches it, so refcounting frees both."""

    def __init__(self, function: BooleanFunction, values: np.ndarray):
        self.field = function.field
        values = np.asarray(values, dtype=np.int64)
        q = self.field.order
        if values.shape != (q,):
            raise ValueError("spectrum must have one coefficient per field element")
        # bounds first: with every |W| <= 2^m <= 2^20 the int64 dot below is
        # at most 2^(3m) and cannot wrap round to q^2
        if values.min() < -q or values.max() > q:
            raise ValueError(f"spectrum coefficient outside [-2^{self.field.m}, 2^{self.field.m}]")
        if int(values @ values) != q * q:
            raise ValueError("spectrum violates the Parseval identity")
        if np.bitwise_or.reduce(values) & 1:
            raise ValueError("spectrum parity is inconsistent with a sign sum")
        if int(values[0]) != q - 2 * function.weight():
            raise ValueError("spectrum at 0 disagrees with the support size")
        self.values = values
        self.values.setflags(write=False)

    def __getitem__(self, w: int) -> int:
        return int(self.values[w])

    def histogram(self) -> dict[int, int]:
        """{coefficient: count} in ascending order, by counting: the
        constructor has proved every coefficient even and in [-2^m, 2^m], so
        (W + 2^m) / 2 is an exact bin index in 0..2^m."""
        q = self.field.order
        bins = self.values + q
        bins >>= 1
        counts = np.bincount(bins)
        nonzero = counts > 0
        return dict(zip((2 * np.flatnonzero(nonzero) - q).tolist(), counts[nonzero].tolist()))

    def max_abs(self) -> int:
        return int(np.abs(self.values).max())

    def nonlinearity(self) -> int:
        return (self.field.order - self.max_abs()) // 2


class Anf:
    """Algebraic normal form: an xor of monomials, each a mask of variables."""

    def __init__(self, field, monomials: frozenset[int]):
        self.field = _as_field(field)
        self.monomials = frozenset(int(x) for x in monomials)
        for x in self.monomials:
            if not 0 <= x < self.field.order:
                raise ValueError(f"monomial mask {x} outside GF(2^{self.field.m})")

    def degree(self) -> int:
        return max((x.bit_count() for x in self.monomials), default=0)

    def evaluate(self, x: int) -> int:
        """Direct evaluation (independent of the butterfly that built the form)."""
        return sum(1 for mask in self.monomials if x & mask == mask) & 1

    def to_function(self) -> BooleanFunction:
        return BooleanFunction(self.field, [self.evaluate(x) for x in range(self.field.order)])

    def __str__(self):
        if not self.monomials:
            return "0"
        terms = []
        for mask in sorted(self.monomials):
            if mask == 0:
                terms.append("1")
            else:
                terms.append("*".join(f"x{i}" for i in range(self.field.m) if (mask >> i) & 1))
        return " + ".join(terms)

    def __eq__(self, other):
        return (isinstance(other, Anf) and self.field == other.field
                and self.monomials == other.monomials)

    def __hash__(self):
        return hash((self.field, self.monomials))


def trace_component(field, a: int) -> BooleanFunction:
    """The component function x -> Tr(a*x) = parity(x & T*a), a linear map
    of x whose image of bit i is bit i of T*a; a must be an m-bit word."""
    field = _as_field(field)
    tc = int(bitmat.linear_map(field.trace_form_rows, [field.element(a).value])[0])
    return BooleanFunction(field, bitmat.span([(tc >> i) & 1 for i in range(field.m)]))


def bent_function(field) -> BooleanFunction:
    """The norm-trace bent function Tr(lambda * x^(2^(m/2)+1)) for even m.

    lambda is the least element with nonzero relative trace onto the half
    field; without the twist the composition is identically zero, because
    x^(2^(m/2)+1) lands in the half field where the absolute trace vanishes.
    """
    field = _as_field(field)
    m = field.m
    if m % 2:
        raise ValueError(f"bent functions need even m, got {m}")
    h = m // 2
    lam = next(v for v in range(1, field.order)
               if field.relative_trace_raw(v, h) != 0)
    # Tr(lambda * x^(2^h) * x) = parity(x & M*x), where M*x = T*(lambda * x^(2^h))
    # is GF(2)-linear in x because the Frobenius map is
    images = bitmat.linear_map(field.trace_form_rows,
                               [field.mul(lam, field.pow(1 << i, 1 << h)) for i in range(m)])
    xs = np.arange(field.order, dtype="<u4")
    xs &= bitmat.span(images.tolist())
    return BooleanFunction(field, bitmat.word_weights(xs.view(np.uint8).reshape(-1, 4).T) & 1)


def random_function(field, rng, balanced: bool = False) -> BooleanFunction:
    """Uniformly random truth table (optionally balanced) from a seeded rng."""
    field = _as_field(field)
    if balanced:
        table = [1] * (field.order // 2) + [0] * (field.order - field.order // 2)
        rng.shuffle(table)
    else:
        table = [rng.getrandbits(1) for _ in range(field.order)]
    return BooleanFunction(field, table)
