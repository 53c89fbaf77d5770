"""The bridge between defining sets, codes, and Boolean functions.

A defining set D = (d_1, ..., d_n) over GF(2^m) generates the code

    C_D = { (Tr(x*d_1), ..., Tr(x*d_n)) : x in GF(2^m) },

every binary linear code arises this way (extraction through a dual basis
inverts the construction column-for-column), and when D is the support of a
Boolean function f the weight of the codeword c_x is (2*n_f + W_f(x)) / 4.
That identity turns a single Walsh transform into the full weight
distribution; this module implements both directions plus the split of a
degree-2h field into two GF(2^h) coordinates (the bivariate view).

A defining set is one read-only uint32 array of its n elements
(``DefiningSet.array``), which it owns.  Building a code gathers the trace
coordinates of that array and extraction produces such an array, so build,
extract and rebuild never convert the elements to Python ints; the tuple
``DefiningSet.values`` is built only when read.  ``extract_defining_set``
stops after its self-check.  ``extract_with_function`` also yields f: one
scatter of the extracted elements into a 2^k-entry table decides
projectivity (no 0, no repeat) and, for a projective code, is f's truth
table.  Extraction keeps one value per column and is injective on columns,
so the extracted array is also the key array from which
``linear_code.column_defect`` names a non-projective code's first bad column.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import bitmat
from .boolfun import BooleanFunction
from .gf2 import Field, as_field, field as get_field, is_hex
from .linear_code import BinaryCode


class NotProjectiveError(ValueError):
    """Raised when a construction requires a projective code but got one with
    a zero or repeated generator column."""

    @classmethod
    def of(cls, defect: str) -> "NotProjectiveError":
        """The error for a non-projective code, from the text that names its
        first bad column (``linear_code.column_defect``)."""
        return cls(f"cannot attach a Boolean function: {defect}")


class DefiningSet:
    """An ordered (multi)set of GF(2^m) elements; order fixes the column order
    of the generated code.

    The elements are one read-only uint32 array, ``array``, which the set
    owns: an input array is copied, never aliased.  Every input is read by
    ``bitmat.integers``, a list or tuple of ints below 2^32 in one C pass, and
    checked with one max, and one min unless it is unsigned.  ``values`` is
    the same sequence as a tuple of Python ints, built on first read."""

    def __init__(self, field, elements):
        self.field = as_field(field)
        order = self.field.order
        ints = bitmat.integers(elements, "element")
        if not len(ints):
            raise ValueError("defining set must contain at least one element")
        # unsigned input, a list read by bitmat.integers among it, needs one max
        if ints.max() >= order or (ints.dtype.kind != "u" and ints.min() < 0):
            outside = (ints < 0) | (ints >= order)
            raise ValueError(f"element {int(ints[np.argmax(outside)])} "
                             f"outside GF(2^{self.field.m})")
        self.array = np.array(ints, dtype=np.uint32)
        self.array.setflags(write=False)

    @staticmethod
    def from_support(field, support) -> "DefiningSet":
        """Canonical defining set of a support: ascending integer order."""
        return DefiningSet(field, np.sort(bitmat.integers(support, "element")))

    @cached_property
    def values(self) -> tuple[int, ...]:
        return tuple(self.array.tolist())

    @property
    def n(self) -> int:
        return self.array.size

    @property
    def is_multiset(self) -> bool:
        s = np.sort(self.array)
        return bool((s[1:] == s[:-1]).any())

    def __eq__(self, other):
        return (isinstance(other, DefiningSet) and self.field == other.field
                and np.array_equal(self.array, other.array))

    def __hash__(self):
        return hash((self.field, self.array.tobytes()))

    def __repr__(self):
        return f"DefiningSet(m={self.field.m}, n={self.n})"

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {**self.field.to_json_dict(),
                "elements": [format(v, "x") for v in self.array.tolist()]}

    @staticmethod
    def from_json_dict(d: dict) -> "DefiningSet":
        if not isinstance(d, dict):
            raise ValueError(f"a defining set must be an object with m, a hex-string "
                             f"modulus and elements as a list of hex strings, "
                             f"got {type(d).__name__}")
        elements = d["elements"]
        if not isinstance(elements, list):
            raise ValueError(f"elements must be a list of hex strings, got {elements!r}")
        for e in elements:
            if not is_hex(e):
                raise ValueError(f"elements must be a list of hex strings, got element {e!r}")
        return DefiningSet(Field.from_json_dict(d), [int(e, 16) for e in elements])


def code_from_defining_set(ds: DefiningSet) -> BinaryCode:
    """The code whose rows are r_i[j] = Tr(alpha^i * d_j); rank may be < m.
    Column j is the trace-coordinate word of d_j, a GF(2)-linear map of d_j:
    O(n) numpy work plus the m-row ``rref`` of the code."""
    f = ds.field
    cols = bitmat.linear_map(f.trace_form_rows, ds.array)
    return BinaryCode(bitmat.rows_of(cols, f.m), ds.n)


def codeword_weight(ds: DefiningSet, x) -> int:
    """Hamming weight of c_x by direct coordinate counting (oracle path); x
    must be an m-bit word."""
    f = ds.field
    x = f.element(x)
    return sum(f.trace(f.mul(x, v)) for v in ds.array.tolist())


def extract_defining_set(code: BinaryCode, field: Field | None = None,
                         basis=None) -> DefiningSet:
    """Invert the construction: read d_j = sum_i G[i][j] * beta_i off the
    echelon generator G, beta the dual of the chosen basis of GF(2^k): k
    words, the polynomial basis by default.

    The resulting defining set keeps the code's column order, so rebuilding
    reproduces the code coordinate-for-coordinate.  The extraction and its
    self-check, which rebuilds every entry G[i][j] = Tr(b_i * d_j), are two
    GF(2)-linear maps on the column words of G: O(n) numpy work on top of the
    k-row ``rref`` the code already holds.  The check sends alpha^l to the
    bits Tr(b_i * alpha^l) = parity(b_i & T*alpha^l): the trace-form rows
    themselves for the polynomial basis.  It compares the rebuilt column words
    with those of G, which is as strict as comparing rows.
    """
    if code.k == 0:
        raise ValueError("the zero code has no defining set")
    fld = field if field is not None else get_field(code.k)
    if fld.m != code.k:
        raise ValueError(f"extraction field must have degree k={code.k}, got m={fld.m}")
    if basis is None:
        beta, check = fld.dual_polynomial_basis, fld.trace_form_rows
    else:
        basis = [fld.element(w) for w in basis]
        beta = fld.dual_basis(basis)
        check = bitmat.linear_map(bitmat.columns(basis, fld.m), fld.trace_form_rows)
    _, gen = code.rref()
    cols = bitmat.columns(gen, code.n)
    vals = bitmat.linear_map(beta, cols)
    if not np.array_equal(bitmat.linear_map(check, vals), cols):
        raise AssertionError("extraction failed to reproduce the generator row")
    return DefiningSet(fld, vals)


def extract_with_function(code: BinaryCode, field: Field | None = None, basis=None
                          ) -> tuple[DefiningSet, BooleanFunction | None]:
    """The defining set of ``extract_defining_set`` and, when the code is
    projective, the Boolean function f whose support it is (None otherwise).

    Both come from one uint8 scatter of the n extracted values d_j into a
    table of 2^k entries.  Extraction is injective on columns: the map
    G[:, j] -> d_j is GF(2)-linear and the self-check rebuilds every column
    from its value.  So a zero column gives d_j = 0 and two equal columns give
    equal values, and the code is projective exactly when the table has no 1
    at 0 and n ones in all; the table is then f.  For the same reason
    ``linear_code.column_defect(ds.array)`` names the same bad column as
    ``BinaryCode.projectivity_defect``, with no second read of the columns.
    """
    ds = extract_defining_set(code, field, basis)
    table = np.zeros(ds.field.order, dtype=np.uint8)
    table[ds.array] = 1
    if table[0] or np.count_nonzero(table) != ds.n:
        return ds, None
    return ds, BooleanFunction(ds.field, table)


def boolean_from_code(code: BinaryCode, field: Field | None = None,
                      basis=None) -> BooleanFunction:
    """The characteristic function of the extracted defining set (the code
    must be projective so that the set has distinct nonzero elements).

    Projectivity is read first, off ``BinaryCode.projectivity_defect``, so it
    is settled before any error of the extraction itself (a rank above the
    field cap, a field or basis that does not fit): a non-projective code
    raises ``NotProjectiveError`` and the zero code the ValueError of
    ``projectivity_defect``.  A projective code's f is then the extraction's."""
    defect = code.projectivity_defect()  # the zero code raises here
    if defect != "code is projective":
        raise NotProjectiveError.of(defect)
    return extract_with_function(code, field, basis)[1]


@dataclass(frozen=True)
class SpectralWeightReport:
    """Weight distribution of C_{D_f} read off the Walsh spectrum of f.

    e counts the zero-weight multiplicity 1 + |{w != 0 : weight(w) = 0}|; the
    code has dimension m - log2(e) and each listed weight occurs with the
    listed frequency (raw multiplicity divided by e).
    """

    n_f: int
    e: int
    dimension: int
    weights: dict[int, int]


_SIGN_AND_LOW_BITS = np.int64(-(1 << 63) | 3)


def spectral_weight_distribution(f: BooleanFunction) -> SpectralWeightReport:
    """Weight distribution of the code of f's support, from one Walsh transform.

    The weight of c_w is t/4 with t = 2*n_f + W_f(w), so each distinct
    coefficient gives one weight, and its count (less the one at w = 0, where
    W_f(0) = 2^m - 2*n_f) is that weight's raw multiplicity; the x = 0
    codeword adds one to weight 0.  The cost is the transform and its one
    count; everything after runs on the distinct coefficients (a few to a few
    hundred), with these consistency checks, each raising ValueError:

    - every t is a nonnegative multiple of 4 (the first offending w, in trace
      order, is named);
    - the zero-weight multiplicity e is a power of two;
    - every raw multiplicity is divisible by e;
    - the frequencies sum to 2^dimension, which also rejects a spectrum whose
      length is not 2^m.

    Weights and frequencies are plain ints, listed in ascending weight order.
    """
    n_f = f.weight()
    if n_f == 0:
        raise ValueError("the zero function has an empty support and no code")
    spec = f.walsh_transform()
    m = f.m
    counts = spec.counts.copy()
    counts[spec.distinct.searchsorted(f.field.order - 2 * n_f)] -= 1  # w = 0
    present = counts != 0
    t = spec.distinct[present] + 2 * n_f
    # some t is negative or not a multiple of 4 iff the or of all of them has
    # the sign bit or one of the two low bits set
    if np.bitwise_or.reduce(t) & _SIGN_AND_LOW_BITS:
        t = spec.values[1:] + 2 * n_f
        w = int(np.flatnonzero(t & _SIGN_AND_LOW_BITS)[0]) + 1
        raise ValueError(
            f"spectral weight (2*{n_f} + {spec[w]})/4 at w={w} is not a "
            f"nonnegative integer; the weight identity has been violated")
    # distinct coefficients give distinct weights t/4 >= 0, ascending after
    # weight 0, which the x = 0 codeword always has
    weights = {0: 0}
    weights.update(zip((t >> 2).tolist(), counts[present].tolist()))
    weights[0] += 1
    e = weights[0]
    if e & (e - 1):
        raise ValueError(f"zero-weight multiplicity e={e} is not a power of two")
    if e > 1:
        for w, c in weights.items():
            if c % e:
                raise ValueError(
                    f"multiplicity {c} of weight {w} is not divisible by e={e}; "
                    f"frequencies would not be integral")
        weights = {w: c // e for w, c in weights.items()}
    dimension = m - e.bit_length() + 1
    if sum(weights.values()) != 1 << dimension:
        raise ValueError("spectral frequencies do not sum to 2^dimension")
    return SpectralWeightReport(n_f=n_f, e=e, dimension=dimension, weights=weights)


def verify_spectral_distribution(f: BooleanFunction) -> bool:
    """True iff the spectral distribution matches brute-force enumeration of
    the code generated by f's support."""
    report = spectral_weight_distribution(f)
    code = code_from_defining_set(DefiningSet.from_support(f.field, np.flatnonzero(f.table)))
    return report.weights == code.weight_distribution() and report.dimension == code.k


def bivariate_view(ds: DefiningSet, h: int):
    """Split GF(2^(2h)) as GF(2^h)^2: map each d to the pair
    (d1, d2) = (T(d), T(d*alpha)), T the relative trace onto GF(2^h), which
    are the coordinates of d over the T-dual pair of {1, alpha}, and rebuild
    the code from the pairs E = [(d1, d2)] of GF(2^h) words.  Returns (E, C_E)
    with C_E equal to the code of the original defining set.  Each side
    d -> T(d*c), c in {1, alpha}, is GF(2)-linear in d: one
    ``bitmat.linear_map`` over D.
    """
    big = ds.field
    if big.m != 2 * h:
        raise ValueError(f"bivariate view needs m = 2h, got m={big.m}, h={h}")
    emb = big.subfield(h)
    sides = [bitmat.linear_map([emb.down(big.relative_trace_raw(big.mul(c, 1 << i), h))
                                for i in range(big.m)], ds.array)
             for c in (1, big.alpha)]
    pairs = list(zip(*(side.tolist() for side in sides)))

    # generator rows of C_E: x runs over the GF(2)-basis of GF(2^h)^2, so each
    # coordinate contributes the rows of its own code over GF(2^h)
    rows = [r for side in sides
            for r in code_from_defining_set(DefiningSet(emb.small, side)).rows]
    code = BinaryCode(rows, ds.n)
    if code != code_from_defining_set(ds):
        raise AssertionError("bivariate code disagrees with the direct construction")
    return pairs, code
