"""The bridge between defining sets, codes, and Boolean functions.

A defining set D = (d_1, ..., d_n) over GF(2^m) generates the code

    C_D = { (Tr(x*d_1), ..., Tr(x*d_n)) : x in GF(2^m) },

every binary linear code arises this way (extraction through a dual basis
inverts the construction column-for-column), and when D is the support of a
Boolean function f the weight of the codeword c_x is (2*n_f + W_f(x)) / 4.
That identity turns a single Walsh transform into the full weight
distribution; this module implements both directions plus the split of a
degree-2h field into two GF(2^h) coordinates (the bivariate view).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bitmat
from .boolfun import BooleanFunction
from .gf2 import Field, FieldElement, Basis, field as get_field, is_hex
from .linear_code import BinaryCode


class NotProjectiveError(ValueError):
    """Raised when a construction requires a projective code but got one with
    a zero or repeated generator column."""

    @classmethod
    def of(cls, code: BinaryCode) -> "NotProjectiveError":
        """The error for a non-projective code, naming its first bad column."""
        return cls(f"cannot attach a Boolean function: {code.projectivity_defect()}")


class DefiningSet:
    """An ordered (multi)set of GF(2^m) elements; order fixes the column order
    of the generated code."""

    def __init__(self, field, elements):
        self.field = field if isinstance(field, Field) else get_field(int(field))
        values = tuple(map(int, elements))
        if not values:
            raise ValueError("defining set must contain at least one element")
        if min(values) < 0 or max(values) >= self.field.order:
            v = next(v for v in values if not 0 <= v < self.field.order)
            raise ValueError(f"element {v} outside GF(2^{self.field.m})")
        self.values = values

    @staticmethod
    def from_support(field, support) -> "DefiningSet":
        """Canonical defining set of a support: ascending integer order."""
        return DefiningSet(field, sorted(int(v) for v in support))

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def is_multiset(self) -> bool:
        return len(set(self.values)) < len(self.values)

    def elements(self) -> list[FieldElement]:
        return [self.field.element(v) for v in self.values]

    def __eq__(self, other):
        return (isinstance(other, DefiningSet)
                and self.field == other.field and self.values == other.values)

    def __hash__(self):
        return hash((self.field, self.values))

    def __repr__(self):
        return f"DefiningSet(m={self.field.m}, n={self.n})"

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {**self.field.to_json_dict(), "elements": [format(v, "x") for v in self.values]}

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
    cols = bitmat.linear_map(f.trace_form_rows, ds.values)
    return BinaryCode(bitmat.rows_of(cols, f.m), ds.n)


def codeword_weight(ds: DefiningSet, x) -> int:
    """Hamming weight of c_x by direct coordinate counting (oracle path)."""
    f = ds.field
    x = int(x)
    return sum(f.trace(f.mul(x, v)) for v in ds.values)


def extract_defining_set(code: BinaryCode, field: Field | None = None,
                         basis: Basis | None = None) -> DefiningSet:
    """Invert the construction: read d_j = sum_i G[i][j] * beta_i off the
    echelon generator G, beta the dual of the chosen basis of GF(2^k).

    The resulting defining set keeps the code's column order, so rebuilding
    reproduces the code coordinate-for-coordinate.  The extraction and its
    self-check, which rebuilds every entry G[i][j] = Tr(b_i * d_j), are
    GF(2)-linear maps on the column words of G: O(n) numpy work on top of the
    k-row ``rref`` the code already holds.  The check compares the rebuilt
    column words with those of G, which is as strict as comparing rows.
    """
    if code.k == 0:
        raise ValueError("the zero code has no defining set")
    fld = field if field is not None else get_field(code.k)
    if fld.m != code.k:
        raise ValueError(f"extraction field must have degree k={code.k}, got m={fld.m}")
    if basis is None:
        basis, beta = fld.polynomial_basis(), fld.dual_polynomial_basis
    elif basis.field != fld:
        raise ValueError("basis does not belong to the extraction field")
    else:
        beta = basis.dual()
    _, gen = code.rref()
    cols = bitmat.columns(gen, code.n)
    vals = bitmat.linear_map([b.value for b in beta], cols)
    # Tr(b_i * v) = parity(b_i & tc(v)), tc the trace coordinates: a linear
    # map of tc(v) whose images are the transposed basis words
    coords = bitmat.linear_map(fld.trace_form_rows, vals)
    rebuilt = bitmat.linear_map(bitmat.columns([b.value for b in basis], fld.m), coords)
    if not np.array_equal(rebuilt, cols):
        raise AssertionError("extraction failed to reproduce the generator row")
    return DefiningSet(fld, vals.tolist())


def boolean_from_code(code: BinaryCode, field: Field | None = None,
                      basis: Basis | None = None) -> BooleanFunction:
    """The characteristic function of the extracted defining set (the code
    must be projective so that the set has distinct nonzero elements)."""
    if not code.is_projective():
        raise NotProjectiveError.of(code)
    ds = extract_defining_set(code, field, basis)
    return BooleanFunction.from_support(ds.field, ds.values)


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

    def to_json_dict(self) -> dict:
        return {
            "n_f": self.n_f,
            "e": self.e,
            "dimension": self.dimension,
            "weights": {str(w): c for w, c in sorted(self.weights.items())},
        }


_SIGN_AND_LOW_BITS = np.int64(-(1 << 63) | 3)


def spectral_weight_distribution(f: BooleanFunction) -> SpectralWeightReport:
    """Weight distribution of the code of f's support, from one Walsh transform.

    The cost is one FWHT plus one O(2^m) array pass: t = 2*n_f + W_f(w) for
    every w != 0, then a histogram of t/4 with the x = 0 codeword added to
    weight 0.  The pass keeps these consistency checks, each raising
    ValueError:

    - every t is a nonnegative multiple of 4 (the first offending w is named);
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
    t = spec.values[1:] + 2 * n_f
    # some t is negative or not a multiple of 4 iff the or of all of them has
    # the sign bit or one of the two low bits set
    if np.bitwise_or.reduce(t) & _SIGN_AND_LOW_BITS:
        w = int(np.flatnonzero(t & _SIGN_AND_LOW_BITS)[0]) + 1
        raise ValueError(
            f"spectral weight (2*{n_f} + {spec[w]})/4 at w={w} is not a "
            f"nonnegative integer; the weight identity has been violated")
    t >>= 2
    multiset = np.bincount(t)
    multiset[0] += 1  # the x = 0 codeword
    e = int(multiset[0])
    if e & (e - 1):
        raise ValueError(f"zero-weight multiplicity e={e} is not a power of two")
    present = np.flatnonzero(multiset)
    freqs, rems = np.divmod(multiset[present], e)
    if rems.any():
        w = int(present[np.argmax(rems != 0)])
        raise ValueError(
            f"multiplicity {int(multiset[w])} of weight {w} is not divisible by e={e}; "
            f"frequencies would not be integral")
    weights = dict(zip(present.tolist(), freqs.tolist()))
    dimension = m - e.bit_length() + 1
    if sum(weights.values()) != 1 << dimension:
        raise ValueError("spectral frequencies do not sum to 2^dimension")
    return SpectralWeightReport(n_f=n_f, e=e, dimension=dimension, weights=weights)


def verify_spectral_distribution(f: BooleanFunction) -> bool:
    """True iff the spectral distribution matches brute-force enumeration of
    the code generated by f's support."""
    report = spectral_weight_distribution(f)
    code = code_from_defining_set(DefiningSet.from_support(f.field, f.support_values()))
    return report.weights == code.weight_distribution() and report.dimension == code.k


def bivariate_view(ds: DefiningSet, h: int):
    """Split GF(2^(2h)) as GF(2^h)^2: map each d to the pair
    (d1, d2) = (T(d), T(d*alpha)), T the relative trace onto GF(2^h), which
    are the coordinates of d over the T-dual pair of {1, alpha}, and rebuild
    the code from the pairs E = [(d1, d2)].  Returns (E, C_E) with C_E equal
    to the code of the original defining set.  Each side d -> T(d*c),
    c in {1, alpha}, is GF(2)-linear in d: one ``bitmat.linear_map`` over D.
    """
    big = ds.field
    if big.m != 2 * h:
        raise ValueError(f"bivariate view needs m = 2h, got m={big.m}, h={h}")
    emb = big.subfield(h)
    sides = [bitmat.linear_map([emb.down(big.relative_trace_raw(big.mul(c, 1 << i), h))
                                for i in range(big.m)], ds.values).tolist()
             for c in (1, big.alpha.value)]
    small = emb.small
    pairs = [(small.element(d1), small.element(d2)) for d1, d2 in zip(*sides)]

    # generator rows of C_E: x runs over the GF(2)-basis of GF(2^h)^2, so each
    # coordinate contributes the rows of its own code over GF(2^h)
    rows = [r for side in sides
            for r in code_from_defining_set(DefiningSet(small, side)).rows]
    code = BinaryCode(rows, ds.n)
    if code != code_from_defining_set(ds):
        raise AssertionError("bivariate code disagrees with the direct construction")
    return pairs, code
