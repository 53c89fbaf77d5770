"""Parameter tour of the built-in code families."""

from walshcodes import build_from_name
from walshcodes.catalog import bch_generator_polynomial
from walshcodes.gf2 import poly_str

NAMES = [
    "simplex:k=3",
    "simplex:k=5",
    "macdonald:k=3",
    "macdonald:k=4",
    "hamming:m=3",
    "hamming:m=4",
    "rm:l=1,m=3",
    "rm:l=2,m=4",
    "bch:n=15,d=5",
    "bch:n=15,d=7",
    "qr:n=17",
    "golay23",
    "extended_golay24",
    "irrcyclic:m=4,n=3",
    "irrcyclic:m=4,n=5",
]


def main():
    print(f"{'name':<20} {'[n, k, d]':<14} projective  nonzero weights")
    for name in NAMES:
        code = build_from_name(name)
        d = code.minimum_distance()
        dist = code.weight_distribution()
        weights = sorted(w for w in dist if w)
        shown = ", ".join(map(str, weights[:4])) + (", ..." if len(weights) > 4 else "")
        print(f"{name:<20} {f'[{code.n}, {code.k}, {d}]':<14} "
              f"{str(code.is_projective()):<11} {{{shown}}}")

    print("\nnarrow-sense BCH generator for n=15, designed distance 5:")
    print(f"  {poly_str(bch_generator_polynomial(15, 5))}")

    golay = build_from_name("golay23")
    print("\nbinary Golay [23, 12, 7] weight distribution:")
    print(f"  {golay.weight_distribution()}")


if __name__ == "__main__":
    main()
