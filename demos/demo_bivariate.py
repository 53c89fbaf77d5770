"""Splitting GF(2^(2h)) as GF(2^h)^2: the bivariate view of a defining set.

Every d in GF(2^(2h)) decomposes as a pair (d1, d2) over GF(2^h) through the
relative trace, and the code of the pair list equals the code of the original
set coordinate for coordinate.
"""

import random

from walshcodes import DefiningSet, bivariate_view, code_from_defining_set, field


def main():
    f = field(4)
    rng = random.Random(5)
    ds = DefiningSet(f, [rng.randrange(1, 16) for _ in range(6)])
    print(f"defining set over GF(16): {[format(v, 'x') for v in ds.values]}")

    pairs, code_pairs = bivariate_view(ds, 2)
    print("\nGF(4)-pairs (d1, d2) with d = lift(d1)*v1 + lift(d2)*v2:")
    for d, (d1, d2) in zip(ds.values, pairs):
        print(f"  d = {d:x}  ->  ({d1}, {d2})")

    direct = code_from_defining_set(ds)
    print(f"\ncode from pairs:     [n, k] = [{code_pairs.n}, {code_pairs.k}]")
    print(f"code built directly: [n, k] = [{direct.n}, {direct.k}]")
    print(f"same code: {code_pairs == direct}")

    print("\nthe same works one level up: GF(64) over GF(8)")
    f6 = field(6)
    ds6 = DefiningSet(f6, [rng.randrange(1, 64) for _ in range(10)])
    pairs6, code6 = bivariate_view(ds6, 3)
    print(f"  10 elements -> 10 pairs over GF(8); codes agree: "
          f"{code6 == code_from_defining_set(ds6)}")


if __name__ == "__main__":
    main()
