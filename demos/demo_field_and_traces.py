"""Tour of GF(2^m) arithmetic: words, multiplication, traces, and dual bases."""

from functools import reduce
from operator import xor

from walshcodes import field


def main():
    f = field(3)
    print(f"GF(8) with modulus {f.modulus:#b} (x^3 + x + 1)")
    print("elements are 3-bit words; alpha is the class of x, word 0b010\n")

    a, b = 0b010, 0b100
    print(f"alpha * alpha^2      = {f.mul(a, b):#05b}  (x^3 reduces to x + 1)")
    print(f"inverse of alpha     = {f.inv(a):#05b}")
    print(f"alpha * alpha^{{-1}}   = {f.mul(a, f.inv(a)):#05b}\n")

    print("absolute trace Tr(v) = v + v^2 + v^4, computed two independent ways:")
    print(" v | mask path | sum-of-squares")
    for v in range(8):
        print(f" {v} |     {f.trace(v)}     |       {f.trace_sum_of_squares(v)}")
    print()

    basis = f.polynomial_basis
    dual = f.dual_basis(basis)
    print("polynomial basis {1, a, a^2} and its trace-dual basis:")
    print("  basis:", [f"{e:#05b}" for e in basis])
    print("  dual: ", [f"{e:#05b}" for e in dual])
    print("checking Tr(basis_i * dual_j) = identity matrix:")
    for i in range(3):
        row = [f.trace(f.mul(basis[i], dual[j])) for j in range(3)]
        print("  ", row)
    print()

    # coordinate j of x over the basis is Tr(x * d_j), d_j the dual words
    x = 0b110
    coords = [f.trace(f.mul(x, d)) for d in dual]
    print(f"coordinates of {x:#05b} over the basis: {coords}")
    recombined = reduce(xor, (e for c, e in zip(coords, basis) if c), 0)
    print(f"recombined: {recombined:#05b}")

    emb = field(4).subfield(2)
    print("\nGF(4) inside GF(16): the embedding lifts standalone words")
    for c in range(4):
        print(f"  GF(4) word {c} -> GF(16) word {emb.lift(c):#06x}")


if __name__ == "__main__":
    main()
