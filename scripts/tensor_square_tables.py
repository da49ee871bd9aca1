#!/usr/bin/env python3
"""Print the tensor-square decompositions of the first nontrivial hook Specht
module for a range of n, followed by the degree-2 standard module restriction
tables.  Shows the stabilization at n = 4 and the block structure at n = 2."""

import argparse

from kroncoef.diagram_algebra import dim_standard, restriction_table
from kroncoef.kronecker import tensor_square_decomposition
from kroncoef.partitions import block_chain, partitions_up_to


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=8)
    args = parser.parse_args()

    print(f"S(n-1,1) tensor S(n-1,1), n = 2..{args.max_n}")
    for n in range(2, args.max_n + 1):
        decomp = tensor_square_decomposition(n)
        terms = " + ".join(
            (f"{c}*S{p}" if c > 1 else f"S{p}") for p, c in sorted(decomp.items())
        )
        print(f"  n={n}: {terms}")

    print("\ndegree-2 standard modules, restriction to the 1|1 subalgebra")
    for nu in sorted(partitions_up_to(2), reverse=True):
        table = restriction_table(nu, 1, 1)
        pieces = " + ".join(
            f"D1{lam} x D1{mu}" for (lam, mu), c in sorted(table.items()) for _ in range(c)
        )
        print(f"  D2{nu} (dim {dim_standard(2, nu)}) -> {pieces}")

    print("\nblock chains in degrees <= 2 at parameter n = 2")
    for nu in partitions_up_to(2):
        print(f"  {nu}: " + " -> ".join(map(str, block_chain(nu, 2, 2))))


if __name__ == "__main__":
    main()
