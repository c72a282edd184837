"""Build an exact tensor train for an outline family, check it is minimal
(bond = prefix-cut rank), and contrast its bonds with a random family's."""

import numpy as np

from pixelrank import (
    Bipartition,
    block_partition_bound,
    exact_rank,
    gen_random_family,
    gen_rectangle_outlines,
    tt_eval,
    tt_eval_batch,
    tt_from_family,
    unfold,
)


def main():
    fam = gen_rectangle_outlines(8, 3)
    train = tt_from_family(fam)
    dims = train.bond_dims
    print(f"rectangle outlines, n=8: {len(fam)} members")
    print(f"bond dimensions (65 bonds): max {max(dims)}")
    print("  ", dims)

    print("\nexactness:")
    member = fam.members[0]
    print(f"  on a member: {tt_eval(train, member):.6f}")
    rng = np.random.default_rng(0)
    probes = rng.integers(0, 2, size=(5000, 64), dtype=np.uint8)
    values = tt_eval_batch(train, probes)
    print(f"  max |value| over 5000 random probes: {np.abs(values).max():.2e}")

    # Bond k is the rank of the unfolding at the cut after the first k pixels.
    print("\nminimality and the row-grouping bound at a few cuts:")
    for k in (8, 20, 32, 44):
        rank = exact_rank(unfold(fam, Bipartition.pixel_prefix(k, fam.n)))
        bound = block_partition_bound(fam, k)
        print(f"  cut {k:2d}: bond {dims[k]:3d} = exact rank {rank:3d} <= bound {bound:3d}")

    rnd = gen_random_family(8, len(fam), seed=1)
    rnd_train = tt_from_family(rnd)
    print(
        f"\nmatched random family: max bond {max(rnd_train.bond_dims)}"
        f" vs structured {max(dims)}"
    )
    print(f"middle-cut bonds: random {rnd_train.bond_dims[32]} vs structured {dims[32]}")


if __name__ == "__main__":
    main()
