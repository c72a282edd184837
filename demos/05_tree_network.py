"""Build the binary-tree product-pooling network for an outline family,
square it into element-wise (diagonal) form, and cross-check against the
tensor train."""

import numpy as np

from pixelrank import (
    Tree,
    diagonalize,
    gen_rectangle_outlines,
    ht_eval,
    ht_eval_batch,
    ht_from_family,
    tt_ht_cross_check,
)


def main():
    n = 8
    tree = Tree(n)
    print(f"tree over an {n}x{n} grid: {tree.n_layers} layers")
    for i in range(1, tree.n_layers + 1):
        node = tree.layers[i][0]
        sup = tree.support(node)
        print(
            f"  layer {i}: {len(tree.layers[i]):2d} nodes, supports "
            f"{sup.params[2]}x{sup.params[3]} (boundary {sup.boundary_length})"
        )

    fam = gen_rectangle_outlines(n, 3)
    net = ht_from_family(fam)
    print(f"\nchannels per layer: {net.layer_widths}")
    print(f"evaluation on a member: {ht_eval(net, fam.members[0]):.6f}")

    diag = diagonalize(net)
    print(f"\nafter diagonalization (element-wise pooling): {diag.layer_widths}")
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, size=(1000, n * n), dtype=np.uint8)
    dev = np.max(np.abs(ht_eval_batch(net, bits) - ht_eval_batch(diag, bits)))
    print(f"max |generalized - diagonal| over 1000 probes: {dev:.2e}")

    report = tt_ht_cross_check(fam, n_probes=5000, seed=0)
    print(f"\ntrain vs tree on members + 5000 probes: max dev {report.max_dev_tt_ht:.2e}")
    print(f"tree vs membership: max dev {report.max_dev_f_ht:.2e}")


if __name__ == "__main__":
    main()
