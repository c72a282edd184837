"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them).

Criterion 2 checks the paper's first assumption, polynomially many row
patterns, on the rectangle-outline family (min_side 3).  A row there is
empty, the top or bottom run over a column pair (l, r) with r - l >= 2, or
the two side pixels at such a pair; there are C(n-1, 2) such pairs, so the
maximal row-configuration count is (n-1)(n-2) + 1 = n^2 - 3n + 3, reached
at row 2 for every n >= 5.  At n = 4 every outline covers rows 2 and 3, no
row is ever empty, and the count is 6.  The test pins these exact counts
and bounds the log-log growth exponent by 2.3.  The exponent is fitted on
n in {8, 16, 24}: the -3n term keeps the local log-log slope,
n(2n - 3) / (n^2 - 3n + 3), above 2.3 up to n = 10, and the off-law n = 4
point lifts a fit over {4, 8, 16} to 2.568, so such a fit would not measure
the quadratic growth.
"""

import time

import numpy as np
import pytest

from pixelrank.certify import (
    row_config_counts,
    fixed_row_rank_table,
    fit_loglog,
    verify_row_cut_subadditivity,
)
from pixelrank.cli import main as cli_main
from pixelrank.ht import (
    Tree,
    diagonalize,
    ht_eval_batch,
    ht_from_family,
    layer_rank_table,
)
from pixelrank.images import (
    BinaryImage,
    gen_random_family,
    gen_rectangle_outlines,
    gen_stacked_outlines,
    gen_vertical_bars,
    random_probes,
    save_family,
)
from pixelrank.rankcore import (
    Bipartition,
    exact_rank,
    pixel_prefix_unfolding,
    unfold,
)
from pixelrank.tt import tt_eval_batch, tt_from_family

from oracles import (
    dense_unfolding_oracle,
    family_dense_vector,
    node_output_diagonal,
    node_output_generalized,
    tt_from_dense,
    verify_support_properties,
)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


@pytest.fixture(scope="module")
def rect4():
    return gen_rectangle_outlines(4, 3)


@pytest.fixture(scope="module")
def rect8():
    return gen_rectangle_outlines(8, 3)


@pytest.fixture(scope="module")
def tt_rect(rect4, rect8):
    return {4: tt_from_family(rect4), 8: tt_from_family(rect8)}


@pytest.fixture(scope="module")
def ht_rect(rect4, rect8):
    return {4: ht_from_family(rect4), 8: ht_from_family(rect8)}


def test_criterion_1_fixed_row_rank_certificate(rect4, rect8):
    """Max pinned-row unfolding rank of the outline family is at most 2."""
    start = time.perf_counter()
    maxima = {}
    for fam in (rect4, rect8):
        ranks = fixed_row_rank_table(fam)
        maxima[fam.n] = max(ranks.values())
    elapsed = time.perf_counter() - start
    ok = all(v <= 2 for v in maxima.values()) and elapsed < 60
    _report(
        "criterion 1 (pinned-row rank <= 2)",
        ok,
        f"max ranks {maxima}, {elapsed:.2f}s",
    )
    assert maxima[4] <= 2 and maxima[8] <= 2
    assert elapsed < 60


def _max_row_configs(n: int) -> int:
    """Closed-form maximal row-configuration count of the min_side-3
    outline family (module docstring)."""
    return 6 if n == 4 else n * n - 3 * n + 3


def test_criterion_2_row_config_scaling(rect4, rect8):
    """Row-configuration growth: the maximal counts equal the closed form at
    every built size, and the log-log slope over n in {8, 16, 24} is at most
    2.3 (module docstring)."""
    start = time.perf_counter()
    points = []
    for fam in (rect4, rect8, *(gen_rectangle_outlines(n, 3) for n in (16, 24))):
        points.append((fam.n, max(row_config_counts(fam).values())))
    count_mismatches = [
        (n, c, _max_row_configs(n)) for n, c in points if c != _max_row_configs(n)
    ]
    fit = fit_loglog([(n, c) for n, c in points if n >= 8], "max row configs")
    elapsed = time.perf_counter() - start
    ok = not count_mismatches and fit.slope <= 2.3 and elapsed < 120
    _report(
        "criterion 2 (exact row-config counts, slope <= 2.3)",
        ok,
        f"points {points}, count mismatches {count_mismatches}, "
        f"slope over n >= 8 {fit.slope:.4f}, {elapsed:.2f}s",
    )
    assert count_mismatches == [], f"(n, count, closed form): {count_mismatches}"
    assert elapsed < 120
    assert fit.slope <= 2.3


def test_criterion_3_subadditivity_no_violations(rect4, rect8):
    """The row-cut rank never exceeds the sum of pinned-row ranks, on every
    generated family."""
    families = [
        rect4,
        rect8,
        gen_vertical_bars(4, 2),
        gen_vertical_bars(8, 2),
        gen_stacked_outlines(5, 3),
        gen_stacked_outlines(8, 3),
        gen_random_family(4, 25, seed=11),
        gen_random_family(8, 60, seed=12),
    ]
    violations = []
    for fam in families:
        for row in verify_row_cut_subadditivity(fam):
            if not row.holds:
                violations.append((fam.meta.name, fam.n, row.i))
    _report(
        "criterion 3 (subadditivity, zero violations)",
        not violations,
        f"{len(families)} families, violations {violations}",
    )
    assert violations == []


def test_criterion_4_tensor_train(rect4, rect8, tt_rect):
    """Train exactness, bond minimality, structured-vs-random contrast."""
    # (a) exactness on members plus 10^4 random probes.
    worst = 0.0
    for fam in (rect4, rect8):
        train = tt_rect[fam.n]
        probes = random_probes(fam.n, 10_000, seed=21)
        members = fam.bit_matrix()
        bits = np.vstack([members, probes])
        truth = np.array(
            [1.0] * len(fam)
            + [
                float(fam.indicator(BinaryImage(fam.n, row.tobytes())))
                for row in probes
            ]
        )
        worst = max(worst, float(np.max(np.abs(tt_eval_batch(train, bits) - truth))))
    ok_a = worst < 1e-6

    # (b) minimality: every bond equals the exact pixel-prefix rank.
    mismatches = []
    for fam in (rect4, rect8):
        dims = tt_rect[fam.n].bond_dims
        for k in range(1, fam.n * fam.n):
            if dims[k] != exact_rank(pixel_prefix_unfolding(fam, k)):
                mismatches.append((fam.n, k))
    ok_b = not mismatches

    # (c) matched-size random contrast at the middle cut of the n=8 grid.
    random_train = tt_from_family(gen_random_family(8, len(rect8), seed=1))
    structured_mid = tt_rect[8].bond_dims[32]
    random_mid = random_train.bond_dims[32]
    ok_c = random_mid >= 3 * structured_mid

    _report(
        "criterion 4 (tensor train)",
        ok_a and ok_b and ok_c,
        f"max dev {worst:.2e}, bond mismatches {mismatches}, "
        f"middle bonds random {random_mid} vs structured {structured_mid}",
    )
    assert ok_a, f"worst deviation {worst}"
    assert ok_b, f"bond mismatches at {mismatches}"
    assert ok_c, f"{random_mid} < 3 * {structured_mid}"


def test_criterion_5_tree_network(rect4, rect8, tt_rect, ht_rect):
    """Tree-network exactness, per-layer width minimality, and support
    structure."""
    # (a) evaluation agreement with membership and with the train.
    worst_f = 0.0
    worst_tt = 0.0
    for fam in (rect4, rect8):
        net = ht_rect[fam.n]
        probes = random_probes(fam.n, 2_000, seed=31)
        bits = np.vstack([fam.bit_matrix(), probes])
        truth = np.array(
            [1.0] * len(fam)
            + [
                float(fam.indicator(BinaryImage(fam.n, row.tobytes())))
                for row in probes
            ]
        )
        ht_vals = ht_eval_batch(net, bits)
        tt_vals = tt_eval_batch(tt_rect[fam.n], bits)
        worst_f = max(worst_f, float(np.max(np.abs(ht_vals - truth))))
        worst_tt = max(worst_tt, float(np.max(np.abs(ht_vals - tt_vals))))
    ok_a = worst_f < 1e-6 and worst_tt < 1e-6

    # (b) per-layer widths equal the maximal exact region rank.
    width_mismatches = []
    for fam in (rect4, rect8):
        net = ht_rect[fam.n]
        table = layer_rank_table(fam)
        for i in range(1, net.tree.n_layers + 1):
            expected = max(table[node] for node in net.tree.layers[i])
            if net.width(i) != expected:
                width_mismatches.append((fam.n, i, net.width(i), expected))
    ok_b = not width_mismatches

    # (c) support properties hold structurally.
    prop_failures = {}
    for n in (4, 8):
        props = verify_support_properties(Tree(n))
        if not all(props.values()):
            prop_failures[n] = props
    ok_c = not prop_failures

    _report(
        "criterion 5 (tree network)",
        ok_a and ok_b and ok_c,
        f"max dev vs f {worst_f:.2e}, vs train {worst_tt:.2e}, "
        f"width mismatches {width_mismatches}, support failures {prop_failures}",
    )
    assert ok_a and ok_b and ok_c


def test_criterion_6_diagonalization(ht_rect):
    """Channel squaring, evaluation agreement, and the exact two-channel
    duplication scheme."""
    squared_ok = True
    worst = 0.0
    for n, net in ht_rect.items():
        diag = diagonalize(net)
        if diag.layer_widths != [w * w for w in net.layer_widths]:
            squared_ok = False
        bits = random_probes(n, 1_000, seed=41)
        worst = max(
            worst,
            float(np.max(np.abs(ht_eval_batch(net, bits) - ht_eval_batch(diag, bits)))),
        )
    ok_widths_dev = squared_ok and worst < 1e-6

    # Two-channel unit case: M = [[a,b],[c,d]] becomes the vector
    # (a,b,c,d) applied to (u1,u2,u1,u2) and (v1,v1,v2,v2).
    a, b, c, d = 2.0, -3.0, 0.5, 7.0
    u = np.array([1.5, -2.5])
    v = np.array([4.0, 0.25])
    mats = np.array([[[a, b], [c, d]]])
    vec = mats[0].reshape(-1)
    u_dup = np.tile(u, 2)
    v_dup = np.repeat(v, 2)
    unit_ok = (
        np.array_equal(vec, [a, b, c, d])
        and np.array_equal(u_dup, [u[0], u[1], u[0], u[1]])
        and np.array_equal(v_dup, [v[0], v[0], v[1], v[1]])
        and abs(
            node_output_diagonal(vec[None, :], u_dup, v_dup)[0]
            - node_output_generalized(mats, u, v)[0]
        )
        < 1e-12
    )

    _report(
        "criterion 6 (diagonalization)",
        ok_widths_dev and unit_ok,
        f"widths squared {squared_ok}, max dev {worst:.2e}, unit case {unit_ok}",
    )
    assert squared_ok
    assert worst < 1e-6
    assert unit_ok


def test_criterion_7_oracle_equivalence():
    """At n=3: compressed-path ranks equal full dense-matrix ranks at every
    prefix cut, and dense sequential-SVD bond dimensions equal the sparse
    route's."""
    start = time.perf_counter()
    families = [
        gen_rectangle_outlines(3, 3),
        gen_vertical_bars(3, 2),
        gen_random_family(3, 12, seed=5),
        gen_random_family(3, 40, seed=6),
    ]
    rank_mismatches = []
    dim_mismatches = []
    for fam in families:
        cuts = [Bipartition.pixel_prefix(k, 3) for k in range(1, 9)]
        cuts += [Bipartition.row_prefix(i, 3) for i in (1, 2)]
        for bip in cuts:
            sparse = exact_rank(unfold(fam, bip))
            dense = int(np.linalg.matrix_rank(dense_unfolding_oracle(fam, bip)))
            if sparse != dense:
                rank_mismatches.append((fam.meta.name, bip.left, sparse, dense))
        sparse_dims = tt_from_family(fam).bond_dims
        dense_dims = tt_from_dense(family_dense_vector(fam)).bond_dims
        if sparse_dims != dense_dims:
            dim_mismatches.append((fam.meta.name, sparse_dims, dense_dims))
    elapsed = time.perf_counter() - start
    ok = not rank_mismatches and not dim_mismatches and elapsed < 10
    _report(
        "criterion 7 (oracle equivalence)",
        ok,
        f"{len(families)} families, rank mismatches {rank_mismatches}, "
        f"dim mismatches {dim_mismatches}, {elapsed:.2f}s",
    )
    assert rank_mismatches == []
    assert dim_mismatches == []
    assert elapsed < 10


def test_criterion_8_deterministic_reports(tmp_path, rect8):
    """Identical run configurations give byte-identical reports whatever the
    parallelism degree."""
    fam_file = tmp_path / "rect8.fam"
    save_family(rect8, fam_file)
    outputs = []
    for jobs in (1, 3):
        out = tmp_path / f"certify-{jobs}.csv"
        code = cli_main(
            [
                "certify", "--family-file", str(fam_file),
                "--out", str(out), "--jobs", str(jobs),
            ]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    certify_same = outputs[0] == outputs[1]

    scale_outputs = []
    for rep in range(2):
        out = tmp_path / f"scale-{rep}.csv"
        code = cli_main(
            [
                "scale", "--family", "rect", "--quantity", "row-configs",
                "--n-list", "4,8", "--seed", "3", "--out", str(out),
            ]
        )
        assert code == 0
        scale_outputs.append(out.read_bytes())
    scale_same = scale_outputs[0] == scale_outputs[1]

    ok = certify_same and scale_same
    _report(
        "criterion 8 (byte-identical reports)",
        ok,
        f"certify identical {certify_same}, scale identical {scale_same}",
    )
    assert certify_same and scale_same
