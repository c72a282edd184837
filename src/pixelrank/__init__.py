"""pixelrank: exact low-rank certificates and tensor-network builders for
structured binary-image families."""

__version__ = "0.1.0"

from .images import (
    BinaryImage,
    FamilyFormatError,
    FamilyMeta,
    ImageFamily,
    Region,
    gen_random_family,
    gen_rectangle_outlines,
    gen_stacked_outlines,
    gen_vertical_bars,
    load_family,
    make_family,
    pad_family,
    pad_image,
    save_family,
)
from .rankcore import (
    Bipartition,
    Unfolding,
    exact_rank,
    unfold,
)
from .certify import (
    ScalingReport,
    block_partition_bound,
    row_config_counts,
    fixed_row_rank_table,
    fit_loglog,
    random_baseline_profile,
    region_rank_profile,
    verify_row_cut_subadditivity,
)
from .tt import (
    TensorTrain,
    load_tt,
    save_tt,
    tt_eval,
    tt_eval_batch,
    tt_from_family,
)
from .ht import (
    HTNetwork,
    Tree,
    TreeIndex,
    diagonalize,
    ht_eval,
    ht_eval_batch,
    ht_from_family,
    load_ht,
    save_ht,
    tt_ht_cross_check,
)
