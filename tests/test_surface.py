"""The public surface, spelled out: a name added to or removed from the
package or from a module's __all__ fails here until this list changes."""

import importlib
import pkgutil
import types

import pixelrank

# The non-module names `import pixelrank` binds.
PACKAGE_NAMES = {
    "BinaryImage", "Bipartition", "FamilyFormatError", "FamilyMeta", "HTNetwork",
    "ImageFamily", "Region", "ScalingReport", "TensorTrain", "Tree", "TreeIndex",
    "Unfolding", "block_partition_bound", "diagonalize", "exact_rank", "fit_loglog",
    "fixed_row_rank_table", "gen_random_family", "gen_rectangle_outlines",
    "gen_stacked_outlines", "gen_vertical_bars", "ht_eval", "ht_eval_batch",
    "ht_from_family", "load_family", "load_ht", "load_tt", "make_family", "pad_family",
    "pad_image", "random_baseline_profile", "region_rank_profile", "row_config_counts",
    "save_family", "save_ht", "save_tt", "tt_eval", "tt_eval_batch", "tt_from_family",
    "tt_ht_cross_check", "unfold", "verify_row_cut_subadditivity",
}

# Names in some module's __all__ that the package does not bind.
MODULE_ONLY_NAMES = {
    "BaselineResult", "RegionRankProfile", "RegionRankRow", "SubadditivityRow",
    "flat_index", "next_power_of_two", "random_probes", "row_configurations",
}


def test_package_names():
    names = {
        name
        for name, value in vars(pixelrank).items()
        if not name.startswith("__") and not isinstance(value, types.ModuleType)
    }
    assert len(PACKAGE_NAMES) == 42
    assert names == PACKAGE_NAMES


def test_union_of_module_all_lists():
    names = set()
    for info in pkgutil.iter_modules(pixelrank.__path__):
        module = importlib.import_module(f"pixelrank.{info.name}")
        names.update(getattr(module, "__all__", ()))
    assert len(PACKAGE_NAMES | MODULE_ONLY_NAMES) == 50
    assert names == PACKAGE_NAMES | MODULE_ONLY_NAMES
