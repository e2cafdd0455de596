"""Dynamic LSH substrate: prefix-tree forests with query-time (b, r)."""

from repro.forest.prefix_forest import PrefixForest, default_forest_shape

__all__ = ["PrefixForest", "default_forest_shape"]
