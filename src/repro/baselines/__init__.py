"""Baseline partitioners built from scratch for the Table 4/5 comparison:
kMetis-like multilevel direct k-way, parMetis-like parallel pipeline, and
Scotch-like multilevel recursive bisection."""

from .metis_like import metis_like_partition
from .parmetis_like import parmetis_like_partition, batched_kway_round
from .scotch_like import scotch_like_partition

__all__ = [
    "metis_like_partition",
    "parmetis_like_partition",
    "batched_kway_round",
    "scotch_like_partition",
]
