"""Cluster cost model and the distributed quotient-graph edge coloring.

The communicators that run SPMD programs live in :mod:`repro.engine`;
the simulated cluster is :class:`repro.engine.SimulatedEngine`, which
charges the :class:`MachineModel` defined here."""

from ..engine.base import DeadlockError
from .costmodel import MachineModel, DEFAULT_MACHINE, payload_nbytes
from .coloring import (
    greedy_edge_coloring,
    distributed_edge_coloring,
    distributed_edge_coloring_spmd,
    coloring_to_matchings,
    verify_edge_coloring,
)

__all__ = [
    "DeadlockError",
    "MachineModel",
    "DEFAULT_MACHINE",
    "payload_nbytes",
    "greedy_edge_coloring",
    "distributed_edge_coloring",
    "distributed_edge_coloring_spmd",
    "coloring_to_matchings",
    "verify_edge_coloring",
]
