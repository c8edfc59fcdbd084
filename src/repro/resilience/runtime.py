"""Per-PE resilience context for the SPMD program.

:func:`spmd_resilience` is called once per virtual PE at the top of
:func:`~repro.core.spmd.kappa_spmd_program`.  When the config enables
neither fault injection nor checkpointing it returns the shared
:data:`NULL_RESILIENCE` no-op (the default path costs one attribute
check); otherwise it returns a :class:`SpmdResilience` that

* resolves the resume point: rank 0 validates the checkpoint manifest
  against the run identity (config hash, master seed, ``k``, PE count,
  graph hash) and broadcasts the completed-phase list, so every PE
  agrees bit-exactly on where to resume — or every PE raises the same
  :class:`~repro.resilience.checkpoint.CheckpointMismatch`;
* serves :meth:`restore` for completed phases (decoded from the wire
  codec; identical on every PE because the stored state was identical on
  every PE — all SPMD decisions flow through deterministic collectives);
* runs :meth:`boundary` at each phase boundary: heartbeat → injected
  crash/hang check → checkpoint write (rank 0 only, atomic).

Ordering matters: an injected crash fires *before* the boundary's
checkpoint is written, so the phase that "was executing" when the PE
died is re-run after restart — recovery re-computes it bit-identically
rather than trusting a checkpoint the crash might have raced.
"""

from __future__ import annotations

import re
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..graph.csr import Graph
from .checkpoint import CheckpointStore, config_hash, graph_signature
from .faults import FaultPlan, InjectedCrash

__all__ = [
    "NULL_RESILIENCE",
    "NullResilience",
    "SpmdResilience",
    "pack_coarsening",
    "unpack_coarsening",
    "spmd_resilience",
]

#: how long an injected hang sleeps before giving up and exiting (the
#: supervisor's heartbeat timeout should fire long before this)
_HANG_SLEEP_S = 3600.0

_REFINE_KEY_RE = re.compile(r"^refine:level(\d+)$")


class NullResilience:
    """Do-nothing context used when resilience is off (shared instance)."""

    enabled = False

    def restore(self, key: str) -> None:
        return None

    def latest_refine(self) -> None:
        return None

    def boundary(self, key: str, state: Optional[Dict[str, Any]] = None,
                 ) -> None:
        pass


NULL_RESILIENCE = NullResilience()


class SpmdResilience:
    """Live per-PE context: fault boundaries + checkpoint save/restore."""

    enabled = True

    def __init__(self, comm, plan: FaultPlan,
                 store: Optional[CheckpointStore],
                 completed: List[str], checkpoint_phases: str) -> None:
        self.comm = comm
        self.plan = plan
        self.store = store
        self.completed = set(completed)
        self._order = list(completed)
        self.checkpoint_phases = checkpoint_phases
        self.attempt = int(getattr(comm, "attempt", 0))

    # -- checkpoints ----------------------------------------------------
    def phase_enabled(self, key: str) -> bool:
        """Whether boundary ``key`` writes a checkpoint, per the
        ``checkpoint_phases`` config ("all", "none" or a comma list of
        phase families, e.g. "coarsening,refine")."""
        mode = self.checkpoint_phases
        if mode == "all":
            return True
        if mode == "none":
            return False
        family = key.split(":", 1)[0]
        return family in {part.strip() for part in mode.split(",")}

    def restore(self, key: str) -> Optional[Dict[str, Any]]:
        """Stored state of a completed phase, or ``None`` to compute it."""
        if self.store is None or key not in self.completed:
            return None
        state = self.store.load(key)
        if self.comm.rank == 0:
            self.comm.count("checkpoint_restores")
        return state

    def latest_refine(self) -> Optional[Tuple[int, Dict[str, Any]]]:
        """The finest completed refinement level and its state.

        Refinement checkpoints are written coarse-to-fine, so the
        smallest completed level index is the resume point.
        """
        levels = []
        for key in self.completed:
            m = _REFINE_KEY_RE.match(key)
            if m is not None:
                levels.append(int(m.group(1)))
        if not levels:
            return None
        level = min(levels)
        state = self.restore(f"refine:level{level}")
        if state is None:  # pragma: no cover - store vanished mid-run
            return None
        return level, state

    # -- boundaries -----------------------------------------------------
    def boundary(self, key: str,
                 state: Optional[Dict[str, Any]] = None) -> None:
        """One phase boundary: heartbeat, injected faults, checkpoint."""
        comm = self.comm
        heartbeat = getattr(comm, "heartbeat", None)
        if heartbeat is not None:
            heartbeat(key)
        clause = self.plan.boundary_fault(comm.rank, key, self.attempt)
        if clause is not None:
            self._fire(clause, key)
        if (state is not None and self.store is not None
                and comm.rank == 0 and self.phase_enabled(key)):
            self.store.save(key, state)
            comm.count("checkpoint_saves")

    def _fire(self, clause, key: str) -> None:
        comm = self.comm
        hard_crash = getattr(comm, "hard_crash", None)
        if clause.kind == "crash":
            comm.fault_event("fault_injected_crashes")
            if hard_crash is not None:
                hard_crash()
            raise InjectedCrash(
                f"PE {comm.rank}: injected crash at boundary {key!r}"
            )
        # hang: stop heartbeating and wedge.  Only meaningful where a
        # supervisor can observe the silence and kill us.
        comm.fault_event("fault_injected_hangs")
        if hard_crash is None:
            raise InjectedCrash(
                f"PE {comm.rank}: injected hang at boundary {key!r} "
                "(non-process engine cannot wedge safely; raising instead)"
            )
        time.sleep(_HANG_SLEEP_S)  # pragma: no cover - supervisor kills us
        hard_crash()  # pragma: no cover


# -- state packing -----------------------------------------------------
def _pack_graph(g: Graph) -> Dict[str, Any]:
    d = {"xadj": g.xadj, "adjncy": g.adjncy, "adjwgt": g.adjwgt,
         "vwgt": g.vwgt, "coords": g.coords}
    if g.n_constraints > 1:
        d["vwgts"] = g.vwgts
    if g.fixed is not None:
        d["fixed"] = g.fixed
    return d


def _unpack_graph(d: Dict[str, Any]) -> Graph:
    return Graph(np.asarray(d["xadj"]), np.asarray(d["adjncy"]),
                 np.asarray(d["adjwgt"]), np.asarray(d["vwgt"]),
                 None if d.get("coords") is None else np.asarray(d["coords"]),
                 validate=False,
                 vwgts=(None if d.get("vwgts") is None
                        else np.asarray(d["vwgts"])),
                 fixed=(None if d.get("fixed") is None
                        else np.asarray(d["fixed"], dtype=np.int64)))


def pack_coarsening(hierarchy, owner: np.ndarray) -> Dict[str, Any]:
    """Serialisable coarsening state.  ``graphs[0]`` (the input graph) is
    deliberately omitted — the resume already holds it, and it dominates
    the hierarchy's size."""
    return {
        "graphs": [_pack_graph(g) for g in hierarchy.graphs[1:]],
        "maps": list(hierarchy.maps),
        "owner": owner,
    }


def unpack_coarsening(state: Dict[str, Any], finest: Graph):
    """Inverse of :func:`pack_coarsening` (needs the input graph back)."""
    from ..coarsening.hierarchy import Hierarchy

    graphs = [finest] + [_unpack_graph(d) for d in state["graphs"]]
    maps = [np.asarray(m) for m in state["maps"]]
    return Hierarchy(graphs=graphs, maps=maps), np.asarray(state["owner"])


# -- factory -----------------------------------------------------------
def spmd_resilience(comm, g: Graph, k: int, seed: int, cfg):
    """Build the per-PE resilience context for one SPMD run.

    Returns :data:`NULL_RESILIENCE` when the config enables neither
    faults nor checkpointing, so the default pipeline stays zero-cost.
    The checkpoint resume point is resolved collectively (rank 0 reads
    and validates the manifest, then broadcasts), which keeps every PE's
    view of "what is already done" bit-identical.
    """
    spec = getattr(cfg, "faults", None)
    ckpt_dir = getattr(cfg, "checkpoint_dir", None)
    if not spec and not ckpt_dir:
        return NULL_RESILIENCE
    plan = FaultPlan.parse(spec)
    store: Optional[CheckpointStore] = None
    completed: List[str] = []
    if ckpt_dir:
        store = CheckpointStore(
            ckpt_dir,
            config_digest=config_hash(cfg),
            seed=seed,
            k=k,
            pes=comm.size,
            graph_sig=graph_signature(g),
        )
        if comm.rank == 0:
            try:
                payload = ("ok", store.validate())
            except Exception as exc:  # rebroadcast so every PE fails alike
                payload = ("error", type(exc).__name__, str(exc))
        else:
            payload = None
        payload = comm.bcast(payload, root=0)
        if payload[0] == "error":
            from .checkpoint import CheckpointMismatch

            exc_type = (CheckpointMismatch
                        if payload[1] == "CheckpointMismatch"
                        else RuntimeError)
            raise exc_type(payload[2])
        completed = list(payload[1])
    return SpmdResilience(comm, plan, store, completed,
                          getattr(cfg, "checkpoint_phases", "all"))
