"""Configuration presets — the paper's Table 2.

Three named strategies plus the strengthened Walshaw-benchmark variant
(Section 6.3).  Field names follow Table 2:

=====================  ========  ======  ======
parameter              minimal   fast    strong
=====================  ========  ======  ======
rating                 expansion*2 (all)
matching               GPA (all)
stop contraction       n/(60·k²) (all)
init. part.            recursive bisection ("scotch-like", all)
init. repeats          1         3       5
queue selection        TopGain (all)
BFS search depth       1         5       20
stop refinement        —         no chg  2× no chg
max. global iters      1         15      15
local iterations       1         3       5
matching selection     distributed edge coloring (all)
FM patience α          1 %       5 %     20 %
=====================  ========  ======  ======
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from ..kernels import BACKENDS as KERNEL_BACKENDS

__all__ = ["KappaConfig", "MINIMAL", "FAST", "STRONG", "WALSHAW", "MAPPING",
           "preset"]


@dataclass(frozen=True)
class KappaConfig:
    """All tuning knobs of the partitioner.

    Defaults correspond to the paper's *fast* configuration.
    """

    # -- problem parameters -------------------------------------------
    epsilon: float = 0.03          # allowed imbalance (paper default 3 %)
    seed: int = 0                  # master RNG seed; PEs derive seed+rank
    #: optimisation objective: "cut" (the paper's edge cut) or "mapping"
    #: (communication volume × machine distance over a hierarchical
    #: topology; see repro.core.objectives.Topology)
    objective: str = "cut"
    #: machine topology for the mapping objective, as a colon-separated
    #: tier spec, e.g. "2:4" = 2 racks × 4 nodes (k must equal the
    #: product).  None → derived from k (Topology.default_for)
    topology: Optional[str] = None
    #: per-constraint-dimension imbalance tolerances for graphs with an
    #: (n, c) weight matrix; None → ``epsilon`` for every dimension
    epsilons: Optional[Tuple[float, ...]] = None

    # -- contraction (Section 3) --------------------------------------
    rating: str = "expansion_star2"  # Table 3 winner
    matching: str = "gpa"            # Table 3 winner
    contraction_alpha: float = 60.0  # stop at max(20, n/(alpha*k^2)), §4
    contraction_min_nodes: int = 20
    max_levels: int = 50             # safety bound on hierarchy depth

    # -- initial partitioning (Section 4) ------------------------------
    initial_partitioner: str = "recursive_bisection"
    init_repeats: int = 3

    # -- refinement (Section 5) ----------------------------------------
    queue_selection: str = "top_gain"   # Table 4 winner
    bfs_band_depth: int = 5
    stop_rule: str = "no_change"        # "always" | "no_change" | "twice_no_change"
    max_global_iterations: int = 15
    local_iterations: int = 3
    matching_selection: str = "edge_coloring"  # §5.1 default
    fm_alpha: float = 0.05              # FM patience (fraction of min block)
    refine_algorithm: str = "fm"        # "fm" | "flow" | "fm_flow" (§8)

    # -- incremental repartitioning (repro.core.incremental) -----------
    #: reuse the previous partition across mutation batches instead of
    #: repartitioning from scratch (CLI: ``repro dynamic --mode ...``)
    incremental: bool = False
    #: BFS width of the dirty band around mutated nodes; refinement (and
    #: every node move) is confined to this band
    incremental_band_width: int = 3
    #: fall back to full multilevel when the incremental cut exceeds
    #: ``(1 + drift_threshold) ×`` the cut of the last full run
    drift_threshold: float = 0.3

    # -- parallel execution --------------------------------------------
    n_pes: Optional[int] = None  # None → one PE per block (paper setting)
    prepartition: str = "auto"   # "geometric" | "numbering" | "auto"
    #: execution engine for the cluster path: "sequential" (deterministic
    #: token-passing), "sim" (the same scheduling plus a cost clock,
    #: reports simulated makespan — the paper default) or "process" (one
    #: OS process per PE) — all bit-identical
    engine: str = "sim"
    #: receive timeout in seconds for engines that detect deadlocks by
    #: timeout (process; sequential and sim detect them structurally).
    #: None → $REPRO_RECV_TIMEOUT_S → 60 s.
    recv_timeout_s: Optional[float] = None

    # -- resilience (repro.resilience) ---------------------------------
    #: fault-injection spec, e.g. "pe1:crash@refine:level2,drop=0.01"
    #: (None → no injected faults); see repro.resilience.faults
    faults: Optional[str] = None
    #: directory for phase-boundary checkpoints (None → checkpointing
    #: off); an existing directory from the same run resumes from it
    checkpoint_dir: Optional[str] = None
    #: which phase boundaries write checkpoints: "all", "none", or a
    #: comma list of families from {"coarsening","initial","refine","final"}
    checkpoint_phases: str = "all"
    #: process-engine supervisor reaction to a dead/hung PE:
    #: "fail" (raise), "restart" (relaunch the gang; checkpoints make it
    #: cheap) or "degrade" (continue on the survivors)
    on_pe_failure: str = "fail"
    #: gang relaunches the supervisor may spend before giving up
    max_restarts: int = 2
    #: declare a PE hung after this many seconds without a heartbeat
    #: (None → hang detection off; must exceed the longest phase)
    heartbeat_timeout_s: Optional[float] = None
    #: extra recv attempts with doubled timeout before DeadlockError
    recv_retries: int = 0

    # -- hot-path kernels (repro.kernels) ------------------------------
    #: backend for the registered hot-path kernels: "numpy" (vectorised,
    #: the default) or "python" (reference loops, bit-identical, slow)
    kernel_backend: str = "numpy"

    # -- observability (repro.instrument / repro.observability) --------
    #: runtime invariant checking: "off" (no cost) | "sampled" (subset of
    #: levels, violations collected) | "strict" (every level, first
    #: violation raises InvariantViolation)
    check_invariants: str = "off"
    #: per-PE telemetry (span timelines, comm matrix, metrics registry)
    #: on the cluster path; off by default — the hot paths then pay one
    #: ``is None`` test per hook.  The CLI's ``--trace-events``/
    #: ``--metrics``/``--journal`` flags switch it on.
    observe: bool = False

    name: str = "fast"

    def derive(self, **kwargs) -> "KappaConfig":
        """A copy with some fields replaced (presets are frozen)."""
        return replace(self, **kwargs)

    def __post_init__(self) -> None:
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if self.objective not in ("cut", "mapping"):
            raise ValueError(
                f"unknown objective {self.objective!r}; "
                "choose from ('cut', 'mapping')"
            )
        if self.objective == "mapping" and self.refine_algorithm != "fm":
            raise ValueError(
                "the mapping objective requires refine_algorithm='fm' "
                "(the flow refiner only understands the cut objective)"
            )
        if self.topology is not None:
            if self.objective != "mapping":
                raise ValueError(
                    "topology is only meaningful with objective='mapping'"
                )
            from .objectives import Topology
            Topology.parse(self.topology)  # fail fast on a bad spec
        if self.epsilons is not None:
            if len(self.epsilons) == 0:
                raise ValueError("epsilons must not be empty")
            if any(e < 0 for e in self.epsilons):
                raise ValueError("every epsilon must be non-negative")
        if not (0 < self.fm_alpha <= 1):
            raise ValueError("fm_alpha must lie in (0, 1]")
        if self.stop_rule not in ("always", "no_change", "twice_no_change"):
            raise ValueError(f"unknown stop_rule {self.stop_rule!r}")
        if self.init_repeats < 1:
            raise ValueError("init_repeats must be >= 1")
        if self.max_global_iterations < 1 or self.local_iterations < 1:
            raise ValueError("iteration counts must be >= 1")
        if self.bfs_band_depth < 1:
            raise ValueError("bfs_band_depth must be >= 1")
        if self.incremental_band_width < 1:
            raise ValueError("incremental_band_width must be >= 1")
        if self.drift_threshold < 0:
            raise ValueError("drift_threshold must be non-negative")
        if self.refine_algorithm not in ("fm", "flow", "fm_flow"):
            raise ValueError(
                f"unknown refine_algorithm {self.refine_algorithm!r}"
            )
        if self.kernel_backend not in KERNEL_BACKENDS:
            raise ValueError(
                f"unknown kernel_backend {self.kernel_backend!r}; "
                f"choose from {KERNEL_BACKENDS}"
            )
        # deferred import: the engine package is heavier than config and
        # only the registry keys are needed for validation
        from ..engine import ENGINES
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; "
                f"choose from {sorted(ENGINES)}"
            )
        if self.recv_timeout_s is not None and self.recv_timeout_s <= 0:
            raise ValueError("recv_timeout_s must be positive")
        if self.check_invariants not in ("off", "sampled", "strict"):
            raise ValueError(
                f"unknown check_invariants mode {self.check_invariants!r}; "
                "choose from ('off', 'sampled', 'strict')"
            )
        # resilience knobs (validated eagerly so a bad --faults spec
        # fails at config construction, not mid-run on every PE)
        if self.faults:
            from ..resilience.faults import FaultPlan
            FaultPlan.parse(self.faults)
        if self.checkpoint_phases not in ("all", "none"):
            families = {p.strip()
                        for p in self.checkpoint_phases.split(",") if p.strip()}
            bad = families - {"coarsening", "initial", "refine", "final"}
            if bad or not families:
                raise ValueError(
                    f"bad checkpoint_phases {self.checkpoint_phases!r}: "
                    "expected 'all', 'none' or a comma list of "
                    "{'coarsening','initial','refine','final'}"
                )
        from ..resilience.policy import ON_FAILURE_MODES
        if self.on_pe_failure not in ON_FAILURE_MODES:
            raise ValueError(
                f"unknown on_pe_failure {self.on_pe_failure!r}; "
                f"choose from {ON_FAILURE_MODES}"
            )
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.recv_retries < 0:
            raise ValueError("recv_retries must be >= 0")
        if (self.heartbeat_timeout_s is not None
                and self.heartbeat_timeout_s <= 0):
            raise ValueError("heartbeat_timeout_s must be positive")


MINIMAL = KappaConfig(
    name="minimal",
    init_repeats=1,
    bfs_band_depth=1,
    stop_rule="always",
    max_global_iterations=1,
    local_iterations=1,
    fm_alpha=0.01,
)

FAST = KappaConfig(name="fast")

STRONG = KappaConfig(
    name="strong",
    init_repeats=5,
    bfs_band_depth=20,
    stop_rule="twice_no_change",
    max_global_iterations=15,
    local_iterations=5,
    fm_alpha=0.20,
)

#: The strengthened strategy of Section 6.3 (Walshaw benchmark): strong,
#: BFS depth 20, FM patience 30 %.  The 3-ratings × 50-repeats outer loop
#: lives in :mod:`repro.walshaw.runner`, not in the config.
WALSHAW = STRONG.derive(name="walshaw", fm_alpha=0.30)

#: Topology-aware mapping: the *fast* schedule optimising communication
#: volume × machine distance instead of the plain cut.  The topology
#: defaults to a two-tier factorisation of k (Topology.default_for) and
#: can be overridden with ``derive(topology="2:4")`` / ``--topology``.
MAPPING = KappaConfig(name="mapping", objective="mapping")

_PRESETS = {
    "minimal": MINIMAL,
    "fast": FAST,
    "strong": STRONG,
    "walshaw": WALSHAW,
    "mapping": MAPPING,
}


def preset(name: str) -> KappaConfig:
    """Look up a named preset ("minimal" / "fast" / "strong" / "walshaw")."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; choose from {sorted(_PRESETS)}"
        ) from None
