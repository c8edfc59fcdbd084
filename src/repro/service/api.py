"""The library/service API split: ``PartitionRequest -> PartitionResult``.

Everything above :mod:`repro.core` — the HTTP server, the job queue,
the result cache, the CLI — talks to the partitioner through this
facade instead of driving :class:`~repro.core.KappaPartitioner`
directly.  A request is pure data (JSON-able), a result is pure data
(JSON-able), and the mapping between them is deterministic, which is
what makes results cacheable and a remote call indistinguishable from a
library call.

Cache identity reuses the checkpoint identity from the resilience
layer: :func:`repro.resilience.checkpoint.config_hash` over the
*algorithmic* config fields (engine/backend/telemetry excluded — they
cannot change the partition) plus the graph content signature
(:meth:`Graph.cached_signature`, the memoized fast path), plus the
request fields that live outside the config (``k``, ``seed``,
``execution``, ``n_pes``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

import numpy as np

from ..core.config import KappaConfig, preset
from ..core.partitioner import KappaResult, KappaPartitioner
from ..graph.csr import Graph
from ..refinement.balance import is_feasible
from ..resilience.checkpoint import config_hash

__all__ = [
    "RequestError",
    "PartitionRequest",
    "PartitionResult",
    "execute_request",
]

#: request fields accepted as KappaConfig overrides over the wire; an
#: allowlist, so a request cannot toggle arbitrary config machinery
#: (fault injection, checkpoint dirs, ...) on the server
WIRE_OPTIONS = (
    "epsilon", "epsilons", "objective", "topology", "seed",
    "init_repeats", "max_levels", "rating", "matching",
    "refine_algorithm", "drift_threshold", "incremental_band_width",
)


class RequestError(ValueError):
    """The request is malformed (client error → 400)."""


@dataclass(frozen=True)
class PartitionRequest:
    """One partitioning job, as pure data.

    ``options`` holds :class:`KappaConfig` overrides from
    :data:`WIRE_OPTIONS` (server-side callers may pass any ``derive``
    kwarg — the allowlist is enforced at the wire boundary by
    :meth:`from_json`, not here, so the CLI can keep using engine /
    resilience / telemetry knobs through the same facade).
    """

    k: int
    preset: str = "fast"
    seed: int = 0
    execution: str = "sequential"
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise RequestError("k must be >= 1")
        if self.execution not in ("sequential", "cluster"):
            raise RequestError(
                f"unknown execution mode {self.execution!r}")

    def config(self) -> KappaConfig:
        """The resolved :class:`KappaConfig` (raises
        :class:`RequestError` on bad presets/overrides)."""
        try:
            cfg = preset(self.preset)
            if self.options:
                cfg = cfg.derive(**dict(self.options))
            return cfg
        except (TypeError, ValueError) as exc:
            raise RequestError(str(exc)) from None

    def cache_key(self, g: Graph,
                  cfg: Optional[KappaConfig] = None) -> str:
        """Deterministic result-cache / checkpoint-style identity."""
        return self.signature_key(g.cached_signature(), cfg)

    def signature_key(self, signature: str,
                      cfg: Optional[KappaConfig] = None) -> str:
        """:meth:`cache_key` for the graph whose content signature is
        ``signature`` — a lookup that needs no :class:`Graph`."""
        cfg = self.config() if cfg is None else cfg
        pes = cfg.n_pes if cfg.n_pes is not None else self.k
        return (f"{config_hash(cfg)}:{signature}"
                f":k={self.k}:seed={self.seed}"
                f":exec={self.execution}:pes={pes}")

    # -- wire format -----------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"k": self.k, "preset": self.preset,
                               "seed": self.seed}
        if self.execution != "sequential":
            doc["execution"] = self.execution
        doc.update({name: value for name, value in self.options.items()
                    if name in WIRE_OPTIONS})
        return doc

    @classmethod
    def from_json(cls, doc: Mapping[str, Any]) -> "PartitionRequest":
        if not isinstance(doc, Mapping):
            raise RequestError("request must be a JSON object")
        if "k" not in doc:
            raise RequestError("request needs 'k'")
        try:
            k = int(doc["k"])
            seed = int(doc.get("seed", 0))
        except (TypeError, ValueError):
            raise RequestError("'k' and 'seed' must be integers") from None
        options = {}
        for name in WIRE_OPTIONS:
            if name in doc and name != "seed":
                value = doc[name]
                if name == "epsilons" and value is not None:
                    try:
                        value = tuple(float(e) for e in value)
                    except (TypeError, ValueError):
                        raise RequestError(
                            "'epsilons' must be a list of numbers"
                        ) from None
                options[name] = value
        req = cls(k=k, preset=str(doc.get("preset", "fast")), seed=seed,
                  execution=str(doc.get("execution", "sequential")),
                  options=options)
        req.config()  # fail fast: surface bad presets/overrides as 400
        return req


@dataclass
class PartitionResult:
    """A finished partition, as pure data (what the service returns and
    what the result cache stores)."""

    part: np.ndarray
    k: int
    n: int
    m: int
    cut: float
    balance: float
    feasible: bool
    time_s: float
    cache_key: str = ""
    cached: bool = False
    mapping_cost: Optional[float] = None
    stats: Dict[str, float] = field(default_factory=dict)
    #: the full library-level result (tracer doc, obs, metrics); carried
    #: for in-process callers, never serialized
    kappa: Optional[KappaResult] = None

    @property
    def nbytes(self) -> int:
        """Approximate retained size — what the cache budget charges."""
        return int(self.part.nbytes) + 512

    def as_cached(self) -> "PartitionResult":
        """A hit served from the cache: same data, ``cached`` flag set,
        no retained :class:`KappaResult` (the cache stores data, not
        live tracer state)."""
        return PartitionResult(
            part=self.part, k=self.k, n=self.n, m=self.m, cut=self.cut,
            balance=self.balance, feasible=self.feasible,
            time_s=self.time_s, cache_key=self.cache_key, cached=True,
            mapping_cost=self.mapping_cost, stats=dict(self.stats),
        )

    def to_json(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "part": [int(b) for b in self.part],
            "k": self.k, "n": self.n, "m": self.m,
            "cut": float(self.cut), "balance": float(self.balance),
            "feasible": bool(self.feasible),
            "time_s": float(self.time_s),
            "cache_key": self.cache_key,
            "cached": bool(self.cached),
        }
        if self.mapping_cost is not None:
            doc["mapping_cost"] = float(self.mapping_cost)
        if self.stats:
            doc["stats"] = {name: float(value)
                            for name, value in self.stats.items()}
        return doc

    @classmethod
    def from_json(cls, doc: Mapping[str, Any]) -> "PartitionResult":
        return cls(
            part=np.asarray(doc["part"], dtype=np.int64),
            k=int(doc["k"]), n=int(doc["n"]), m=int(doc["m"]),
            cut=float(doc["cut"]), balance=float(doc["balance"]),
            feasible=bool(doc["feasible"]), time_s=float(doc["time_s"]),
            cache_key=str(doc.get("cache_key", "")),
            cached=bool(doc.get("cached", False)),
            mapping_cost=(float(doc["mapping_cost"])
                          if doc.get("mapping_cost") is not None else None),
            stats=dict(doc.get("stats") or {}),
        )


def execute_request(g: Graph, request: PartitionRequest,
                    tracer=None, observe: bool = False) -> PartitionResult:
    """Run one request against the library — the single entry point the
    service workers (and the CLI) call.

    Deterministic: the same ``(graph, request)`` pair always produces a
    bit-identical partition, which is the property the result cache and
    the service's bit-identical-to-library guarantee rest on.

    ``observe=True`` turns on per-PE telemetry (causal events, comm
    matrix) for *this run only* — the cache key stays that of the base
    config, because observability never changes the partition; the job
    layer uses this to produce trace + analysis artifacts without
    forking the cache keyspace.
    """
    cfg = request.config()
    key = request.cache_key(g, cfg)
    run_cfg = cfg.derive(observe=True) \
        if observe and not getattr(cfg, "observe", False) else cfg
    res = KappaPartitioner(run_cfg).partition(
        g, request.k, seed=request.seed, execution=request.execution,
        tracer=tracer,
    )
    feasible = is_feasible(g, res.partition.part, request.k, cfg.epsilon,
                           cfg.epsilons)
    return PartitionResult(
        part=res.partition.part,
        k=request.k, n=g.n, m=g.m,
        cut=float(res.cut), balance=float(res.balance),
        feasible=bool(feasible),
        time_s=float(res.time_s),
        cache_key=key,
        mapping_cost=res.stats.get("mapping_cost"),
        stats={name: float(value) for name, value in res.stats.items()},
        kappa=res,
    )
