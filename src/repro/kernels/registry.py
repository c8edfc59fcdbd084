"""Kernel registry: named hot-path kernels with swappable backends.

The four hottest inner loops of the multilevel scheme — edge-rating
computation (§3.1), contraction edge-merging (§2), FM gain/boundary
construction (§5.2) and the bounded band BFS (§5.2) — are registered
here under interchangeable backends:

* ``python`` — straight-line per-node/per-edge reference loops, the
  executable specification of each kernel;
* ``numpy``  — vectorised equivalents over the CSR arrays
  (bincount / segment-reduce idioms), bit-identical to the reference;
* ``numba``  — the reference loops compiled with ``@njit(nogil=True)``
  when numba is installed, a warn-once delegation to ``numpy`` when it
  is not (numba is an optional dependency, ``repro[numba]``).

Call sites go through :func:`dispatch`, which resolves the active
backend (see :func:`set_backend` / :func:`use_backend`) and, when a live
:class:`~repro.instrument.Tracer` is installed via :func:`use_tracer`,
records a per-kernel call counter and cumulative wall time — so backend
speedups show up directly in ``--trace`` output.

:func:`set_backend` / :func:`set_tracer` change the process-wide
default; :func:`use_backend` / :func:`use_tracer` override it in the
current :mod:`contextvars` context only, so concurrent runs on different
threads (``repro serve`` jobs) neither see each other's backend nor
count into each other's tracer.  A thread starts from the defaults;
code that fans work out to threads (the sequential and sim engines'
per-PE carriers) runs it in a copy of the caller's context.

Adding a kernel: implement it in both backend modules and decorate each
with ``@register("<name>", "<backend>")``.  The differential test suite
(``tests/test_kernel_equivalence.py``) asserts every registered kernel
agrees across backends on hypothesis-generated graphs.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Dict, Iterator, Optional, Tuple

from ..instrument import NULL_TRACER

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "register",
    "get_kernel",
    "kernel_names",
    "dispatch",
    "get_backend",
    "set_backend",
    "use_backend",
    "set_tracer",
    "use_tracer",
]

#: the interchangeable implementations of every kernel
BACKENDS: Tuple[str, ...] = ("python", "numpy", "numba")

#: the fast path is the default; ``python`` is the reference/debug path
DEFAULT_BACKEND: str = "numpy"

_registry: Dict[str, Dict[str, Callable]] = {}
#: process-wide defaults (``set_*``) and context-local overrides (``use_*``)
_default_backend: str = DEFAULT_BACKEND
_default_tracer = NULL_TRACER
_backend_override: ContextVar[Optional[str]] = ContextVar(
    "repro_kernel_backend", default=None)
_tracer_override: ContextVar[Optional[object]] = ContextVar(
    "repro_kernel_tracer", default=None)


def _check_backend(backend: str) -> str:
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown kernel backend {backend!r}; choose from {BACKENDS}"
        )
    return backend


def register(name: str, backend: str) -> Callable[[Callable], Callable]:
    """Decorator: register ``fn`` as the ``backend`` implementation of
    kernel ``name``.  Registering the same (name, backend) twice is an
    error — it would silently shadow a kernel under test."""
    _check_backend(backend)

    def deco(fn: Callable) -> Callable:
        impls = _registry.setdefault(name, {})
        if backend in impls:
            raise ValueError(f"kernel {name!r} already has a {backend!r} backend")
        impls[backend] = fn
        return fn

    return deco


def kernel_names() -> Tuple[str, ...]:
    """All registered kernel names (sorted)."""
    return tuple(sorted(_registry))


def get_kernel(name: str, backend: str = None) -> Callable:
    """Look up one kernel implementation (active backend by default)."""
    try:
        impls = _registry[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel {name!r}; registered: {kernel_names()}"
        ) from None
    backend = get_backend() if backend is None else _check_backend(backend)
    try:
        return impls[backend]
    except KeyError:
        raise ValueError(
            f"kernel {name!r} has no {backend!r} backend "
            f"(available: {tuple(sorted(impls))})"
        ) from None


def get_backend() -> str:
    """The backend active in the current context."""
    override = _backend_override.get()
    return _default_backend if override is None else override


def set_backend(backend: str) -> str:
    """Switch the process-wide default backend; returns the previous
    default.  A :func:`use_backend` block still takes precedence."""
    global _default_backend
    previous = _default_backend
    _default_backend = _check_backend(backend)
    return previous


@contextmanager
def use_backend(backend: str) -> Iterator[None]:
    """Run the block on ``backend`` (this context only; restored on
    exit)."""
    token = _backend_override.set(_check_backend(backend))
    try:
        yield
    finally:
        _backend_override.reset(token)


def _get_tracer():
    override = _tracer_override.get()
    return _default_tracer if override is None else override


def set_tracer(tracer) -> object:
    """Install the process-wide default tracer that :func:`dispatch`
    reports timings to; returns the previous default.  Pass
    :data:`~repro.instrument.NULL_TRACER` (or ``None``) to disable."""
    global _default_tracer
    previous = _default_tracer
    _default_tracer = NULL_TRACER if tracer is None else tracer
    return previous


@contextmanager
def use_tracer(tracer) -> Iterator[None]:
    """Report kernel timings to ``tracer`` inside the block (this context
    only; restored on exit)."""
    token = _tracer_override.set(NULL_TRACER if tracer is None else tracer)
    try:
        yield
    finally:
        _tracer_override.reset(token)


def dispatch(name: str, *args, **kwargs):
    """Run kernel ``name`` on the active backend.

    With a live tracer installed the call is timed and accumulated into
    the counters ``kernel_<name>_calls`` / ``kernel_<name>_s`` of the
    innermost open phase; with :data:`NULL_TRACER` (the default) the
    overhead is two dict lookups.
    """
    fn = get_kernel(name)
    tracer = _get_tracer()
    if not tracer.enabled:
        return fn(*args, **kwargs)
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    tracer.count(f"kernel_{name}_calls")
    tracer.count(f"kernel_{name}_s", time.perf_counter() - t0)
    return out
