"""Hot-path kernel registry with interchangeable backends.

The four hottest inner loops of the multilevel pipeline are pluggable
kernels with interchangeable implementations:

=================  ====================================================
kernel             computes
=================  ====================================================
``edge_ratings``   §3.1 edge ratings over an edge list
``contract_edges`` §2 contraction aggregation (coarse CSR + weights)
``gain_boundary``  §5.2 initial FM gains + boundary node set
``band_bfs``       §5.2 bounded BFS for boundary-band extraction
=================  ====================================================

Backends: ``python`` (reference per-node loops) and ``numpy``
(vectorised, the default) — bit-identical by construction and by the
differential test suite.  Select the process default via
:func:`set_backend`, a block of code via :func:`use_backend`
(context-local, so concurrent runs on different threads stay apart),
per run via ``KappaConfig.kernel_backend``, or on the command line via
``--kernel-backend``.  Install a tracer with :func:`use_tracer` to
surface per-kernel call counts and wall time in ``--trace`` output.
"""

from .registry import (
    BACKENDS,
    DEFAULT_BACKEND,
    dispatch,
    get_backend,
    get_kernel,
    kernel_names,
    register,
    set_backend,
    set_tracer,
    use_backend,
    use_tracer,
)

# importing the backend modules registers every kernel implementation
from . import python_backend  # noqa: F401  (registration side effect)
from . import numpy_backend   # noqa: F401  (registration side effect)

# There is no JIT backend.  The constant stays only because the
# benchmark's provenance record (perfbench/common.py) still reads it;
# it goes once the benchmark stops doing so.
NUMBA_AVAILABLE = False

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "dispatch",
    "get_backend",
    "get_kernel",
    "kernel_names",
    "register",
    "set_backend",
    "set_tracer",
    "use_backend",
    "use_tracer",
]
