"""Differential equivalence tests for the hot-path kernel backends.

Every kernel registered in :mod:`repro.kernels` ships a ``python``
reference implementation, a vectorised ``numpy`` one and a ``numba``
one (JIT replicas of the reference loops; a warn-once delegation to
numpy when numba is not installed).  These tests assert all backends
are **bit-identical** — same ratings, same contracted CSR, same gains
and boundary sets, same band levels — on hypothesis-generated graphs
and on the generator families, and that whole pipeline runs are
deterministic and backend-independent (fixed seed ⇒ identical partition
vector and edge cut).  The JIT-specific assertions skip cleanly when
numba is unavailable; the fallback path is covered either way.
"""

import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.coarsening.matching import dispatch as run_matching
from repro.core import FAST, KappaPartitioner
from repro.engine import get_engine
from repro.instrument import Tracer
from repro.kernels import numba_backend
from repro.kernels.numba_backend import NUMBA_AVAILABLE
from repro.kernels.python_backend import RATING_NAMES
from repro.refinement.band import extract_band
from tests.conftest import random_graphs

KERNEL_NAMES = ("band_bfs", "contract_edges", "edge_ratings", "gain_boundary")


def run_all(name, *args):
    """One call per registered backend, in ``BACKENDS`` order."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return tuple(kernels.get_kernel(name, backend)(*args)
                     for backend in kernels.BACKENDS)


def coarse_map_of(g, seed):
    """A valid coarse mapping from a real matching of ``g``."""
    m = run_matching(g, rng=np.random.default_rng(seed))
    rep = np.minimum(np.arange(g.n, dtype=np.int64), m)
    uniq, cmap = np.unique(rep, return_inverse=True)
    return cmap, len(uniq)


# ----------------------------------------------------------------------
# registry behaviour
# ----------------------------------------------------------------------
class TestRegistry:
    def test_all_kernels_have_every_backend(self):
        assert kernels.kernel_names() == KERNEL_NAMES
        assert "numba" in kernels.BACKENDS
        for name in KERNEL_NAMES:
            for backend in kernels.BACKENDS:
                assert callable(kernels.get_kernel(name, backend))

    @pytest.mark.skipif(NUMBA_AVAILABLE,
                        reason="fallback path only exists without numba")
    def test_numba_fallback_warns_once_not_errors(self, rgg128,
                                                  monkeypatch):
        """Without numba the backend still registers all four kernels and
        the first call emits a single RuntimeWarning — never an error."""
        monkeypatch.setattr(numba_backend, "_FALLBACK_WARNED", False)
        us, vs, ws = rgg128.edge_array()
        side = np.zeros(rgg128.n, dtype=np.int64)
        with warnings.catch_warnings(record=True) as wlist:
            warnings.simplefilter("always")
            kernels.get_kernel("edge_ratings", "numba")(
                rgg128, us, vs, ws, "weight")
            kernels.get_kernel("gain_boundary", "numba")(rgg128, side)
        hits = [w for w in wlist
                if issubclass(w.category, RuntimeWarning)
                and "numba" in str(w.message)]
        assert len(hits) == 1
        assert "repro[numba]" in str(hits[0].message)

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            kernels.get_kernel("nope")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.get_kernel("band_bfs", "cython")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.set_backend("cython")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already has"):
            kernels.register("band_bfs", "numpy")(lambda: None)

    def test_use_backend_switches_and_restores(self):
        assert kernels.get_backend() == "numpy"
        with kernels.use_backend("python"):
            assert kernels.get_backend() == "python"
            assert (kernels.get_kernel("edge_ratings")
                    is kernels.get_kernel("edge_ratings", "python"))
        assert kernels.get_backend() == "numpy"

    def test_dispatch_times_kernels_into_tracer(self, rgg128):
        us, vs, ws = rgg128.edge_array()
        tr = Tracer()
        with kernels.use_tracer(tr):
            with tr.phase("test"):
                kernels.dispatch("edge_ratings", rgg128, us, vs, ws, "weight")
        counters = tr.counters()
        assert counters["kernel_edge_ratings_calls"] == 1
        assert counters["kernel_edge_ratings_s"] >= 0.0

    def test_overrides_are_local_to_each_thread(self, rgg128):
        # two concurrent runs, interleaved by barriers: each tracer counts
        # only its own thread's calls, each thread sees its own backend,
        # and the out-of-order exits leave the process default in place
        us, vs, ws = rgg128.edge_array()
        step = threading.Barrier(2, timeout=30)
        tracers = [Tracer(), Tracer()]
        seen = [None, None]
        errors = []

        def job(i):
            try:
                with kernels.use_tracer(tracers[i]), \
                        kernels.use_backend("python"):
                    step.wait()   # both overrides installed
                    with tracers[i].phase("job"):
                        for _ in range(i + 1):
                            kernels.dispatch("edge_ratings", rgg128, us, vs,
                                             ws, "weight")
                    seen[i] = kernels.get_backend()
                    step.wait()   # both done dispatching
                    if i == 1:
                        step.wait()   # thread 0 exits its blocks first
                if i == 0:
                    step.wait()
            except BaseException as exc:  # pragma: no cover - reported
                errors.append(exc)

        threads = [threading.Thread(target=job, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert not errors
        assert [tr.counters()["kernel_edge_ratings_calls"]
                for tr in tracers] == [1, 2]
        assert seen == ["python", "python"]
        assert kernels.get_backend() == kernels.DEFAULT_BACKEND

    def test_set_backend_is_the_process_default(self):
        previous = kernels.set_backend("python")
        try:
            seen = []
            t = threading.Thread(
                target=lambda: seen.append(kernels.get_backend()))
            t.start()
            t.join(timeout=60)
            assert seen == ["python"]
            with kernels.use_backend("numpy"):
                assert kernels.get_backend() == "numpy"
            assert kernels.get_backend() == "python"
        finally:
            kernels.set_backend(previous)
        assert kernels.get_backend() == "numpy"

    @pytest.mark.parametrize("engine", ["sequential"])
    def test_engine_pes_inherit_the_callers_context(self, engine):
        with kernels.use_backend("python"):
            res = get_engine(engine, 2).run(
                lambda comm: kernels.get_backend())
        assert res.results == ["python"] * 2


# ----------------------------------------------------------------------
# per-kernel differential equivalence (hypothesis)
# ----------------------------------------------------------------------
class TestEdgeRatingsEquivalence:
    @pytest.mark.parametrize("rating", RATING_NAMES)
    @given(g=random_graphs(max_n=24, weighted=True))
    @settings(max_examples=25, deadline=None)
    def test_identical_ratings(self, g, rating):
        us, vs, ws = g.edge_array()
        ref, *rest = run_all("edge_ratings", g, us, vs, ws, rating)
        assert ref.dtype == np.float64
        for fast in rest:
            assert fast.dtype == np.float64
            assert np.array_equal(ref, fast)

    @pytest.mark.parametrize("backend", kernels.BACKENDS)
    def test_unknown_rating_rejected(self, rgg128, backend):
        us, vs, ws = rgg128.edge_array()
        with pytest.raises(ValueError, match="unknown rating"):
            kernels.get_kernel("edge_ratings", backend)(
                rgg128, us, vs, ws, "nope")


class TestContractEquivalence:
    @given(g=random_graphs(max_n=24, weighted=True),
           seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_identical_coarse_csr(self, g, seed):
        cmap, n_coarse = coarse_map_of(g, seed)
        ref, *rest = run_all("contract_edges", g, cmap, n_coarse)
        for fast in rest:
            for name, a, b in zip(("xadj", "adjncy", "adjwgt", "vwgt"),
                                  ref, fast):
                assert np.array_equal(a, b), f"{name} differs"

    @pytest.mark.parametrize("family", ["rgg", "delaunay", "social"])
    def test_generator_families(self, pipeline_graphs, family):
        g = pipeline_graphs[family]
        cmap, n_coarse = coarse_map_of(g, seed=11)
        ref, *rest = run_all("contract_edges", g, cmap, n_coarse)
        for fast in rest:
            for a, b in zip(ref, fast):
                assert np.array_equal(a, b)


class TestGainBoundaryEquivalence:
    @given(g=random_graphs(max_n=24, weighted=True),
           seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_identical_gains_and_boundary(self, g, seed):
        side = np.random.default_rng(seed).integers(
            0, 2, size=g.n).astype(np.int8)
        (gains_ref, bnd_ref), *rest = run_all("gain_boundary", g, side)
        for gains_fast, bnd_fast in rest:
            assert np.array_equal(gains_ref, gains_fast)
            assert np.array_equal(bnd_ref, bnd_fast)

    @given(g=random_graphs(max_n=24, weighted=True),
           seed=st.integers(0, 2**31 - 1),
           scale=st.sampled_from([1.0, 2.0, 3.0]))
    @settings(max_examples=25, deadline=None)
    def test_identical_with_scale_and_bias(self, g, seed, scale):
        """The mapping-objective extension (``gain' = scale·gain + bias``)
        must stay bit-identical across backends too."""
        rng = np.random.default_rng(seed)
        side = rng.integers(0, 2, size=g.n).astype(np.int8)
        bias = rng.integers(-5, 6, size=g.n).astype(np.float64)
        (gains_ref, bnd_ref), *rest = run_all(
            "gain_boundary", g, side, scale, bias)
        for gains_fast, bnd_fast in rest:
            assert np.array_equal(gains_ref, gains_fast)
            assert np.array_equal(bnd_ref, bnd_fast)

    def test_scale_one_no_bias_matches_plain_call(self, rgg128):
        """Defaulted extras are the bit-identical classic path."""
        side = (np.arange(rgg128.n) % 2).astype(np.int8)
        for backend in kernels.BACKENDS:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                fn = kernels.get_kernel("gain_boundary", backend)
                gains_a, bnd_a = fn(rgg128, side)
                gains_b, bnd_b = fn(rgg128, side, 1.0, None)
            assert np.array_equal(gains_a, gains_b)
            assert np.array_equal(bnd_a, bnd_b)


class TestBandBFSEquivalence:
    @given(g=random_graphs(max_n=24, weighted=True, connected=True),
           seed=st.integers(0, 2**31 - 1),
           depth=st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_identical_levels(self, g, seed, depth):
        rng = np.random.default_rng(seed)
        n_seeds = int(rng.integers(1, max(2, g.n // 2)))
        seeds = rng.choice(g.n, size=min(n_seeds, g.n), replace=False)
        allowed = rng.random(g.n) < 0.8
        allowed[seeds] = True
        ref, *rest = run_all("band_bfs", g, seeds, allowed, depth)
        for fast in rest:
            assert np.array_equal(ref, fast)

    @given(g=random_graphs(max_n=24, weighted=True, connected=True),
           seed=st.integers(0, 2**31 - 1),
           depth=st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_identical_levels_with_region_labels(self, g, seed, depth):
        """Per-node region labels (``-1``: none): identical on every
        backend, and each region searched as if on its own."""
        rng = np.random.default_rng(seed)
        region = rng.integers(-1, 3, size=g.n)
        seeds = np.flatnonzero(rng.random(g.n) < 0.3)
        ref, *rest = run_all("band_bfs", g, seeds, region, depth)
        for fast in rest:
            assert np.array_equal(ref, fast)
        expect = np.full(g.n, -1, dtype=np.int64)
        expect[seeds] = 0
        for r in range(3):
            mine = seeds[region[seeds] == r]
            if len(mine):
                lv, *_ = run_all("band_bfs", g, mine, region == r, depth)
                expect[lv > 0] = lv[lv > 0]
        assert np.array_equal(ref, expect)

    @pytest.mark.parametrize("depth", [1, 5, 20])
    def test_extract_band_identical_across_backends(self, delaunay300,
                                                    depth):
        part = (np.arange(delaunay300.n) >= delaunay300.n // 2).astype(
            np.int64)
        bands = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for backend in kernels.BACKENDS:
                with kernels.use_backend(backend):
                    band, pair = extract_band(delaunay300, part, 0, 1,
                                              depth)
                bands.append((band, pair))
        (b_ref, p_ref), *rest = bands
        for b_fast, p_fast in rest:
            assert b_ref.graph == b_fast.graph
            assert np.array_equal(b_ref.smap.to_parent,
                                  b_fast.smap.to_parent)
            assert np.array_equal(b_ref.side, b_fast.side)
            assert np.array_equal(b_ref.movable, b_fast.movable)
            assert b_ref.n_boundary == b_fast.n_boundary
            assert np.array_equal(p_ref, p_fast)


# ----------------------------------------------------------------------
# golden determinism: whole pipeline, both backends, repeated runs
# ----------------------------------------------------------------------
class TestGoldenDeterminism:
    """Fixed seed ⇒ identical edge cut and partition vector across every
    backend and across repeated runs (k ∈ {2, 4, 8}, three families)."""

    SEED = 42

    @pytest.mark.parametrize("family", ["rgg", "delaunay", "social"])
    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_backends_and_reruns_agree(self, golden_graphs, family, k):
        g = golden_graphs[family]
        runs = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            # repeat the default backend to cover rerun determinism too
            for backend in ("python", "numpy", "numba", "numpy"):
                cfg = FAST.derive(kernel_backend=backend)
                res = KappaPartitioner(cfg).partition(g, k, seed=self.SEED)
                runs.append((res.cut, res.partition.part))
        cut0, part0 = runs[0]
        for cut, part in runs[1:]:
            assert cut == cut0
            assert np.array_equal(part, part0)

    @pytest.mark.parametrize("family", ["rgg", "delaunay"])
    def test_constrained_modes_agree_across_backends(self, golden_graphs,
                                                     family):
        """Mapping objective + fixed vertices + a second weight dimension:
        the new modes must be backend-independent like the classic path."""
        from repro.graph.csr import Graph

        base = golden_graphs[family]
        rng = np.random.default_rng(7)
        vwgts = np.column_stack(
            [base.vwgt, rng.integers(1, 5, base.n).astype(float)])
        fixed = np.full(base.n, -1, dtype=np.int64)
        fixed[:: 19] = np.arange(0, base.n, 19) % 8
        g = Graph(base.xadj, base.adjncy, base.adjwgt, base.vwgt,
                  coords=base.coords, vwgts=vwgts, fixed=fixed)
        runs = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for backend in ("python", "numpy", "numba"):
                cfg = FAST.derive(kernel_backend=backend,
                                  objective="mapping", topology="2:4",
                                  epsilons=(0.03, 0.25))
                res = KappaPartitioner(cfg).partition(g, 8, seed=self.SEED)
                runs.append((res.cut, res.partition.part))
        cut0, part0 = runs[0]
        for cut, part in runs[1:]:
            assert cut == cut0
            assert np.array_equal(part, part0)
        pinned = fixed >= 0
        assert np.array_equal(part0[pinned], fixed[pinned])


@pytest.fixture(scope="session")
def golden_graphs(rgg128, delaunay300, social300):
    return {"rgg": rgg128, "delaunay": delaunay300, "social": social300}


@pytest.fixture(scope="session")
def pipeline_graphs(rgg128, delaunay300, social300):
    return {"rgg": rgg128, "delaunay": delaunay300, "social": social300}
