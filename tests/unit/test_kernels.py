"""Unit tests for the :mod:`repro.kernels` layer.

Covers the backend switch API, python-vs-numpy equality of every kernel,
eligibility masking, the batched CF maintenance kernel against the
sequential reference (on repeated-point streams too), the compiled
kernel's build cache and fallback, the pairwise-distance cache, and the
deterministic empty-cluster reseed regression.
"""

import os
import pathlib
import pickle
import random
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from repro import kernels, obs
from repro.clustering.kmeans import weighted_kmeans
from repro.clustering.stream import ClusterFeature, OnlineClusterer
from repro.coords.space import EuclideanSpace
from repro.kernels import cf as cfk
from repro.kernels import wkmeans as wk
from repro.kernels.distcache import PairwiseDistanceCache


# ----------------------------------------------------------------------
# Backend switch API
# ----------------------------------------------------------------------
class TestBackendSwitch:
    def test_default_backend_is_valid(self):
        assert kernels.get_backend() in kernels.BACKENDS

    def test_set_backend_roundtrip(self):
        original = kernels.get_backend()
        try:
            kernels.set_backend("python")
            assert kernels.get_backend() == "python"
            kernels.set_backend("numpy")
            assert kernels.get_backend() == "numpy"
        finally:
            kernels.set_backend(original)

    def test_set_backend_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.set_backend("fortran")

    def test_use_backend_restores_on_exit(self):
        original = kernels.get_backend()
        other = "python" if original == "numpy" else "numpy"
        with kernels.use_backend(other):
            assert kernels.get_backend() == other
        assert kernels.get_backend() == original

    def test_use_backend_restores_on_error(self):
        original = kernels.get_backend()
        other = "python" if original == "numpy" else "numpy"
        with pytest.raises(RuntimeError):
            with kernels.use_backend(other):
                raise RuntimeError("boom")
        assert kernels.get_backend() == original

    def test_resolve_backend(self):
        assert kernels.resolve_backend(None) == kernels.get_backend()
        assert kernels.resolve_backend("python") == "python"
        with pytest.raises(ValueError):
            kernels.resolve_backend("cuda")


# ----------------------------------------------------------------------
# Weighted k-means kernels: python == numpy
# ----------------------------------------------------------------------
@pytest.fixture
def cloud():
    rng = np.random.default_rng(7)
    points = rng.normal(size=(60, 3)) * 40.0
    centers = rng.normal(size=(5, 3)) * 40.0
    weights = rng.uniform(0.5, 3.0, size=60)
    return points, centers, weights


class TestWKMeansKernels:
    def test_sq_distances_backends_agree(self, cloud):
        points, centers, _ = cloud
        a = wk.sq_distances(points, centers, backend="numpy")
        b = wk.sq_distances(points, centers, backend="python")
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)

    def test_assign_labels_backends_agree(self, cloud):
        points, centers, _ = cloud
        sq = wk.sq_distances(points, centers, backend="numpy")
        a = wk.assign_labels(sq, backend="numpy")
        b = wk.assign_labels(sq, backend="python")
        np.testing.assert_array_equal(a, b)

    def test_assign_labels_first_minimum_tie_rule(self):
        # Two identical centroids: every point must go to index 0.
        sq = np.array([[2.0, 2.0, 5.0], [1.0, 1.0, 1.0]])
        for backend in kernels.BACKENDS:
            labels = wk.assign_labels(sq, backend=backend)
            np.testing.assert_array_equal(labels, [0, 0])

    def test_assign_labels_eligibility_mask(self, cloud):
        points, centers, _ = cloud
        sq = wk.sq_distances(points, centers, backend="numpy")
        eligible = np.array([False, True, False, True, True])
        for backend in kernels.BACKENDS:
            labels = wk.assign_labels(sq, eligible=eligible, backend=backend)
            assert set(np.unique(labels)) <= {1, 3, 4}
        masked = np.where(eligible[None, :], sq, np.inf)
        np.testing.assert_array_equal(
            wk.assign_labels(sq, eligible=eligible, backend="numpy"),
            np.argmin(masked, axis=1))

    def test_assign_labels_all_ineligible_raises(self):
        sq = np.ones((3, 2))
        for backend in kernels.BACKENDS:
            with pytest.raises(ValueError, match="eligible"):
                wk.assign_labels(sq, eligible=np.zeros(2, dtype=bool),
                                 backend=backend)

    def test_assignment_costs_backends_agree(self, cloud):
        points, centers, weights = cloud
        sq = wk.sq_distances(points, centers, backend="numpy")
        labels = wk.assign_labels(sq, backend="numpy")
        a = wk.assignment_costs(sq, labels, weights, backend="numpy")
        b = wk.assignment_costs(sq, labels, weights, backend="python")
        np.testing.assert_allclose(a, b, rtol=0, atol=0)

    def test_update_centroids_backends_agree(self, cloud):
        points, centers, weights = cloud
        sq = wk.sq_distances(points, centers, backend="numpy")
        labels = wk.assign_labels(sq, backend="numpy")
        costs = wk.assignment_costs(sq, labels, weights, backend="numpy")
        a = wk.update_centroids(points, labels, weights, centers, costs,
                                backend="numpy")
        b = wk.update_centroids(points, labels, weights, centers, costs,
                                backend="python")
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_update_centroids_empty_cluster_reseeds_at_costliest(self):
        points = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 9.0]])
        weights = np.ones(3)
        centers = np.array([[0.0, 0.0], [100.0, 100.0]])
        labels = np.array([0, 0, 0])  # cluster 1 empty
        costs = np.array([0.0, 100.0, 81.0])
        for backend in kernels.BACKENDS:
            new = wk.update_centroids(points, labels, weights, centers,
                                      costs, backend=backend)
            np.testing.assert_array_equal(new[1], points[1])

    def test_cross_distances_backends_agree(self, cloud):
        points, centers, _ = cloud
        heights = np.abs(np.random.default_rng(1).normal(size=5))
        a = wk.cross_distances(points, centers, b_heights=heights,
                               backend="numpy")
        b = wk.cross_distances(points, centers, b_heights=heights,
                               backend="python")
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)

    def test_pairwise_distances_backends_agree(self, cloud):
        points, _, _ = cloud
        heights = np.abs(points[:, 0]) * 0.1
        a = wk.pairwise_distances(points, heights=heights, backend="numpy")
        b = wk.pairwise_distances(points, heights=heights, backend="python")
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)
        np.testing.assert_array_equal(np.diag(a), np.zeros(len(points)))

    @pytest.mark.parametrize("d", [3, 4, 5, 8])
    def test_sq_distances_bitwise_identical(self, d):
        # einsum reassociates the sum over d >= 3; the numpy backend
        # must fold left to right exactly like the scalar loop.
        rng = np.random.default_rng(d)
        for _ in range(20):
            points = rng.normal(size=(30, d)) * 40.0
            centers = rng.normal(size=(6, d)) * 40.0
            np.testing.assert_array_equal(
                wk.sq_distances(points, centers, backend="numpy"),
                wk.sq_distances(points, centers, backend="python"))


# ----------------------------------------------------------------------
# CF kernels
# ----------------------------------------------------------------------
class TestCFKernels:
    def test_deviations_clamps_negative_variance(self):
        # Rounding can push sum2 slightly below n*mean^2.
        counts = np.array([4.0])
        linear = np.array([[8.0, 8.0]])
        square = np.array([[15.999999999, 16.0]])
        dev = cfk.deviations(counts, linear, square)
        assert dev.shape == (1,)
        assert dev[0] >= 0.0

    def test_absorb_stream_matches_sequential_add(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(200, 2)) * 30.0
        weights = rng.uniform(0.5, 2.0, size=200)

        for backend in kernels.BACKENDS:
            reference = OnlineClusterer(8, radius_floor=5.0, backend=backend)
            for p, w in zip(points, weights):
                reference.add(p, weight=float(w))
            batched = OnlineClusterer(8, radius_floor=5.0, backend=backend)
            batched.extend(points, weights)

            assert len(batched) == len(reference)
            for got, want in zip(batched.clusters, reference.clusters):
                assert got.count == want.count
                np.testing.assert_array_equal(got.linear_sum, want.linear_sum)
                np.testing.assert_array_equal(got.square_sum, want.square_sum)
                assert got.weight == want.weight

    def test_absorb_stream_backends_bitwise_identical(self):
        rng = np.random.default_rng(11)
        points = rng.normal(size=(150, 3)) * 25.0
        weights = rng.uniform(0.1, 4.0, size=150)
        results = {}
        for backend in kernels.BACKENDS:
            cl = OnlineClusterer(6, radius_floor=5.0, backend=backend)
            cl.extend(points, weights)
            results[backend] = [(c.count, c.weight, c.linear_sum.copy(),
                                 c.square_sum.copy()) for c in cl.clusters]
        assert len(results["numpy"]) == len(results["python"])
        for a, b in zip(results["numpy"], results["python"]):
            assert a[0] == b[0] and a[1] == b[1]
            np.testing.assert_array_equal(a[2], b[2])
            np.testing.assert_array_equal(a[3], b[3])

    def test_absorb_stream_respects_budget(self):
        rng = np.random.default_rng(5)
        points = rng.uniform(-500, 500, size=(100, 2))
        for backend in kernels.BACKENDS:
            cl = OnlineClusterer(4, radius_floor=1.0, backend=backend)
            cl.extend(points)
            assert len(cl) <= 4

    def test_absorb_stream_stats(self):
        counts, weights, linear, square, stats = cfk.absorb_stream(
            np.zeros(0), np.zeros(0), np.zeros((0, 2)), np.zeros((0, 2)),
            points=np.array([[0.0, 0.0], [0.1, 0.0], [500.0, 0.0]]),
            point_weights=np.ones(3), radius_floor=5.0, max_clusters=4,
            backend="numpy")
        assert stats["spawned"] == 2
        assert stats["absorbed"] == 1
        assert stats["merged"] == 0
        assert counts.shape == (2,)

    def test_split_row_conserves_exactly(self):
        cf = ClusterFeature.from_point(np.array([3.0, -2.0]), weight=2.0)
        cf.absorb(np.array([5.0, 1.0]), weight=1.5)
        cf.absorb(np.array([4.0, 0.5]), weight=0.5)
        first, second = cf.split()
        assert first.count + second.count == cf.count
        assert first.weight + second.weight == cf.weight
        np.testing.assert_array_equal(
            first.linear_sum + second.linear_sum, cf.linear_sum)
        assert np.all(first.square_sum >= 0)
        assert np.all(second.square_sum >= 0)

    def test_closest_pair_backends_agree(self):
        rng = np.random.default_rng(9)
        centroids = rng.normal(size=(10, 3))
        assert (cfk.closest_pair(centroids, backend="numpy")
                == cfk.closest_pair(centroids, backend="python"))

    def test_closest_pair_tie_rule(self):
        # (0,1) and (2,3) equally close: row-major first wins.
        centroids = np.array([[0.0, 0.0], [1.0, 0.0],
                              [10.0, 0.0], [11.0, 0.0]])
        for backend in kernels.BACKENDS:
            assert cfk.closest_pair(centroids, backend=backend) == (0, 1)

    def test_closest_pair_backends_agree_on_near_ties(self):
        # Two pairs whose offsets are permutations of the same three
        # components: equally close in exact arithmetic, so the winner
        # hangs on the last ulp of each reduction (seeds 14, 24, 26 and
        # 41 picked the other pair under an einsum reduction).
        for seed in range(60):
            rng = np.random.default_rng(seed)
            base = rng.normal(size=3) * 10
            comps = rng.normal(size=3)
            centroids = np.array([base, base + comps, base + 10.0,
                                  base + 10.0 + comps[[2, 0, 1]]])
            assert (cfk.closest_pair(centroids, backend="numpy")
                    == cfk.closest_pair(centroids, backend="python")), seed

    @pytest.mark.parametrize("d", [3, 8])
    def test_deviations_bitwise_identical(self, d):
        rng = np.random.default_rng(d)
        counts = rng.integers(1, 50, size=12).astype(float)
        linear = rng.normal(size=(12, d)) * 100.0
        square = linear ** 2 / counts[:, None] + rng.uniform(0, 9, (12, d))
        np.testing.assert_array_equal(
            cfk.deviations(counts, linear, square, backend="numpy"),
            cfk.deviations(counts, linear, square, backend="python"))

    def test_nearest_bitwise_identical_at_d3(self):
        rng = np.random.default_rng(4)
        centers = rng.normal(size=(8, 3)) * 30.0
        queries = rng.normal(size=(200, 3)) * 30.0
        found = {}
        for backend in kernels.BACKENDS:
            cl = OnlineClusterer(8, backend=backend)
            cl.replace_clusters([ClusterFeature.from_point(c)
                                 for c in centers])
            found[backend] = [cl._nearest(q) for q in queries]
        assert found["numpy"] == found["python"]


def _alphabet_stream(seed, d, n=2000, letters=8, scale=10.0):
    """Draws from a small alphabet of points — how client coordinates
    actually arrive: a few locations, each repeated many times."""
    rng = np.random.default_rng(seed)
    alphabet = rng.normal(size=(letters, d)) * scale
    return alphabet[rng.integers(0, letters, size=n)]


def _empty_rows(d):
    return np.zeros(0), np.zeros(0), np.zeros((0, d)), np.zeros((0, d))


def _assert_absorb_equal(got, want):
    for a, b in zip(got[:4], want[:4]):
        np.testing.assert_array_equal(a, b)
    assert got[4] == want[4]


class TestAbsorbParity:
    """The compiled kernel against the scalar reference, bit for bit.

    On repeated-point streams a point often lies exactly on a cluster's
    radius, because that radius was built from the same points; a 1-ulp
    difference in either distance then flips absorb into spawn.
    """

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("warm", [False, True])
    def test_repeated_point_streams(self, d, warm):
        # Seeds 3 and 6 include cold streams an einsum-reduced kernel
        # got wrong at d = 3 and d = 5.
        for seed in (0, 3, 6):
            points = _alphabet_stream(seed, d)
            weights = np.random.default_rng(seed).uniform(0.5, 2.0,
                                                          len(points))
            for floor in (0.0, 0.5, 5.0):
                rows = _empty_rows(d)
                pts, wts = points, weights
                if warm:
                    rows = cfk.absorb_stream(*rows, points[:300],
                                             weights[:300], floor, 4,
                                             backend="python")[:4]
                    pts, wts = points[300:], weights[300:]
                _assert_absorb_equal(
                    cfk.absorb_stream(*rows, pts, wts, floor, 4,
                                      backend="numpy"),
                    cfk.absorb_stream(*rows, pts, wts, floor, 4,
                                      backend="python"))

    @pytest.mark.parametrize("floor, expected", [
        (0.0, {"spawned": 801, "absorbed": 1199, "merged": 797}),
        (0.5, {"spawned": 487, "absorbed": 1513, "merged": 483}),
    ])
    def test_pinned_d3_stream(self, floor, expected):
        # An einsum-reduced kernel absorbed one point too many here.
        points = _alphabet_stream(3, 3)
        outs = [cfk.absorb_stream(*_empty_rows(3), points,
                                  np.ones(len(points)), floor, 4,
                                  backend=backend)
                for backend in ("numpy", "python")]
        assert outs[1][4] == expected
        _assert_absorb_equal(*outs)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_per_event_engine_matches_batched_kernel(self, d):
        points = _alphabet_stream(1, d, n=600)
        for backend in kernels.BACKENDS:
            one_by_one = OnlineClusterer(4, radius_floor=0.5,
                                         backend=backend)
            for p in points:
                one_by_one.add(p)
            batched = OnlineClusterer(4, radius_floor=0.5, backend=backend)
            batched.extend(points)
            assert len(batched) == len(one_by_one)
            for got, want in zip(batched.clusters, one_by_one.clusters):
                assert got.count == want.count
                np.testing.assert_array_equal(got.linear_sum,
                                              want.linear_sum)
                np.testing.assert_array_equal(got.square_sum,
                                              want.square_sum)

    def test_rejects_mismatched_point_weights(self):
        with pytest.raises(ValueError, match="point weights"):
            cfk.absorb_stream(*_empty_rows(2), np.ones((3, 2)), np.ones(2),
                              1.0, 4, backend="numpy")


# ----------------------------------------------------------------------
# Compiled absorb kernel: build cache, safety checks, fallback
# ----------------------------------------------------------------------
needs_cc = pytest.mark.skipif(shutil.which("cc") is None,
                              reason="no C compiler on PATH")

_SRC = str(pathlib.Path(cfk.__file__).resolve().parents[2])


@pytest.fixture
def fresh_kernel(monkeypatch, tmp_path):
    """Forget the loaded kernel and build into a private empty cache."""
    monkeypatch.setattr(cfk, "_kernel", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    return tmp_path / "repro"


def _absorb_once():
    return cfk.absorb_stream(*_empty_rows(2), np.ones((5, 2)), np.ones(5),
                             1.0, 3, backend="numpy")


def _served_compiled():
    with obs.observe() as (registry, _):
        _absorb_once()
    return registry.gauge("kernels.cf.absorb_compiled").value


class TestCompiledKernel:
    @needs_cc
    def test_gauge_records_the_engine(self):
        assert _served_compiled() == 1.0
        with obs.observe() as (registry, _):
            cfk.absorb_stream(*_empty_rows(2), np.ones((5, 2)), np.ones(5),
                              1.0, 3, backend="python")
        assert registry.gauge("kernels.cf.absorb_compiled").value == 0.0

    @needs_cc
    def test_builds_into_private_cache_and_reuses_it(self, fresh_kernel,
                                                     monkeypatch):
        assert _served_compiled() == 1.0
        built = sorted(p.name for p in fresh_kernel.iterdir())
        assert len(built) == 1 and built[0].startswith("absorb-")
        assert fresh_kernel.stat().st_mode & 0o777 == 0o700

        def no_compiling(*args, **kwargs):
            raise AssertionError("a cached build was recompiled")

        monkeypatch.setattr(cfk, "_kernel", None)
        monkeypatch.setattr(cfk.subprocess, "run", no_compiling)
        assert _served_compiled() == 1.0

    @needs_cc
    def test_cache_key_covers_the_flags(self, fresh_kernel, monkeypatch):
        _absorb_once()
        monkeypatch.setattr(cfk, "_kernel", None)
        monkeypatch.setattr(cfk, "_CFLAGS", cfk._CFLAGS + ("-DREBUILD",))
        assert _served_compiled() == 1.0
        assert len(list(fresh_kernel.glob("absorb-*.so"))) == 2

    def test_no_compiler_falls_back_with_one_warning(self, fresh_kernel,
                                                     monkeypatch):
        monkeypatch.setattr(cfk, "_find_compiler", lambda: None)
        with pytest.warns(RuntimeWarning, match="no C compiler"):
            assert _served_compiled() == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _absorb_once()
        _assert_absorb_equal(got, cfk.absorb_stream(
            *_empty_rows(2), np.ones((5, 2)), np.ones(5), 1.0, 3,
            backend="python"))

    @needs_cc
    def test_failed_build_warns_with_compiler_error(self, fresh_kernel,
                                                    monkeypatch, tmp_path):
        broken = tmp_path / "absorb.c"
        broken.write_text("this is not C;\n")
        monkeypatch.setattr(cfk, "_SOURCE", broken)
        with pytest.warns(RuntimeWarning, match="error"):
            assert _served_compiled() == 0.0
        assert list(fresh_kernel.iterdir()) == []  # no temp file left

    def test_refuses_writable_cache_dir(self, fresh_kernel):
        fresh_kernel.mkdir()
        fresh_kernel.chmod(0o777)
        with pytest.warns(RuntimeWarning, match="other-writable"):
            assert _served_compiled() == 0.0
        assert list(fresh_kernel.iterdir()) == []

    def test_refuses_cache_dir_of_another_user(self, fresh_kernel,
                                               monkeypatch):
        uid = os.getuid()
        monkeypatch.setattr(cfk.os, "getuid", lambda: uid + 1)
        with pytest.warns(RuntimeWarning, match="not owned"):
            assert _served_compiled() == 0.0

    @needs_cc
    def test_concurrent_cold_builds(self, fresh_kernel):
        env = {k: v for k, v in os.environ.items()
               if k != "REPRO_KERNEL_BACKEND"}
        env["PYTHONPATH"] = _SRC
        script = ("import numpy as np\n"
                  "from repro import obs\n"
                  "from repro.kernels import cf\n"
                  "with obs.observe() as (registry, _):\n"
                  "    cf.absorb_stream(np.zeros(0), np.zeros(0),\n"
                  "                     np.zeros((0, 2)), np.zeros((0, 2)),\n"
                  "                     np.ones((5, 2)), np.ones(5), 1.0, 3)\n"
                  "gauge = registry.gauge('kernels.cf.absorb_compiled')\n"
                  "print(gauge.value)\n")
        procs = [subprocess.Popen(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", script],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True) for _ in range(3)]
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert out.strip() == "1.0"
        assert [p.name.startswith("absorb-") and p.suffix == ".so"
                for p in fresh_kernel.iterdir()] == [True]


# ----------------------------------------------------------------------
# Pairwise distance cache
# ----------------------------------------------------------------------
class TestDistanceCache:
    def test_hit_and_miss_counting(self):
        cache = PairwiseDistanceCache()
        coords = np.arange(12.0).reshape(4, 3)
        calls = []

        def compute():
            calls.append(1)
            return np.ones((4, 4))

        first = cache.lookup((coords,), compute)
        second = cache.lookup((coords,), compute)
        assert len(calls) == 1
        assert cache.misses == 1 and cache.hits == 1
        np.testing.assert_array_equal(first, second)

    def test_returns_defensive_copies(self):
        cache = PairwiseDistanceCache()
        coords = np.ones((3, 2))
        out = cache.lookup((coords,), lambda: np.zeros((3, 3)))
        out[0, 0] = 99.0
        again = cache.lookup((coords,), lambda: np.zeros((3, 3)))
        assert again[0, 0] == 0.0

    def test_content_key_detects_mutation(self):
        cache = PairwiseDistanceCache()
        coords = np.ones((3, 2))
        cache.lookup((coords,), lambda: np.zeros((3, 3)))
        coords[0, 0] = 2.0  # same object, new contents → new key
        cache.lookup((coords,), lambda: np.full((3, 3), 7.0))
        assert cache.misses == 2 and cache.hits == 0

    def test_invalidate_clears_and_bumps_version(self):
        cache = PairwiseDistanceCache()
        coords = np.ones((2, 2))
        cache.lookup((coords,), lambda: np.zeros((2, 2)))
        v = cache.version
        cache.invalidate()
        assert cache.version == v + 1
        cache.lookup((coords,), lambda: np.zeros((2, 2)))
        assert cache.misses == 2

    def test_fifo_eviction(self):
        cache = PairwiseDistanceCache(maxsize=2)
        arrays = [np.full((2, 2), float(i)) for i in range(3)]
        for arr in arrays:
            cache.lookup((arr,), lambda a=arr: a * 10)
        # First entry evicted; re-looking it up is a miss.
        cache.lookup((arrays[0],), lambda: arrays[0] * 10)
        assert cache.misses == 4

    def test_space_invalidation_hooks(self):
        space = EuclideanSpace(dim=2, use_height=False)
        coords = np.random.default_rng(0).normal(size=(6, 2))
        space.pairwise_distances(coords)
        space.pairwise_distances(coords)
        assert space.cache.hits == 1
        space.invalidate_cache()
        space.pairwise_distances(coords)
        assert space.cache.misses == 2

    def test_space_survives_pickle_without_cache(self):
        space = EuclideanSpace(dim=3, use_height=True)
        coords = np.random.default_rng(0).normal(size=(4, 4))
        space.pairwise_distances(coords)
        clone = pickle.loads(pickle.dumps(space))
        assert clone.cache.hits == 0 and clone.cache.misses == 0
        np.testing.assert_array_equal(clone.pairwise_distances(coords),
                                      space.pairwise_distances(coords))


# ----------------------------------------------------------------------
# Deterministic empty-cluster reseed (satellite regression)
# ----------------------------------------------------------------------
class TestEmptyClusterDeterminism:
    def _tight_pairs(self):
        # k=3 over two tight pairs: one cluster goes empty mid-Lloyd
        # under many inits, exercising the reseed path.
        rng = np.random.default_rng(2)
        a = rng.normal(loc=0.0, scale=0.01, size=(6, 2))
        b = rng.normal(loc=100.0, scale=0.01, size=(6, 2))
        return np.vstack([a, b])

    def test_reseed_is_deterministic_per_seed(self):
        points = self._tight_pairs()
        for backend in kernels.BACKENDS:
            first = weighted_kmeans(points, 3,
                                    rng=np.random.default_rng(42),
                                    backend=backend)
            second = weighted_kmeans(points, 3,
                                     rng=np.random.default_rng(42),
                                     backend=backend)
            np.testing.assert_array_equal(first.centroids, second.centroids)
            np.testing.assert_array_equal(first.labels, second.labels)

    def test_reseed_ignores_global_rng_state(self):
        points = self._tight_pairs()
        results = []
        for salt in (0, 12345):
            random.seed(salt)
            np.random.seed(salt)
            results.append(weighted_kmeans(points, 3,
                                           rng=np.random.default_rng(7),
                                           backend="python"))
        np.testing.assert_array_equal(results[0].centroids,
                                      results[1].centroids)
        np.testing.assert_array_equal(results[0].labels, results[1].labels)
