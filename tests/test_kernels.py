"""Numeric kernels: numpy/numba parity and agreement with naive oracles."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gripsense import _kernels
from oracles import idw_reference, warp_reference

rng = np.random.default_rng(42)


def _random_homography(r):
    h = np.eye(3)
    h[:2, :2] += r.normal(0.0, 0.05, (2, 2))
    h[:2, 2] = r.normal(0.0, 2.0, 2)
    h[2, :2] = r.normal(0.0, 1e-3, 2)
    return h


class TestWarp:
    def test_matches_oracle(self):
        img = rng.random((12, 14, 3))
        hmat = _random_homography(rng)
        got = _kernels.warp_bilinear(img, hmat, 10, 11)
        want = warp_reference(img, hmat, 10, 11)
        assert np.allclose(got, want, atol=1e-12)

    def test_identity_is_exact(self):
        img = rng.random((9, 9, 3))
        out = _kernels.warp_bilinear(img, np.eye(3), 9, 9)
        assert np.allclose(out, img, atol=1e-12)

    def test_paths_agree(self):
        img = rng.random((11, 13, 3))
        hmat = _random_homography(rng)
        a = _kernels.warp_bilinear_numpy(img, hmat, 8, 9)
        b = _kernels.warp_bilinear(img, hmat, 8, 9)
        assert np.allclose(a, b, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_output_within_input_range(self, seed):
        r = np.random.default_rng(seed)
        img = r.random((10, 10, 3))
        out = _kernels.warp_bilinear(img, _random_homography(r), 7, 7)
        assert out.min() >= img.min() - 1e-12
        assert out.max() <= img.max() + 1e-12


class TestIdw:
    def _case(self, r, n=25, grid=7):
        px = r.uniform(0, 10, n)
        py = r.uniform(0, 10, n)
        vals = r.normal(0, 1, (n, 2))
        node_x = np.linspace(0.5, 9.5, grid)
        node_y = np.linspace(0.5, 9.5, grid + 1)
        return px, py, vals, node_x, node_y

    def test_matches_oracle(self):
        case = self._case(rng)
        got = _kernels.idw_interpolate(*case)
        want = idw_reference(*case)
        assert np.allclose(got, want, atol=1e-10)

    def test_paths_agree(self):
        case = self._case(rng)
        a = _kernels.idw_interpolate_numpy(*case)
        b = _kernels.idw_interpolate(*case)
        assert np.allclose(a, b, atol=1e-12)

    def test_lattice_ties_pick_the_lowest_indices(self):
        # Samples on a shuffled integer lattice and nodes on the half-integer
        # lattice: nodes see exact distance ties, many of them across the
        # 4th/5th-neighbour boundary, so only the index tie-break decides.
        gx, gy = np.meshgrid(np.arange(6.0), np.arange(5.0))
        perm = np.random.default_rng(3).permutation(gx.size)
        px, py = gx.ravel()[perm], gy.ravel()[perm]
        node_x, node_y = np.arange(0.0, 5.5, 0.5), np.arange(0.0, 4.5, 0.5)
        vals = rng.normal(0, 1, (px.size, 2))
        got = _kernels.idw_interpolate_numpy(px, py, vals, node_x, node_y)
        assert np.allclose(got, idw_reference(px, py, vals, node_x, node_y),
                           atol=1e-10)
        # one-hot values: channel i of a node is sample i's weight there
        weights = _kernels.idw_interpolate_numpy(
            px, py, np.eye(px.size), node_x, node_y).reshape(-1, px.size)
        nx, ny = np.meshgrid(node_x, node_y)
        d2 = (nx.ravel()[:, None] - px) ** 2 + (ny.ravel()[:, None] - py) ** 2
        want = np.argsort(d2, axis=1, kind="stable")[:, :4]
        coincident = d2.min(axis=1) == 0.0
        assert coincident.any() and not coincident.all()
        for node, chosen in enumerate(weights):
            expect = want[node, :1] if coincident[node] else want[node]
            assert set(np.flatnonzero(chosen)) == set(expect)

    def test_coincident_node_returns_sample(self):
        px = np.array([2.0, 8.0, 5.0])
        py = np.array([2.0, 8.0, 1.0])
        vals = np.array([[1.0, -1.0], [2.0, 0.5], [3.0, 0.0]])
        out = _kernels.idw_interpolate(px, py, vals, np.array([2.0]),
                                       np.array([2.0]), k=3)
        assert np.allclose(out[0, 0], vals[0], atol=1e-12)

    def test_constant_field_reproduced(self):
        px, py, vals, nx, ny = self._case(rng)
        vals = np.full_like(vals, 3.25)
        out = _kernels.idw_interpolate(px, py, vals, nx, ny)
        assert np.allclose(out, 3.25, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_within_convex_value_range(self, seed):
        r = np.random.default_rng(seed)
        case = self._case(r, n=12, grid=5)
        out = _kernels.idw_interpolate(*case)
        vals = case[2]
        assert out.min() >= vals.min() - 1e-12
        assert out.max() <= vals.max() + 1e-12


class TestDispatch:
    def test_flags_are_booleans(self):
        assert isinstance(_kernels.HAS_NUMBA, bool)
        assert isinstance(_kernels.USING_NUMBA, bool)
        assert _kernels.USING_NUMBA == _kernels.HAS_NUMBA

    def test_env_flag_forces_numpy_path(self):
        env = dict(os.environ, GRIPSENSE_DISABLE_NUMBA="1")
        code = ("from gripsense import _kernels; "
                "assert _kernels.USING_NUMBA is False; "
                "assert _kernels.warp_bilinear is _kernels.warp_bilinear_numpy")
        subprocess.run([sys.executable, "-c", code], check=True, env=env)

    @pytest.mark.skipif(not _kernels.HAS_NUMBA, reason="numba not importable")
    def test_default_path_uses_numba_when_available(self):
        if os.environ.get("GRIPSENSE_DISABLE_NUMBA", "") in ("", "0", "false"):
            assert _kernels.warp_bilinear is not _kernels.warp_bilinear_numpy
