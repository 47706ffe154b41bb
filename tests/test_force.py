"""Force estimation: current regression, field decomposition, shear model."""

import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gripsense import force, sim
from gripsense.core import DisplacementField, MarkerSet
from gripsense.slip import ContactMask
from oracles import (curl_central, div_central, grad_matrices,
                     hhd_projection_reference, idw_reference,
                     interior_embedding, ols_reference, quadrature_abs_integral)

rng = np.random.default_rng(19)


def _idw(px, py, vals, node_x, node_y):
    """The (rows, cols, C) grid that ``_idw_table`` and ``_idw_gather``
    give the samples ``vals`` (N, C) at (``px``, ``py``)."""
    table = force._idw_table(np.column_stack([px, py]), node_x, node_y)
    return force._idw_gather(table, vals).reshape(
        node_y.shape[0], node_x.shape[0], vals.shape[1])


class TestNormalForce:
    def test_exact_line_recovered(self):
        currents = np.linspace(0.5, 6.0, 40)
        forces = 1.25 * currents - 0.3125
        model = force.fit_normal_force(np.column_stack([currents, forces]))
        assert model.slope == pytest.approx(1.25, abs=1e-9)
        assert model.intercept == pytest.approx(-0.3125, abs=1e-9)
        assert force.predict_normal_force(2.0, model) == pytest.approx(
            1.25 * 2.0 - 0.3125, abs=1e-9)

    def test_matches_ols_oracle_on_noisy_data(self):
        currents = rng.uniform(0.5, 7.0, 200)
        forces = 1.1 * currents + 0.2 + rng.normal(0, 0.05, 200)
        model = force.fit_normal_force(np.column_stack([currents, forces]))
        design = np.column_stack([currents, np.ones_like(currents)])
        coef = ols_reference(design, forces)
        assert model.slope == pytest.approx(coef[0], abs=1e-9)
        assert model.intercept == pytest.approx(coef[1], abs=1e-9)

    def test_constant_current_raises(self):
        pairs = np.column_stack([np.full(10, 2.0), np.arange(10.0)])
        with pytest.raises(ValueError):
            force.fit_normal_force(pairs)

    def test_bad_shape_raises(self):
        with pytest.raises(ValueError):
            force.fit_normal_force(np.zeros((5, 3)))

    def test_predict_elementwise(self):
        model = force.NormalForceModel(2.0, 1.0)
        out = force.predict_normal_force(np.array([0.0, 1.0, 2.0]), model)
        assert np.allclose(out, [1.0, 3.0, 5.0])

    @pytest.mark.parametrize("current", [float("nan"), float("inf"),
                                         np.float64("-inf"), np.array(np.nan),
                                         [1.0, float("inf")],
                                         np.array([[1.0, 2.0], [np.nan, 3.0]])])
    def test_non_finite_current_raises(self, current):
        """A NaN current once gave a NaN force, and [1, inf] gave
        [2.1, inf]; now both paths raise, naming the current."""
        model = force.NormalForceModel(1.0, 1.1)
        with pytest.raises(ValueError, match="current must be finite, got "
                                             r"(nan|-?inf)"):
            force.predict_normal_force(current, model)

    def test_input_kinds_give_equal_models(self):
        r = np.random.default_rng(7)
        currents = r.uniform(0.5, 7.0, 50)
        forces = 0.9 * currents + 0.1 + r.normal(0, 0.05, 50)
        pairs = list(zip(currents.tolist(), forces.tolist()))
        from_list = force.fit_normal_force(pairs)
        from_array = force.fit_normal_force(np.column_stack([currents, forces]))
        from_gen = force.fit_normal_force((c, f) for c, f in pairs)
        assert from_list == from_array == from_gen


class TestInterpolateMarkers:
    def _pair(self, n=20, jitter=True):
        ids = np.arange(n)
        xy = rng.uniform(5, 95, (n, 2))
        rest = MarkerSet(ids, xy, frame_width=100.0, frame_height=100.0)
        delta = rng.normal(0, 2.0, (n, 2))
        return rest, rest.moved(delta), delta

    def test_matches_idw_oracle(self):
        rest, moved, delta = self._pair()
        grid = (9, 9)
        fld = force.interpolate_markers(rest, moved, grid)
        node_x = np.linspace(0, 100.0, grid[1])
        node_y = np.linspace(0, 100.0, grid[0])
        want = idw_reference(rest.xy[:, 0], rest.xy[:, 1], delta,
                             node_x, node_y)
        assert np.allclose(fld.values, want, atol=1e-9)

    def test_id_matching_survives_reordering(self):
        rest, moved, _ = self._pair(12)
        perm = rng.permutation(12)
        shuffled = MarkerSet(moved.ids[perm], moved.xy[perm])
        a = force.interpolate_markers(rest, moved, (8, 8))
        b = force.interpolate_markers(rest, shuffled, (8, 8))
        assert np.allclose(a.values, b.values, atol=1e-12)

    def test_partial_overlap_uses_shared_ids_only(self):
        rest, moved, delta = self._pair(10)
        drop = MarkerSet(moved.ids[2:], moved.xy[2:])
        fld = force.interpolate_markers(rest, drop, (8, 8))
        assert np.all(np.isfinite(fld.values))

    def test_too_few_shared_markers_raises(self):
        rest, moved, _ = self._pair(5)
        tiny = MarkerSet(moved.ids[:2], moved.xy[:2])
        with pytest.raises(ValueError):
            force.interpolate_markers(rest, tiny, (8, 8))


def _jittered(rest, sigma, r=rng):
    """``rest``'s markers moved by N(0, sigma) px, without frame bounds."""
    return MarkerSet(rest.ids, rest.xy + r.normal(0.0, sigma, rest.xy.shape))


def _dict_matched(before, after):
    """(rest positions, displacements) of the shared markers in ``after``'s
    order, matched through dicts of id to row."""
    ib = {int(m): k for k, m in enumerate(before.ids)}
    shared = [int(m) for m in after.ids if int(m) in ib]
    ia = {int(m): k for k, m in enumerate(after.ids)}
    bsel = np.array([ib[m] for m in shared])
    asel = np.array([ia[m] for m in shared])
    return before.xy[bsel], after.xy[asel] - before.xy[bsel]


class TestIdwTable:
    """``interpolate_markers`` keeps one neighbour table per grid on the rest
    set; every call, the first and those that reuse it, matches a fresh
    table and gather bit for bit and the loop oracle to 1e-9."""

    @staticmethod
    def _nodes(rest, grid):
        if rest.frame_width is not None:
            x0, x1, y0, y1 = 0.0, rest.frame_width, 0.0, rest.frame_height
        else:
            (x0, y0), (x1, y1) = rest.xy.min(axis=0), rest.xy.max(axis=0)
        return np.linspace(x0, x1, grid[1]), np.linspace(y0, y1, grid[0])

    def _check(self, rest, moved, grid, calls=2):
        node_x, node_y = self._nodes(rest, grid)
        px, py = rest.xy[:, 0], rest.xy[:, 1]
        disp = moved.xy - rest.xy
        want = _idw(px, py, disp, node_x, node_y)
        for _ in range(calls):
            got = force.interpolate_markers(rest, moved, grid)
            assert got.values.tobytes() == want.tobytes()
        assert tuple(grid) in rest._idw_tables
        assert np.max(np.abs(want - idw_reference(px, py, disp, node_x,
                                                  node_y))) <= 1e-9

    @pytest.mark.parametrize("shape", [(128, 128), (240, 320)])
    def test_sensor_marker_grid(self, shape):
        """The rest grid is a lattice: at 128 x 128, 24 nodes see a distance
        tie among their five nearest markers, 5 of them between the fourth
        and the fifth, so the index tie-break decides."""
        gel = sim.GelModel()
        rest = sim.marker_grid(gel, shape[1] / gel.gel_size_mm, shape)
        assert len(rest) == 81
        r = np.random.default_rng(shape[0])
        for jitter in (0.3, 2.0, 0.0):
            self._check(rest, _jittered(rest, jitter, r), (24, 24))

    @pytest.mark.parametrize("grid", [(9, 9), (17, 9)])
    def test_nodes_on_markers(self, grid):
        gx, gy = np.meshgrid(np.arange(9.0), np.arange(9.0))
        rest = MarkerSet(np.arange(81), np.column_stack([gx.ravel(), gy.ravel()]),
                         frame_width=8.0, frame_height=8.0)
        self._check(rest, _jittered(rest, 0.5), grid)

    def test_rest_without_frame_bounds(self):
        rest = MarkerSet(np.arange(30), rng.uniform(5, 95, (30, 2)))
        self._check(rest, _jittered(rest, 2.0), (8, 11))

    def test_two_grids_on_one_rest(self):
        gel = sim.GelModel()
        rest = sim.marker_grid(gel, 128 / gel.gel_size_mm, (128, 128))
        moved = _jittered(rest, 1.0)
        for grid in ((24, 24), (9, 13), (24, 24), (9, 13)):
            self._check(rest, moved, grid, calls=1)
        assert set(rest._idw_tables) == {(24, 24), (9, 13)}

    def test_pickled_rest_carries_its_table(self):
        gel = sim.GelModel()
        rest = sim.marker_grid(gel, 128 / gel.gel_size_mm, (128, 128))
        moved = _jittered(rest, 1.0)
        force.interpolate_markers(rest, moved, (24, 24))
        copy = pickle.loads(pickle.dumps(rest))
        assert (24, 24) in copy._idw_tables
        assert not (copy.xy.flags.writeable or copy.ids.flags.writeable)
        self._check(copy, moved, (24, 24))

    def test_second_call_allocates_little(self):
        """The gather holds no (nodes, markers) distance matrix, which at
        24 x 24 nodes and 81 markers alone is 373 KB."""
        gel = sim.GelModel()
        rest = sim.marker_grid(gel, 128 / gel.gel_size_mm, (128, 128))
        moved = _jittered(rest, 1.0)
        force.interpolate_markers(rest, moved, (24, 24))
        tracemalloc.start()
        try:
            force.interpolate_markers(rest, moved, (24, 24))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    @pytest.mark.parametrize("case", ["shuffled", "dropout"])
    def test_id_matching_equals_the_dict_version(self, case):
        gel = sim.GelModel()
        rest = sim.marker_grid(gel, 128 / gel.gel_size_mm, (128, 128))
        moved = _jittered(rest, 1.0)
        perm = np.random.default_rng(8).permutation(81)
        if case == "dropout":
            perm = perm[:60]
        after = MarkerSet(moved.ids[perm], moved.xy[perm])
        rest_xy, disp = _dict_matched(rest, after)
        node_x, node_y = self._nodes(rest, (24, 24))
        want = _idw(rest_xy[:, 0], rest_xy[:, 1], disp, node_x, node_y)
        got = force.interpolate_markers(rest, after, (24, 24))
        assert got.values.tobytes() == want.tobytes()
        assert "_idw_tables" not in rest.__dict__       # not kept


class TestIdw:
    rng = np.random.default_rng(42)

    def _case(self, r, n=25, grid=7):
        px = r.uniform(0, 10, n)
        py = r.uniform(0, 10, n)
        vals = r.normal(0, 1, (n, 2))
        node_x = np.linspace(0.5, 9.5, grid)
        node_y = np.linspace(0.5, 9.5, grid + 1)
        return px, py, vals, node_x, node_y

    def test_matches_oracle(self):
        case = self._case(self.rng)
        got = _idw(*case)
        want = idw_reference(*case)
        assert np.allclose(got, want, atol=1e-10)

    def test_lattice_ties_pick_the_lowest_indices(self):
        # Samples on a shuffled integer lattice and nodes on the half-integer
        # lattice: nodes see exact distance ties, many of them across the
        # 4th/5th-neighbour boundary, so only the index tie-break decides.
        gx, gy = np.meshgrid(np.arange(6.0), np.arange(5.0))
        perm = np.random.default_rng(3).permutation(gx.size)
        px, py = gx.ravel()[perm], gy.ravel()[perm]
        node_x, node_y = np.arange(0.0, 5.5, 0.5), np.arange(0.0, 4.5, 0.5)
        vals = self.rng.normal(0, 1, (px.size, 2))
        got = _idw(px, py, vals, node_x, node_y)
        assert np.allclose(got, idw_reference(px, py, vals, node_x, node_y),
                           atol=1e-10)
        # one-hot values: channel i of a node is sample i's weight there
        weights = _idw(px, py, np.eye(px.size), node_x,
                       node_y).reshape(-1, px.size)
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
        out = _idw(px, py, vals, np.array([2.0]), np.array([2.0]))
        assert np.allclose(out[0, 0], vals[0], atol=1e-12)

    def test_constant_field_reproduced(self):
        px, py, vals, nx, ny = self._case(self.rng)
        vals = np.full_like(vals, 3.25)
        out = _idw(px, py, vals, nx, ny)
        assert np.allclose(out, 3.25, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_within_convex_value_range(self, seed):
        r = np.random.default_rng(seed)
        case = self._case(r, n=12, grid=5)
        out = _idw(*case)
        vals = case[2]
        assert out.min() >= vals.min() - 1e-12
        assert out.max() <= vals.max() + 1e-12


def _quarter_laplacian(m, n):
    """1/4 of the 5-point Dirichlet Laplacian on an m x n grid, row-major:
    the [-1, 2, -1] chain along each axis, summed."""
    def chain(k):
        return 2.0 * np.eye(k) - np.eye(k, k=1) - np.eye(k, k=-1)
    return 0.25 * (np.kron(chain(m), np.eye(n)) + np.kron(np.eye(m), chain(n)))


def _normal_equations(h, w):
    """The potentials' normal-equation operator K = A^T A + B^T B on the
    interior nodes, A and B the dense central differences."""
    gx, gy = grad_matrices(h, w)
    e = interior_embedding(h, w)
    a, b = gx @ e, gy @ e
    return a, b, a.T @ a + b.T @ b


class TestHHD:
    def _field(self, seed=0, n=16):
        r = np.random.default_rng(seed)
        return DisplacementField(r.normal(0, 1, (n, n, 2)))

    def test_parts_sum_to_input_exactly(self):
        v = self._field()
        out = force.hhd_decompose(v)
        recon = out.P.values + out.S.values + out.H.values
        assert np.max(np.abs(recon - v.values)) < 1e-9 * max(
            1.0, np.abs(v.values).max())

    def test_p_is_curl_free_and_s_divergence_free(self):
        out = force.hhd_decompose(self._field(1))
        assert np.sqrt(np.mean(force.curl(out.P) ** 2)) < 1e-6
        assert np.sqrt(np.mean(force.divergence(out.S) ** 2)) < 1e-6

    def test_matches_dense_reference_projection(self):
        v = self._field(2, n=12)
        out = force.hhd_decompose(v)
        p_ref, s_ref, h_ref = hhd_projection_reference(v.values)
        assert np.max(np.abs(out.P.values - p_ref[0])) < 1e-6
        assert np.max(np.abs(out.S.values - s_ref[0])) < 1e-6
        assert np.max(np.abs(out.H.values - h_ref[0])) < 1e-6

    @pytest.mark.parametrize("h,w", [(8, 8), (9, 11), (8, 31)])
    def test_matches_dense_reference_to_round_off(self, h, w):
        v = DisplacementField(np.random.default_rng(h * w).normal(0, 1, (h, w, 2)))
        out = force.hhd_decompose(v)
        p_ref, s_ref, h_ref = hhd_projection_reference(v.values)
        assert np.max(np.abs(out.P.values - p_ref[0])) < 1e-12
        assert np.max(np.abs(out.S.values - s_ref[0])) < 1e-12
        assert np.max(np.abs(out.H.values - h_ref[0])) < 1e-12

    @pytest.mark.parametrize("h,w", [(8, 8), (9, 11), (10, 13), (11, 8)])
    def test_parity_blocks_are_quarter_dirichlet_laplacians(self, h, w):
        _, _, k = _normal_equations(h, w)
        nodes = np.arange((h - 2) * (w - 2)).reshape(h - 2, w - 2)
        for py in (0, 1):
            for px in (0, 1):
                block = nodes[py::2, px::2]
                inside = np.isin(nodes, block).ravel()
                sub = k[np.ix_(block.ravel(), block.ravel())]
                assert np.array_equal(sub, _quarter_laplacian(*block.shape))
                assert np.all(k[block.ravel()][:, ~inside] == 0.0)

    @pytest.mark.parametrize("h,w", [(8, 8), (9, 11), (24, 24), (25, 30)])
    def test_potentials_match_dense_normal_equations(self, h, w):
        """P and S are the gradient and the rotated gradient of the dense
        normal equations' potentials phi and psi; a central difference of
        two potential errors is no larger than the larger of them, so the
        bound is the potentials' own."""
        v = DisplacementField(np.random.default_rng(h + w).normal(0, 1, (h, w, 2)))
        out = force.hhd_decompose(v)
        a, b, k = _normal_equations(h, w)
        vx, vy = v.values[:, :, 0].ravel(), v.values[:, :, 1].ravel()
        rhs = np.column_stack([a.T @ vx + b.T @ vy, b.T @ vx - a.T @ vy])
        phi, psi = np.linalg.solve(k, rhs).T
        want_p = np.dstack([(a @ phi).reshape(h, w), (b @ phi).reshape(h, w)])
        want_s = np.dstack([(b @ psi).reshape(h, w), -(a @ psi).reshape(h, w)])
        tol = 1e-13 * max(np.max(np.abs(phi)), np.max(np.abs(psi)))
        for got, ref in ((out.P, want_p), (out.S, want_s)):
            assert np.max(np.abs(got.values - ref)) <= tol

    def test_idempotent(self):
        out = force.hhd_decompose(self._field(3))
        again = force.hhd_decompose(out.P)
        assert np.max(np.abs(again.P.values - out.P.values)) < 1e-8
        assert np.max(np.abs(again.S.values)) < 1e-8

    def test_pure_gradient_field_lands_in_p(self):
        n = 16
        x = np.linspace(0, np.pi, n)
        phi = np.outer(np.sin(x), np.sin(x))
        gx, gy = np.gradient(phi)
        v = DisplacementField(np.dstack([gy, gx]))   # grad with x = columns
        out = force.hhd_decompose(v)
        total = quadrature_abs_integral(np.linalg.norm(v.values, axis=2))
        leak = quadrature_abs_integral(np.linalg.norm(out.S.values, axis=2))
        assert leak < 0.02 * total

    def test_linear(self):
        a, b = self._field(4), self._field(5)
        ab = DisplacementField(a.values + b.values)
        pa = force.hhd_decompose(a).P.values
        pb = force.hhd_decompose(b).P.values
        pab = force.hhd_decompose(ab).P.values
        assert np.max(np.abs(pab - pa - pb)) < 1e-8

    def test_potentials_vanish_on_edge(self):
        """Potentials pinned to zero on the edge ring have zero derivative
        along it: P has no tangential part there and S no normal part."""
        out = force.hhd_decompose(self._field(6))
        (px, py), (sx, sy) = (np.moveaxis(f.values, -1, 0)
                              for f in (out.P, out.S))
        for along_rows in (px, sy):
            assert np.all(along_rows[[0, -1]] == 0)
        for along_cols in (py, sx):
            assert np.all(along_cols[:, [0, -1]] == 0)
        assert np.abs(px[1:-1]).max() > 0.1 and np.abs(sx[:, 1:-1]).max() > 0.1

    def test_small_grid_raises(self):
        with pytest.raises(ValueError):
            force.hhd_decompose(DisplacementField(np.zeros((4, 4, 2))))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_reconstruction_property(self, seed):
        v = self._field(seed, n=10)
        out = force.hhd_decompose(v)
        recon = out.P.values + out.S.values + out.H.values
        scale = max(np.abs(v.values).max(), 1e-12)
        assert np.max(np.abs(recon - v.values)) / scale < 1e-9


class TestVectorCalculus:
    def test_rotation_field_curl(self):
        n = 12
        ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        v = np.dstack([-(ii - 5.5), (jj - 5.5)])   # (vx, vy) = (-y, x)
        fld = DisplacementField(v)
        got = force.curl(fld)
        assert np.allclose(got[1:-1, 1:-1], 2.0, atol=1e-12)
        assert np.allclose(force.divergence(fld)[1:-1, 1:-1], 0.0, atol=1e-12)
        assert np.allclose(got, curl_central(v), atol=1e-12)

    def test_expansion_field_divergence(self):
        n = 12
        ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        v = np.dstack([jj - 5.5, ii - 5.5])        # (vx, vy) = (x, y)
        fld = DisplacementField(v)
        assert np.allclose(force.divergence(fld)[1:-1, 1:-1], 2.0, atol=1e-12)
        assert np.allclose(force.curl(fld)[1:-1, 1:-1], 0.0, atol=1e-12)
        assert np.allclose(force.divergence(fld), div_central(v), atol=1e-12)

    @pytest.mark.parametrize("h,w", [(9, 13), (24, 17)])
    def test_random_non_square_fields_match_oracle(self, h, w):
        v = np.random.default_rng(h + w).normal(0, 1, (h, w, 2))
        fld = DisplacementField(v)
        assert np.allclose(force.curl(fld), curl_central(v), rtol=0, atol=1e-12)
        assert np.allclose(force.divergence(fld), div_central(v), rtol=0,
                           atol=1e-12)


class TestShearFeatures:
    def test_feature_vector_layout(self):
        n = 12
        vals = np.zeros((n, n, 2))
        vals[:, :, 0] = 0.5
        vals[:, :, 1] = -0.25
        v = DisplacementField(vals)
        out = force.hhd_decompose(v)
        mask = ContactMask(np.ones((n, n), dtype=bool), 0.3)
        feat = force.shear_features(v, out, mask)
        assert feat.values.shape == (10,)
        assert feat.values[0] == pytest.approx(0.5)
        assert feat.values[1] == pytest.approx(-0.25)
        pb = out.P.values[mask.raster()].mean(axis=0)
        assert feat.values[3] == pytest.approx(pb[0] ** 2)
        assert feat.values[5] == pytest.approx(pb[1] ** 2)

    def test_mask_resampled_to_grid(self):
        v = DisplacementField(rng.normal(0, 1, (10, 10, 2)))
        out = force.hhd_decompose(v)
        big = np.zeros((40, 40), dtype=bool)
        big[8:32, 8:32] = True
        feat = force.shear_features(v, out, ContactMask(big, 0.3))
        assert np.all(np.isfinite(feat.values))

    @pytest.mark.parametrize("shape, box", [
        ((40, 40), (8, 32, 8, 32)), ((37, 53), (0, 5, 40, 53)),
        ((10, 10), (2, 7, 3, 9)), ((40, 40), (1, 2, 1, 2))])
    def test_features_read_the_resampled_mask(self, shape, box):
        """The means over the mask resampled to the field grid, bit for bit;
        a mask that no grid cell reads gives the no-contact feature."""
        v = DisplacementField(rng.normal(0, 1, (10, 10, 2)))
        out = force.hhd_decompose(v)
        raw = np.zeros(shape, dtype=bool)
        r0, r1, c0, c1 = box
        raw[r0:r1, c0:c1] = rng.random((r1 - r0, c1 - c0)) < 0.7
        raw[r0, c0] = True
        feat = force.shear_features(v, out, ContactMask(raw, 0.3))
        cells, box, shape = ContactMask(raw, 0.3).on_grid((10, 10))
        grid = ContactMask(cells, 0.3, 1.0, box, shape).raster()
        if not grid.any():
            assert feat.contact is False and not feat.values.any()
            return
        (vx, vy), (px, py), (sx, sy) = (f.values[grid].mean(axis=0)
                                        for f in (v, out.P, out.S))
        want = [vx, vy, px, px ** 2, py, py ** 2, sx, sx ** 2, sy, sy ** 2]
        assert feat.values.tobytes() == np.array(want).tobytes()

    def test_empty_mask_gives_zero_no_contact_feature(self):
        v = DisplacementField(rng.normal(0, 1, (10, 10, 2)))
        out = force.hhd_decompose(v)
        feat = force.shear_features(v, out, ContactMask(np.zeros((10, 10),
                                                                dtype=bool), 0.3))
        assert feat.contact is False
        assert np.array_equal(feat.values, np.zeros(10))
        model = force.ShearModel(np.ones(10), np.ones(10), 0.5, -0.25)
        assert force.predict_shear(feat, model) == (0.0, 0.0)

    def test_feature_validation(self):
        with pytest.raises(ValueError):
            force.ShearFeature(np.zeros(9))


class TestShearModel:
    def _linear_data(self, n=60):
        x = rng.normal(0, 1, (n, 10))
        wx = rng.normal(0, 1, 10)
        wy = rng.normal(0, 1, 10)
        y = np.column_stack([x @ wx + 0.5, x @ wy - 0.25])
        return x, y, wx, wy

    @staticmethod
    def _feats(x):
        return [force.ShearFeature(row) for row in x]

    def test_exact_recovery_on_linear_data(self):
        x, y, wx, wy = self._linear_data()
        model = force.fit_shear_model(self._feats(x), y)
        assert np.allclose(model.w_x, wx, atol=1e-9)
        assert np.allclose(model.w_y, wy, atol=1e-9)
        assert model.b_x == pytest.approx(0.5, abs=1e-9)
        assert model.b_y == pytest.approx(-0.25, abs=1e-9)
        fx, fy = force.predict_shear(force.ShearFeature(x[0]), model)
        assert fx == pytest.approx(y[0, 0], abs=1e-8)
        assert fy == pytest.approx(y[0, 1], abs=1e-8)

    def test_matches_ols_oracle(self):
        x, y, *_ = self._linear_data()
        y = y + rng.normal(0, 0.1, y.shape)
        model = force.fit_shear_model(self._feats(x), y)
        design = np.column_stack([x, np.ones(len(x))])
        coef = ols_reference(design, y)
        assert np.allclose(model.w_x, coef[:10, 0], atol=1e-8)
        assert np.allclose(model.b_y, coef[10, 1], atol=1e-8)

    def test_too_few_samples_and_bad_labels(self):
        x, y, *_ = self._linear_data(10)
        with pytest.raises(ValueError):
            force.fit_shear_model(self._feats(x), y)
        x, y, *_ = self._linear_data(20)
        with pytest.raises(ValueError):
            force.fit_shear_model(self._feats(x), y[:, :1])

    def test_raw_arrays_refused(self):
        """Only a ``ShearFeature`` carries the no-contact flag, so the fit
        and the readout take nothing else: an all-zero raw row would read
        as the model's biases, not as no contact."""
        x, y, *_ = self._linear_data(20)
        model = force.fit_shear_model(self._feats(x), y)
        for rows in (x, list(x), self._feats(x[:19]) + [x[19]]):
            with pytest.raises(ValueError, match="ShearFeature"):
                force.fit_shear_model(rows, y)
        for row in (np.zeros(10), list(x[0])):
            with pytest.raises(ValueError, match="ShearFeature"):
                force.predict_shear(row, model)

    def test_no_contact_feature_refused(self):
        x, y, *_ = self._linear_data(20)
        feats = self._feats(x)
        feats[7] = force.ShearFeature(np.zeros(10), contact=False)
        with pytest.raises(ValueError, match="no-contact"):
            force.fit_shear_model(feats, y)

    def test_rank_deficient_raises(self):
        x = np.tile(rng.normal(0, 1, 10), (30, 1))
        y = rng.normal(0, 1, (30, 2))
        with pytest.raises(ValueError, match="rank deficient"):
            force.fit_shear_model(self._feats(x), y)

    def test_build_shear_features_pipeline(self):
        pairs, labels = sim.make_shear_dataset(12, rng=np.random.default_rng(4))
        feats = force.build_shear_features(pairs)
        assert len(feats) == 12
        assert all(f.values.shape == (10,) for f in feats)
        model = force.fit_shear_model(feats, labels)
        pred = np.array([force.predict_shear(f, model) for f in feats])
        resid = labels - pred
        assert np.mean(resid ** 2) < np.mean(labels ** 2)

