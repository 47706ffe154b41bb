"""Force estimation: current regression, field decomposition, shear model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gripsense import force, sim
from gripsense.core import DisplacementField, MarkerSet
from gripsense.slip import ContactMask
from oracles import (curl_central, div_central, hhd_projection_reference,
                     idw_reference, ols_reference, quadrature_abs_integral)

rng = np.random.default_rng(19)


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

    def test_predict_elementwise_and_unfitted(self):
        model = force.NormalForceModel(2.0, 1.0)
        out = force.predict_normal_force(np.array([0.0, 1.0, 2.0]), model)
        assert np.allclose(out, [1.0, 3.0, 5.0])
        with pytest.raises(ValueError):
            force.predict_normal_force(
                1.0, force.NormalForceModel(2.0, 1.0, fitted=False))


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
        got = force._idw_interpolate(*case)
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
        got = force._idw_interpolate(px, py, vals, node_x, node_y)
        assert np.allclose(got, idw_reference(px, py, vals, node_x, node_y),
                           atol=1e-10)
        # one-hot values: channel i of a node is sample i's weight there
        weights = force._idw_interpolate(
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
        out = force._idw_interpolate(px, py, vals, np.array([2.0]),
                                     np.array([2.0]), k=3)
        assert np.allclose(out[0, 0], vals[0], atol=1e-12)

    def test_constant_field_reproduced(self):
        px, py, vals, nx, ny = self._case(self.rng)
        vals = np.full_like(vals, 3.25)
        out = force._idw_interpolate(px, py, vals, nx, ny)
        assert np.allclose(out, 3.25, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_within_convex_value_range(self, seed):
        r = np.random.default_rng(seed)
        case = self._case(r, n=12, grid=5)
        out = force._idw_interpolate(*case)
        vals = case[2]
        assert out.min() >= vals.min() - 1e-12
        assert out.max() <= vals.max() + 1e-12


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
        out = force.hhd_decompose(self._field(6))
        for pot in (out.phi.values, out.psi.values):
            assert np.all(pot[0] == 0) and np.all(pot[-1] == 0)
            assert np.all(pot[:, 0] == 0) and np.all(pot[:, -1] == 0)

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
        pb = out.P.values[mask.values].mean(axis=0)
        assert feat.values[3] == pytest.approx(pb[0] ** 2)
        assert feat.values[5] == pytest.approx(pb[1] ** 2)

    def test_mask_resampled_to_grid(self):
        v = DisplacementField(rng.normal(0, 1, (10, 10, 2)))
        out = force.hhd_decompose(v)
        big = np.zeros((40, 40), dtype=bool)
        big[8:32, 8:32] = True
        feat = force.shear_features(v, out, ContactMask(big, 0.3))
        assert np.all(np.isfinite(feat.values))

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

    def test_exact_recovery_on_linear_data(self):
        x, y, wx, wy = self._linear_data()
        model = force.fit_shear_model(x, y)
        assert np.allclose(model.w_x, wx, atol=1e-9)
        assert np.allclose(model.w_y, wy, atol=1e-9)
        assert model.b_x == pytest.approx(0.5, abs=1e-9)
        assert model.b_y == pytest.approx(-0.25, abs=1e-9)
        fx, fy = force.predict_shear(x[0], model)
        assert fx == pytest.approx(y[0, 0], abs=1e-8)
        assert fy == pytest.approx(y[0, 1], abs=1e-8)

    def test_matches_ols_oracle(self):
        x, y, *_ = self._linear_data()
        y = y + rng.normal(0, 0.1, y.shape)
        model = force.fit_shear_model(x, y)
        design = np.column_stack([x, np.ones(len(x))])
        coef = ols_reference(design, y)
        assert np.allclose(model.w_x, coef[:10, 0], atol=1e-8)
        assert np.allclose(model.b_y, coef[10, 1], atol=1e-8)

    def test_too_few_samples_and_bad_labels(self):
        x, y, *_ = self._linear_data(10)
        with pytest.raises(ValueError):
            force.fit_shear_model(x, y)
        x, y, *_ = self._linear_data(20)
        with pytest.raises(ValueError):
            force.fit_shear_model(x, y[:, :1])

    def test_no_contact_feature_refused(self):
        x, y, *_ = self._linear_data(20)
        feats = [force.ShearFeature(row) for row in x]
        feats[7] = force.ShearFeature(np.zeros(10), contact=False)
        with pytest.raises(ValueError, match="no-contact"):
            force.fit_shear_model(feats, y)

    def test_rank_deficient_raises(self):
        x = np.tile(rng.normal(0, 1, 10), (30, 1))
        y = rng.normal(0, 1, (30, 2))
        with pytest.raises(ValueError):
            force.fit_shear_model(x, y)

    def test_build_shear_features_pipeline(self):
        pairs, labels = sim.make_shear_dataset(12, rng=np.random.default_rng(4))
        feats = force.build_shear_features(pairs)
        assert len(feats) == 12
        assert all(f.values.shape == (10,) for f in feats)
        model = force.fit_shear_model(feats, labels)
        pred = np.array([force.predict_shear(f, model) for f in feats])
        resid = labels - pred
        assert np.mean(resid ** 2) < np.mean(labels ** 2)


class TestPersistence:
    def test_normal_force_roundtrip(self, tmp_path):
        model = force.NormalForceModel(1.23456789012345, -0.9876543210987)
        p = tmp_path / "nf.txt"
        force.save_normal_force(model, p)
        back = force.load_normal_force(p)
        assert back.slope == model.slope
        assert back.intercept == model.intercept

    def test_shear_roundtrip(self, tmp_path):
        model = force.ShearModel(rng.normal(0, 1, 10), rng.normal(0, 1, 10),
                                 0.125, -2.5)
        p = tmp_path / "sh.txt"
        force.save_shear(model, p)
        back = force.load_shear(p)
        assert np.array_equal(back.w_x, model.w_x)
        assert np.array_equal(back.w_y, model.w_y)
        assert back.b_x == model.b_x and back.b_y == model.b_y

    def test_corrupt_files_raise(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("normal_force 1.0\n")
        with pytest.raises(ValueError):
            force.load_normal_force(p)
        p.write_text("shear 1.0 2.0\n")
        with pytest.raises(ValueError):
            force.load_shear(p)
