"""Pairwise softness ranking: embedder, comparator, training, evaluation."""

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

from gripsense import sim, softness
from oracles import (fd_gradient_at, patch16_reference, ranker_loss_and_grads,
                     train_ranker_reference)

rng = np.random.default_rng(31)


def _frames(n_frames, seed=0, size=32):
    """``n_frames`` random difference frames (n_frames, size, size, 3)."""
    return np.array([np.random.default_rng(seed * 100 + i).uniform(
        -0.5, 0.5, (size, size, 3)) for i in range(n_frames)])


def _clip(n_frames=6, fruit_type="smooth", shore00=50.0, seed=0, zero=False):
    frames = np.zeros((n_frames, 32, 32, 3)) if zero else _frames(n_frames, seed)
    forces = np.linspace(0.0, 2.0, n_frames)
    return softness.CompressionClip(softness._patch16(frames), forces,
                                    fruit_type, shore00)


def _toy_model(seed=0):
    params = softness._init_params(seed)
    return softness.RankerModel(embedder=softness.ClipEmbedder(*params[:7]),
                                comparator=params[7], bias=float(params[8]))


_DIM = softness.EMBED_DIM


def _with_comparator(comparator, bias=0.0):
    """A 40x40 model: seed 0's initial embedder with ``comparator``."""
    params = softness._init_params(0)
    return softness.RankerModel(softness.ClipEmbedder(*params[:7]),
                                comparator, bias=bias)


class TestBasics:
    def test_shore00_stiffness_quadratic_monotone(self):
        assert softness.shore00_stiffness(40.0) == pytest.approx(5e-4 * 1600)
        levels = np.array(softness.SHORE00_LEVELS)
        stiff = np.array([softness.shore00_stiffness(s) for s in levels])
        assert np.all(np.diff(stiff[np.argsort(levels)]) > 0)

    @pytest.mark.parametrize("shore00", [0.0, -5.0, np.nan, np.inf])
    def test_shore00_must_be_finite_and_positive(self, shore00):
        with pytest.raises(ValueError, match="shore00"):
            softness.shore00_stiffness(shore00)
        with pytest.raises(ValueError, match="shore00"):
            _clip(shore00=shore00)

    def test_clip_validation(self):
        patches = _clip().patches[:4]
        with pytest.raises(ValueError):
            _clip(n_frames=3)
        with pytest.raises(ValueError):
            softness.CompressionClip(patches, np.array([0, 1, -1, 2.0]),
                                     "smooth", 50.0)
        with pytest.raises(ValueError):
            softness.CompressionClip(patches, np.zeros(5), "smooth", 50.0)
        for bad in (patches[:, :255], patches[None], np.full((4, 256), np.nan)):
            with pytest.raises(ValueError, match="patches"):
                softness.CompressionClip(bad, np.zeros(len(bad)), "smooth",
                                         50.0)

    def test_patch16_matches_blockwise_means(self):
        vals = rng.uniform(-0.9, 0.9, (32, 32, 3))
        patch = softness._patch16(vals)
        gray = vals.mean(axis=2)
        want = gray.reshape(16, 2, 16, 2).mean(axis=(1, 3)).ravel()
        assert np.allclose(patch, want, atol=1e-12)

    @pytest.mark.parametrize("size", [32, 40, 64, 128])
    def test_stacked_patches_match_per_frame_pooling(self, size):
        """A whole stack pooled in one pass equals each frame pooled on its
        own, byte for byte: random frames, a rendered squeeze, and frames
        of signed zeros."""
        r = np.random.default_rng(size)
        frames, _ = sim.synth_compression_clip(
            SimpleNamespace(stiffness_n_mm=1.5, diameter_mm=18.0,
                                fruit_type="strawberry"),
            n_frames=6, rng=r, resolution=size, noise_sigma=0.01)
        stack = np.concatenate([
            r.uniform(-1.0, 1.0, (5, size, size, 3)),
            frames,
            np.zeros((1, size, size, 3)), np.full((1, size, size, 3), -0.0),
            np.where(r.random((1, size, size, 3)) < 0.5, -0.0, 0.0)])
        got = softness._patch16(stack)
        assert got.shape == (len(stack), 256)
        want = np.array([patch16_reference(frame) for frame in stack])
        assert got.tobytes() == want.tobytes()

    def test_patch16_rejects_small_frames(self):
        with pytest.raises(ValueError):
            softness._patch16(np.zeros((12, 12, 3)))

    def test_positional_table(self):
        table = softness._positional_table()
        assert table.shape == (16, 32)
        assert np.array_equal(table, softness._POSITIONS)
        # every frame index gets a distinct code
        dists = np.linalg.norm(table[:, None] - table[None, :], axis=2)
        assert np.min(dists[~np.eye(16, dtype=bool)]) > 1e-3

    def test_clip_resampling_covers_endpoints(self):
        clip = _clip(n_frames=24)
        patches, forces = softness._clip_tensors(clip)
        assert patches.shape == (16, 256) and forces.shape == (16,)
        assert forces[0] == clip.forces[0]
        assert forces[-1] == clip.forces[-1]


class TestEmbedding:
    def test_deterministic_and_40d(self):
        model = _toy_model()
        clip = _clip(seed=1)
        a = softness.encode_clip(clip, model)
        b = softness.encode_clip(clip, model)
        assert a.shape == (40,)
        assert np.array_equal(a, b)

    def test_frame_order_reversal_changes_embedding(self):
        model = _toy_model()
        clip = _clip(seed=2, n_frames=16)
        rev = softness.CompressionClip(clip.patches[::-1], clip.forces[::-1],
                                       clip.fruit_type, clip.shore00)
        a = softness.encode_clip(clip, model)
        b = softness.encode_clip(rev, model)
        assert np.linalg.norm(a - b) > 1e-6

    def test_zero_clip_embedding_ignores_patch_weights(self):
        params = softness._init_params(0)
        m1 = softness.RankerModel(softness.ClipEmbedder(*params[:7]),
                                  params[7])
        params2 = list(params)
        params2[0] = params[0] + rng.normal(0, 1, params[0].shape)
        m2 = softness.RankerModel(softness.ClipEmbedder(*params2[:7]),
                                  params[7])
        zero = _clip(zero=True)
        assert np.allclose(softness.encode_clip(zero, m1),
                           softness.encode_clip(zero, m2), atol=1e-12)

    def test_zero_clip_embedding_depends_on_patch_bias(self):
        params = softness._init_params(0)
        m1 = softness.RankerModel(softness.ClipEmbedder(*params[:7]),
                                  params[7])
        params2 = list(params)
        params2[1] = params[1] + 0.1
        m2 = softness.RankerModel(softness.ClipEmbedder(*params2[:7]),
                                  params[7])
        zero = _clip(zero=True)
        assert not np.allclose(softness.encode_clip(zero, m1),
                               softness.encode_clip(zero, m2), atol=1e-9)

    def test_missing_embedder_raises(self):
        with pytest.raises(ValueError, match="embedder"):
            softness.RankerModel(None, np.zeros((_DIM, _DIM)))


class TestComparator:
    def test_antisymmetry_over_random_pairs(self):
        model = _with_comparator(rng.normal(0, 1, (_DIM, _DIM)), bias=0.25)
        worst = 0.0
        for _ in range(1000):
            a = rng.normal(0, 2, _DIM)
            b = rng.normal(0, 2, _DIM)
            s = softness.compare_pair(a, b, model) \
                + softness.compare_pair(b, a, model)
            worst = max(worst, abs(s - 2 * model.bias))
        assert worst < 1e-9

    def test_skew_matrix_exactly_antisymmetric(self):
        model = _with_comparator(rng.normal(0, 1, (_DIM, _DIM)))
        w = model.skew_matrix
        assert np.array_equal(w, -w.T)

    def test_hand_example(self):
        comparator = np.zeros((_DIM, _DIM))
        comparator[0, 1] = 1.0
        model = _with_comparator(comparator)
        e0, e1 = np.eye(_DIM)[:2]
        assert softness.compare_pair(e0, e1, model) == 1.0
        assert softness.compare_pair(e1, e0, model) == -1.0

    def test_self_comparison_is_bias(self):
        model = _with_comparator(rng.normal(0, 1, (_DIM, _DIM)), bias=-0.5)
        e = rng.normal(0, 3, _DIM)
        assert softness.compare_pair(e, e, model) == pytest.approx(-0.5,
                                                                   abs=1e-12)

    def test_dimension_mismatch_raises(self):
        model = _with_comparator(np.zeros((_DIM, _DIM)))
        with pytest.raises(ValueError):
            softness.compare_pair(np.zeros(_DIM + 1), np.zeros(_DIM), model)

    def test_comparator_validation(self):
        for bad in (np.zeros((3, 3)), np.zeros((_DIM, _DIM + 1)),
                    np.full((_DIM, _DIM), np.nan)):
            with pytest.raises(ValueError, match="comparator"):
                _with_comparator(bad)


class TestTraining:
    def test_pair_indexing_and_validation(self):
        a = _clip(seed=1, shore00=60.0)
        b = _clip(seed=2, shore00=40.0)
        clips, ia, ib, labels = softness._index_pairs(
            [(a, b, 1), (b, a, 0), (a, b, 1)])
        assert len(clips) == 2
        assert ia.tolist() == [0, 1, 0] and ib.tolist() == [1, 0, 1]
        assert labels.tolist() == [1.0, 0.0, 1.0]
        other = _clip(seed=3, fruit_type="strawberry")
        with pytest.raises(ValueError):
            softness._index_pairs([(a, other, 1)])
        with pytest.raises(ValueError):
            softness._index_pairs([(a, b, 2)])

    def test_memorizes_single_pair(self):
        a = _clip(seed=4, shore00=60.0)
        b = _clip(seed=5, shore00=40.0)
        pairs = [(a, b, 1), (b, a, 0)]
        model = softness.train_ranker(pairs, epochs=300, learning_rate=0.05,
                                      seed=0)
        hist = np.array(model.loss_history)
        # one loss per iteration run, plus the final one
        _, want = train_ranker_reference(*_tensors(pairs), epochs=300,
                                         learning_rate=0.05, seed=0)
        assert hist.size == len(want) <= 301
        assert np.all(np.diff(hist) <= 1e-12)
        assert model.final_loss < 0.05
        ea = softness.encode_clip(a, model)
        eb = softness.encode_clip(b, model)
        assert softness.compare_pair(ea, eb, model) > 0
        assert softness.compare_pair(eb, ea, model) < 0

    def test_balanced_orders_leave_no_systematic_bias(self):
        a = _clip(seed=6, shore00=60.0)
        b = _clip(seed=7, shore00=40.0)
        # bias gradient on a both-orders pair is sigma(f)+sigma(-f)-1, zero up
        # to floating point round-off
        model = softness.train_ranker([(a, b, 1), (b, a, 0)], epochs=50,
                                      seed=1)
        assert abs(model.bias) < 1e-12

    def test_deterministic_for_seed(self):
        a = _clip(seed=8, shore00=60.0)
        b = _clip(seed=9, shore00=40.0)
        m1 = softness.train_ranker([(a, b, 1)], epochs=20, seed=3)
        m2 = softness.train_ranker([(a, b, 1)], epochs=20, seed=3)
        assert np.array_equal(m1.comparator, m2.comparator)
        assert m1.final_loss == m2.final_loss

    def test_input_validation(self):
        with pytest.raises(ValueError):
            softness.train_ranker([])
        a = _clip(seed=1, shore00=60.0)
        b = _clip(seed=2, shore00=40.0)
        with pytest.raises(ValueError):
            softness.train_ranker([(a, b, 1)], epochs=0)
        with pytest.raises(ValueError):
            softness.train_ranker([(a, b, 1)], learning_rate=0.0)

    @pytest.mark.parametrize("epochs", [np.nan, np.inf, 0, 2.5, True])
    def test_epochs_must_be_an_integer_at_least_one(self, epochs):
        a = _clip(seed=1, shore00=60.0)
        b = _clip(seed=2, shore00=40.0)
        with pytest.raises(ValueError, match="epochs must be an integer"):
            softness.train_ranker([(a, b, 1)], epochs=epochs)

    @pytest.mark.parametrize("rate", [0.0, -0.1, np.nan, np.inf])
    def test_learning_rate_validation(self, rate):
        a = _clip(seed=1, shore00=60.0)
        b = _clip(seed=2, shore00=40.0)
        with pytest.raises(ValueError, match="learning_rate"):
            softness.train_ranker([(a, b, 1)], epochs=5, learning_rate=rate)

    def test_gradients_match_finite_differences(self):
        a = _clip(seed=10, shore00=60.0, n_frames=5)
        b = _clip(seed=11, shore00=40.0, n_frames=5)
        clips, ia, ib, labels = softness._index_pairs([(a, b, 1), (b, a, 0)])
        tensors = [softness._clip_tensors(c) for c in clips]
        patches = np.stack([t[0] for t in tensors])
        forces = np.stack([t[1] for t in tensors])
        params = softness._init_params(0)
        shapes = [np.shape(p) for p in params]
        sizes = [int(np.prod(s)) if s else 1 for s in shapes]
        offsets = np.cumsum([0] + sizes)

        def unpack(flat):
            out = []
            for s, lo, hi in zip(shapes, offsets[:-1], offsets[1:]):
                out.append(flat[lo:hi].reshape(s) if s else float(flat[lo]))
            return out

        def f(flat):
            loss, _ = softness._loss_and_grads(tuple(unpack(flat)), patches,
                                               forces, ia, ib, labels)
            return loss

        flat0 = np.concatenate([np.ravel(p) for p in params])
        _, grads = softness._loss_and_grads(tuple(params), patches, forces,
                                            ia, ib, labels)
        flat_grad = np.concatenate([np.ravel(g) for g in grads])
        r = np.random.default_rng(0)
        check = sorted(set(
            int(i) for lo, hi in zip(offsets[:-1], offsets[1:])
            for i in r.integers(lo, hi, 4)))
        fd = fd_gradient_at(f, flat0, check, eps=1e-6)
        for i in check:
            denom = max(abs(fd[i]), abs(flat_grad[i]), 1e-8)
            assert abs(fd[i] - flat_grad[i]) / denom < 1e-4


def _tensors(pairs):
    """(patches, forces, idx_a, idx_b, labels) of ``train_ranker``'s loss."""
    clips, idx_a, idx_b, labels = softness._index_pairs(pairs)
    tensors = [softness._clip_tensors(c) for c in clips]
    patches = np.stack([t[0] for t in tensors])
    forces = np.stack([t[1] for t in tensors])
    return patches, forces, idx_a, idx_b, labels


@pytest.fixture(scope="module")
def criterion6_set():
    """The training clips of acceptance criterion 6, as stacked tensors."""
    pairs = softness.make_ranking_pairs(softness.build_clip_library(7, seed=0))
    return pairs, _tensors(pairs)


def _relative_error(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


def _relative_history_error(got, want):
    """Largest relative difference of two loss histories, entry by entry."""
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want) / want))


class TestTrainingKernel:
    """The BLAS-product gradients against the einsum reference in ``oracles``."""

    @pytest.mark.parametrize("seed", [0, 11])
    def test_gradients_match_oracle(self, criterion6_set, seed):
        _, tensors = criterion6_set
        params = tuple(softness._init_params(seed))
        loss, grads = softness._loss_and_grads(params, *tensors)
        want_loss, want = ranker_loss_and_grads(params, *tensors)
        assert _relative_error(loss, want_loss) <= 1e-12
        for got, ref in zip(grads[:-1], want[:-1]):
            assert _relative_error(got, ref) <= 1e-12
        # The bias gradient sums 1764 terms of size up to 1/1764 that cancel
        # exactly when every pair comes in both orders, as here; only
        # round-off is left, so it is held to an absolute bound.
        assert abs(grads[-1] - want[-1]) <= 1e-15

    def test_pair_scatter_adds_in_add_at_order(self, criterion6_set):
        # one bincount over the flat (clip, column) bins must add every bin's
        # terms in the order of np.add.at over idx_a, then over idx_b; terms
        # spanning many magnitudes make any other order change the sums
        _, (patches, _, idx_a, idx_b, _) = criterion6_set
        r = np.random.default_rng(2)
        shape = (len(idx_a), softness.EMBED_DIM)
        rows_a, rows_b = (r.normal(size=shape) * 10.0 ** r.integers(-8, 8, shape)
                          for _ in range(2))
        want = np.zeros((len(patches), softness.EMBED_DIM))
        np.add.at(want, idx_a, rows_a)
        np.add.at(want, idx_b, rows_b)
        scatter = softness._pair_scatter_index(idx_a, idx_b)
        got = np.bincount(scatter, np.concatenate([rows_a, rows_b]).ravel(),
                          minlength=want.size).reshape(want.shape)
        assert np.array_equal(got, want)
        swapped = softness._pair_scatter_index(idx_b, idx_a)
        other = np.bincount(swapped, np.concatenate([rows_b, rows_a]).ravel(),
                            minlength=want.size).reshape(want.shape)
        assert not np.array_equal(other, want)

    def test_loss_history_matches_oracle(self, criterion6_set):
        # The criterion-6 pairs are separable, so the run ends on the
        # gradient test after 15 iterations; both stop together.
        pairs, tensors = criterion6_set
        model = softness.train_ranker(pairs, epochs=600, learning_rate=0.01,
                                      seed=0)
        _, history = train_ranker_reference(*tensors, epochs=600,
                                            learning_rate=0.01, seed=0)
        assert len(model.loss_history) == len(history) < 601
        assert _relative_history_error(model.loss_history, history) <= 1e-9
        # Every fifth label flipped: a loss with an interior minimum, 30
        # iterations at the cap. L-BFGS amplifies the round-off by which
        # the BLAS and einsum gradients differ, to about 2e-11 here.
        noisy = [(a, b, 1 - label if k % 5 == 0 else label)
                 for k, (a, b, label) in enumerate(pairs)]
        model = softness.train_ranker(noisy, epochs=30, learning_rate=0.01,
                                      seed=0)
        _, history = train_ranker_reference(*_tensors(noisy), epochs=30,
                                            learning_rate=0.01, seed=0)
        assert len(model.loss_history) == len(history) == 31
        assert _relative_history_error(model.loss_history, history) <= 1e-9


@pytest.fixture(scope="module")
def library():
    return softness.build_clip_library(trials_per_cell=1, seed=0,
                                       n_frames=6, resolution=32)


class TestLibraryAndEval:
    def test_library_composition(self, library):
        assert len(library) == 3 * 4
        types = {c.fruit_type for c in library}
        assert types == {"smooth", "cherry_tomato", "strawberry"}
        for clip in library:
            assert np.all(clip.forces >= 0.0)
            assert clip.patches.shape == (6, 256)

    def test_library_deterministic(self, library):
        again = softness.build_clip_library(trials_per_cell=1, seed=0,
                                            n_frames=6, resolution=32)
        for clip, same in zip(library, again, strict=True):
            assert clip.forces.tobytes() == same.forces.tobytes()
            assert clip.patches.tobytes() == same.patches.tobytes()

    def test_library_frames_match_pinned_digest(self, monkeypatch):
        # SHA-256 of the float64 bytes of every frame the simulator renders
        # for the library at the default size, in library order, pinned when
        # the membrane blur moved from scipy.ndimage to numpy; any change to
        # the simulator's output bits, the blur's summation order included,
        # moves it. The force digest, of every clip's per-frame estimates,
        # was pinned while clips were still rendered one frame at a time,
        # and the patch digest, of every clip's pooled frames, when clips
        # stopped keeping their frames.
        digest, forces, patches = (hashlib.sha256() for _ in range(3))
        render = sim.synth_compression_clip

        def recorded(*args, **kwargs):
            frames, currents = render(*args, **kwargs)
            for frame in frames:
                digest.update(frame.tobytes())
            return frames, currents

        monkeypatch.setattr(sim, "synth_compression_clip", recorded)
        for clip in softness.build_clip_library(1, seed=0):
            forces.update(clip.forces.tobytes())
            patches.update(clip.patches.tobytes())
        assert digest.hexdigest() == ("5e0794eac8b53301c376e8516d8cd04f"
                                      "4af9d152d51ffcf31fe322e60ccffc73")
        assert forces.hexdigest() == ("82778d43b71d44d09aa31d88a9d71325"
                                      "3b7b635aeb52028644d1c7e8a4ec3ee4")
        assert patches.hexdigest() == ("5b7f91ec743c40a7a706d6597873197d"
                                       "e323fd12d93350522fd745c74d338cb9")

    def test_default_clip_holds_its_patches_alone(self):
        """A default 24-frame 64x64 clip keeps 24 pooled patches, at most
        64 KB, where its frames would take 2.36 MB."""
        clip = softness.build_clip_library(1, seed=0, textures=("smooth",),
                                           shore00_levels=(50.0,))[0]
        assert clip.patches.shape == (24, 256)
        assert sum(a.nbytes for a in (clip.patches, clip.forces)) <= 64 * 1024

    def test_library_pools_each_clip_stack_without_a_copy(self, monkeypatch):
        """Each clip's patches are pooled straight from the difference stack
        the simulator returns, not from a copy of it."""
        stacks, pooled = [], []
        render, pool = sim.synth_compression_clip, softness._patch16

        def rendered(*args, **kwargs):
            frames, currents = render(*args, **kwargs)
            stacks.append(frames)
            return frames, currents

        monkeypatch.setattr(sim, "synth_compression_clip", rendered)
        monkeypatch.setattr(softness, "_patch16",
                            lambda values: pooled.append(values) or pool(values))
        softness.build_clip_library(2, seed=0, textures=("smooth",),
                                    shore00_levels=(50.0,), n_frames=6,
                                    resolution=32)
        assert len(stacks) == len(pooled) == 2
        assert all(a is b for a, b in zip(stacks, pooled))

    def test_ranking_pairs_balanced_within_type(self, library):
        pairs = softness.make_ranking_pairs(library)
        assert len(pairs) == 3 * (4 * 3)           # ordered pairs per texture
        labels = [p[2] for p in pairs]
        assert sum(labels) == len(labels) // 2
        for a, b, _ in pairs:
            assert a.fruit_type == b.fruit_type
            assert a.shore00 != b.shore00

    def test_trained_model_beats_chance_and_groups_cover(self, library):
        pairs = softness.make_ranking_pairs(library)
        model = softness.train_ranker(pairs, epochs=150, seed=0)
        result = softness.eval_pairwise_accuracy(model, pairs)
        assert result.n_pairs == len(pairs)
        assert set(result.per_group) == {(c.fruit_type, c.shore00)
                                         for c in library}
        assert result.aggregate > 0.8
        assert all(0.0 <= v <= 1.0 for v in result.per_group.values())

    def test_eval_requires_pairs(self):
        model = _toy_model()
        with pytest.raises(ValueError):
            softness.eval_pairwise_accuracy(model, [])


class TestPersistence:
    def test_roundtrip_bitexact(self, tmp_path):
        a = _clip(seed=12, shore00=60.0)
        b = _clip(seed=13, shore00=40.0)
        model = softness.train_ranker([(a, b, 1), (b, a, 0)], epochs=30,
                                      seed=0)
        path = tmp_path / "ranker.txt"
        softness.save_ranker(model, path)
        back = softness.load_ranker(path)
        assert np.array_equal(softness.encode_clip(a, model),
                              softness.encode_clip(a, back))
        ea, eb = softness.encode_clip(a, model), softness.encode_clip(b, model)
        assert softness.compare_pair(ea, eb, back) == \
            softness.compare_pair(ea, eb, model)

    def test_corrupt_file_raises(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("ranker 16 16 32 8 40\n1.0 2.0 3.0\n")
        with pytest.raises(ValueError):
            softness.load_ranker(p)
        p.write_text("something else\n")
        with pytest.raises(ValueError):
            softness.load_ranker(p)
