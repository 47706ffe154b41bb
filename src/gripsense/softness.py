"""Pairwise softness ranking from squeeze clips.

A light clip encoder turns one squeeze sequence (difference images, kept
as the 16x16 patches they pool to, plus the per-frame normal-force trace)
into a fixed 40-dimensional embedding, and an
antisymmetric bilinear comparator scores which of two fruits is harder.
Training is full-batch L-BFGS (``core._lbfgs``) on the pairwise cross
entropy, with ``epochs`` as the iteration cap and ``learning_rate`` as the
first step length, kept deterministic so runs reproduce bit for bit. The
gradients are BLAS matrix products: the weight gradients, summed over clips
and frames, are one (clips * 16, d)^T (clips * 16, d) product each, and the
logits a row-wise dot of the two embeddings after one product with W.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (_check_positive, _Frozen, _lbfgs, _load_arrays,
                   _save_arrays)
from .force import fit_normal_force, predict_normal_force
from . import sim

CLIP_FRAMES = 16
PATCH_SIZE = 16
TOKEN_DIM = 32
FORCE_DIM = 8
EMBED_DIM = TOKEN_DIM + FORCE_DIM

DEFAULT_EPOCHS = 600
DEFAULT_LEARNING_RATE = 1e-2

#: Shore 00 hardness levels used as generator parameters for the ranking set.
SHORE00_LEVELS = (68.4, 64.8, 51.4, 42.2)
#: Fruit diameter (mm) and pixel noise sigma of every clip in the library.
_CLIP_DIAMETER_MM = 18.0
_CLIP_NOISE_SIGMA = 0.01

_EMBEDDER_SHAPES = {
    "w_patch": (PATCH_SIZE * PATCH_SIZE, TOKEN_DIM),
    "b_patch": (TOKEN_DIM,),
    "w_query": (TOKEN_DIM, TOKEN_DIM),
    "w_key": (TOKEN_DIM, TOKEN_DIM),
    "w_value": (TOKEN_DIM, TOKEN_DIM),
    "w_force": (FORCE_DIM,),
    "b_force": (FORCE_DIM,),
}
_RANKER_HEADER = "ranker " + " ".join(
    str(d) for d in (CLIP_FRAMES, PATCH_SIZE, TOKEN_DIM, FORCE_DIM, EMBED_DIM))


def shore00_stiffness(shore00: float) -> float:
    """Contact stiffness (N/mm) assigned to a Shore 00 hardness reading.

    Quadratic map calibrated so the four default levels span roughly
    0.9 to 2.3 N/mm, soft-fruit territory.
    """
    _check_positive(shore00, "shore00")
    return 5e-4 * float(shore00) ** 2


def _positional_table() -> np.ndarray:
    """Fixed sinusoidal frame-position codes (CLIP_FRAMES, TOKEN_DIM) added
    to the tokens."""
    t = np.arange(CLIP_FRAMES, dtype=np.float64)[:, None]
    k = np.arange(TOKEN_DIM // 2, dtype=np.float64)[None, :]
    angle = t / 10000.0 ** (2.0 * k / TOKEN_DIM)
    table = np.empty((CLIP_FRAMES, TOKEN_DIM))
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle)
    return table


_POSITIONS = _positional_table()


@dataclass(frozen=True, eq=False)
class CompressionClip(_Frozen):
    """One squeeze of one fruit: its pooled difference frames plus the force
    trace.

    ``patches`` (T, 256) holds each of the T >= 4 difference frames
    mean-pooled to a flat 16x16 grayscale patch (``_patch16``), the only
    view of a frame the ranker reads, so a clip keeps no frame raster.
    ``forces`` holds the per-frame normal-force estimates in newtons and must
    be non-negative; ``shore00``, finite and positive, is the generator
    hardness tag used as ranking ground truth.
    """

    patches: np.ndarray
    forces: np.ndarray
    fruit_type: str
    shore00: float

    def __post_init__(self):
        patches = self._keep("patches", self.patches, finite=True)
        if patches.ndim != 2 or patches.shape[1] != PATCH_SIZE * PATCH_SIZE:
            raise ValueError(f"patches must be (T, {PATCH_SIZE * PATCH_SIZE}), "
                             f"got {patches.shape}")
        if len(patches) < 4:
            raise ValueError("clip needs at least 4 frames")
        forces = self._keep("forces", self.forces)
        if forces.shape != (len(patches),):
            raise ValueError("need exactly one force reading per frame")
        if not np.all(np.isfinite(forces)) or np.any(forces < 0.0):
            raise ValueError("force series must be finite and non-negative")
        _check_positive(self.shore00, "shore00")


@dataclass(frozen=True, eq=False)
class ClipEmbedder(_Frozen):
    """Frame tokens, one self-attention pass, and a parallel force branch.

    Each frame is mean-pooled to a 16x16 grayscale patch and mapped linearly
    to a 32-dimensional token; fixed sinusoidal position codes make the frame
    order visible to the single-head attention that mixes the tokens. The
    scalar force trace is projected to 8 dimensions. Both branches are
    mean-pooled over frames and concatenated into a 40-dimensional embedding.
    """

    w_patch: np.ndarray
    b_patch: np.ndarray
    w_query: np.ndarray
    w_key: np.ndarray
    w_value: np.ndarray
    w_force: np.ndarray
    b_force: np.ndarray

    def __post_init__(self):
        for name, shape in _EMBEDDER_SHAPES.items():
            self._keep(name, getattr(self, name), shape=shape, finite=True)


@dataclass(frozen=True, eq=False)
class RankerModel(_Frozen):
    """Shared clip embedder plus the antisymmetric pair comparator.

    The comparator stores a free square matrix A; the bilinear form always
    uses W = A - A^T, so W is antisymmetric by construction and the logit of
    a clip against itself is exactly the bias.
    """

    embedder: ClipEmbedder
    comparator: np.ndarray
    bias: float = 0.0
    loss_history: tuple = ()

    def __post_init__(self):
        if not isinstance(self.embedder, ClipEmbedder):
            raise ValueError("embedder must be a ClipEmbedder, "
                             f"got {type(self.embedder).__name__}")
        self._keep("comparator", self.comparator,
                   shape=(EMBED_DIM, EMBED_DIM), finite=True)
        if not np.isfinite(self.bias):
            raise ValueError("bias must be finite")
        object.__setattr__(self, "bias", float(self.bias))

    @property
    def final_loss(self) -> float | None:
        """Loss after the last step; None without a history (a loaded model)."""
        return self.loss_history[-1] if self.loss_history else None

    @property
    def skew_matrix(self) -> np.ndarray:
        """Comparator weights W = A - A^T."""
        return self.comparator - self.comparator.T


def _patch16(values: np.ndarray) -> np.ndarray:
    """Mean-pool difference frames (..., H, W, 3) to flat 16x16 grayscale
    patches (..., 256), a whole stack of frames in one pass.

    The channel mean is summed as ``mean(axis=-1)`` sums it, from +0.0 in
    channel order, then divided by 3: its bits, signed zeros included, at a
    fraction of its cost on so short an axis."""
    gray = 0.0 + values[..., 0]
    gray += values[..., 1]
    gray += values[..., 2]
    gray /= 3
    h, w = gray.shape[-2:]
    if h < PATCH_SIZE or w < PATCH_SIZE:
        raise ValueError("frame smaller than the 16x16 pooling patch")
    rows = np.arange(PATCH_SIZE) * h // PATCH_SIZE
    cols = np.arange(PATCH_SIZE) * w // PATCH_SIZE
    pooled = np.add.reduceat(gray, rows, axis=-2)
    pooled /= np.diff(np.append(rows, h))[:, None]
    pooled = np.add.reduceat(pooled, cols, axis=-1)
    pooled /= np.diff(np.append(cols, w))
    return pooled.reshape(gray.shape[:-2] + (PATCH_SIZE * PATCH_SIZE,))


def _clip_tensors(clip: CompressionClip) -> tuple[np.ndarray, np.ndarray]:
    """Resample a clip to 16 frames; return (patches (16, 256), forces (16,))."""
    idx = np.rint(np.linspace(0, len(clip.patches) - 1, CLIP_FRAMES)).astype(int)
    return clip.patches[idx], clip.forces[idx]


def _params_of(model: RankerModel) -> tuple:
    e = model.embedder
    return (e.w_patch, e.b_patch, e.w_query, e.w_key, e.w_value,
            e.w_force, e.b_force, model.comparator, model.bias)


def _forward(params, patches, forces):
    """Batched embedder forward pass over stacked clip tensors."""
    w_patch, b_patch, w_query, w_key, w_value, w_force, b_force = params[:7]
    x = patches @ w_patch + b_patch + _POSITIONS
    q = x @ w_query
    k = x @ w_key
    v = x @ w_value
    scores = q @ k.transpose(0, 2, 1) / np.sqrt(TOKEN_DIM)
    scores -= scores.max(axis=2, keepdims=True)
    attn = np.exp(scores)
    attn /= attn.sum(axis=2, keepdims=True)
    z = (attn @ v).mean(axis=1)
    g = forces.mean(axis=1)[:, None] * w_force + b_force
    return np.concatenate([z, g], axis=1), (x, q, k, v, attn)


def encode_clip(clip: CompressionClip, model: RankerModel) -> np.ndarray:
    """Deterministic 40-dimensional embedding of a squeeze clip."""
    patches, forces = _clip_tensors(clip)
    emb, _ = _forward(_params_of(model), patches[None], forces[None])
    return emb[0]


def compare_pair(e_a: np.ndarray, e_b: np.ndarray, model: RankerModel) -> float:
    """Logit of "A is harder than B": e_A^T W e_B + b, decided by f >= 0."""
    e_a = np.asarray(e_a, dtype=np.float64)
    e_b = np.asarray(e_b, dtype=np.float64)
    if e_a.shape != (EMBED_DIM,) or e_b.shape != (EMBED_DIM,):
        raise ValueError(f"embeddings must be {EMBED_DIM}-vectors")
    return float(e_a @ model.skew_matrix @ e_b + model.bias)


def _pair_scatter_index(idx_a, idx_b) -> np.ndarray:
    """Flat (clip, embedding column) bins of every pair side, a sides first.

    ``np.bincount`` over these bins adds each bin's terms in the order two
    ``np.add.at`` calls, first over ``idx_a`` then over ``idx_b``, would.
    """
    sides = np.concatenate([idx_a, idx_b])
    return (sides[:, None] * EMBED_DIM + np.arange(EMBED_DIM)).ravel()


def _loss_and_grads(params, patches, forces, idx_a, idx_b, labels,
                    scatter: np.ndarray | None = None):
    """Mean pairwise cross entropy and its analytic parameter gradients.

    ``scatter`` is ``_pair_scatter_index(idx_a, idx_b)``; a fit builds it
    once and passes it to every evaluation.
    """
    if scatter is None:
        scatter = _pair_scatter_index(idx_a, idx_b)
    w_query, w_key, w_value = params[2:5]
    comparator, bias = params[7], params[8]
    emb, (x, q, k, v, attn) = _forward(params, patches, forces)
    w = comparator - comparator.T
    ea, eb = emb[idx_a], emb[idx_b]
    ebw = eb @ w.T
    logits = (ea * ebw).sum(axis=1) + bias
    loss = float(np.mean(np.logaddexp(0.0, logits) - labels * logits))

    dlogit = (0.5 * (1.0 + np.tanh(0.5 * logits)) - labels) / logits.size
    side_grads = np.concatenate([dlogit[:, None] * ebw, dlogit[:, None] * (ea @ w)])
    demb = np.bincount(scatter, side_grads.ravel(),
                       minlength=emb.size).reshape(emb.shape)
    dw = ea.T @ (dlogit[:, None] * eb)
    d_comp = dw - dw.T
    d_bias = float(dlogit.sum())

    dz, dg = demb[:, :TOKEN_DIM], demb[:, TOKEN_DIM:]
    d_w_force = (dg * forces.mean(axis=1)[:, None]).sum(axis=0)
    d_b_force = dg.sum(axis=0)

    dzt = np.broadcast_to(dz[:, None, :] / CLIP_FRAMES, attn.shape[:2] + dz.shape[-1:])
    dv = attn.transpose(0, 2, 1) @ dzt
    ds_attn = dzt @ v.transpose(0, 2, 1)
    ds = attn * (ds_attn - (ds_attn * attn).sum(axis=2, keepdims=True))
    scale = 1.0 / np.sqrt(TOKEN_DIM)
    dq = ds @ k * scale
    dk = ds.transpose(0, 2, 1) @ q * scale
    dx = dq @ w_query.T + dk @ w_key.T + dv @ w_value.T
    # weight gradients sum over clips and frames: one (C*16, d) product each
    tokens = x.reshape(-1, TOKEN_DIM).T
    d_w_query = tokens @ dq.reshape(-1, TOKEN_DIM)
    d_w_key = tokens @ dk.reshape(-1, TOKEN_DIM)
    d_w_value = tokens @ dv.reshape(-1, TOKEN_DIM)
    d_w_patch = (patches.reshape(-1, PATCH_SIZE * PATCH_SIZE).T
                 @ dx.reshape(-1, TOKEN_DIM))
    d_b_patch = dx.sum(axis=(0, 1))
    return loss, (d_w_patch, d_b_patch, d_w_query, d_w_key, d_w_value,
                  d_w_force, d_b_force, d_comp, d_bias)


def _glorot(rng, shape, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape)


def _init_params(seed: int) -> list:
    rng = np.random.default_rng(seed)
    n_patch = PATCH_SIZE * PATCH_SIZE
    return [
        _glorot(rng, (n_patch, TOKEN_DIM), n_patch, TOKEN_DIM),
        np.zeros(TOKEN_DIM),
        _glorot(rng, (TOKEN_DIM, TOKEN_DIM), TOKEN_DIM, TOKEN_DIM),
        _glorot(rng, (TOKEN_DIM, TOKEN_DIM), TOKEN_DIM, TOKEN_DIM),
        _glorot(rng, (TOKEN_DIM, TOKEN_DIM), TOKEN_DIM, TOKEN_DIM),
        _glorot(rng, (FORCE_DIM,), 1, FORCE_DIM),
        np.zeros(FORCE_DIM),
        _glorot(rng, (EMBED_DIM, EMBED_DIM), EMBED_DIM, EMBED_DIM),
        0.0,
    ]


def _index_pairs(pairs):
    """Deduplicate clips by identity; return (clips, idx_a, idx_b, labels)."""
    clips, index = [], {}
    idx_a = np.empty(len(pairs), dtype=np.intp)
    idx_b = np.empty(len(pairs), dtype=np.intp)
    labels = np.empty(len(pairs))
    for n, (clip_a, clip_b, label) in enumerate(pairs):
        if label not in (0, 1):
            raise ValueError("pair labels must be 0 or 1")
        if clip_a.fruit_type != clip_b.fruit_type:
            raise ValueError("pairs must compare clips of the same fruit type")
        for clip, slot in ((clip_a, idx_a), (clip_b, idx_b)):
            key = id(clip)
            if key not in index:
                index[key] = len(clips)
                clips.append(clip)
            slot[n] = index[key]
        labels[n] = label
    return clips, idx_a, idx_b, labels


def train_ranker(pairs, epochs: int = DEFAULT_EPOCHS,
                 learning_rate: float = DEFAULT_LEARNING_RATE,
                 seed: int = 0) -> RankerModel:
    """Full-batch L-BFGS on the pairwise cross entropy.

    ``pairs`` is a sequence of (clip_a, clip_b, label) with label 1 when the
    first clip is the harder fruit. ``epochs`` is the iteration cap, and the
    fit stops earlier once it has converged; ``learning_rate`` is the first
    step length, along -g. The embedder is shared between both sides of
    every pair and all gradients are analytic, so training is deterministic
    for a fixed seed. The recorded loss history has one entry per iteration
    plus the final loss; a non-finite loss at the initial weights raises.
    """
    if len(pairs) == 0:
        raise ValueError("no training pairs")
    clips, idx_a, idx_b, labels = _index_pairs(pairs)
    tensors = [_clip_tensors(c) for c in clips]
    patches = np.stack([t[0] for t in tensors])
    forces = np.stack([t[1] for t in tensors])

    scatter = _pair_scatter_index(idx_a, idx_b)
    params, history = _lbfgs(
        lambda p: _loss_and_grads(tuple(p), patches, forces, idx_a, idx_b,
                                  labels, scatter),
        _init_params(seed), epochs, learning_rate)
    return RankerModel(embedder=ClipEmbedder(*params[:7]),
                       comparator=params[7], bias=float(params[8]),
                       loss_history=tuple(history))


@dataclass(frozen=True)
class PairwiseAccuracy:
    """Fraction of correct harder-than decisions, grouped and pooled.

    ``per_group`` maps (fruit_type, shore00) to the accuracy over all pairs
    that involve that hardness level of that fruit.
    """

    per_group: dict
    aggregate: float
    n_pairs: int


def eval_pairwise_accuracy(model: RankerModel, pairs) -> PairwiseAccuracy:
    """Score f >= 0 decisions on held-out pairs, grouped per fruit/hardness."""
    if len(pairs) == 0:
        raise ValueError("no evaluation pairs")
    cache = {}
    hits, counts = {}, {}
    n_correct = 0
    for clip_a, clip_b, label in pairs:
        for clip in (clip_a, clip_b):
            if id(clip) not in cache:
                cache[id(clip)] = encode_clip(clip, model)
        logit = compare_pair(cache[id(clip_a)], cache[id(clip_b)], model)
        correct = (logit >= 0.0) == bool(label)
        n_correct += correct
        for clip in (clip_a, clip_b):
            key = (clip.fruit_type, clip.shore00)
            counts[key] = counts.get(key, 0) + 1
            hits[key] = hits.get(key, 0) + correct
    per_group = {key: hits[key] / counts[key] for key in sorted(counts)}
    return PairwiseAccuracy(per_group, n_correct / len(pairs), len(pairs))


@dataclass(frozen=True)
class _SyntheticFruit:
    stiffness_n_mm: float
    diameter_mm: float
    fruit_type: str


def build_clip_library(trials_per_cell: int = 10, seed: int = 0,
                       textures=("smooth", "cherry_tomato", "strawberry"),
                       shore00_levels=SHORE00_LEVELS, n_frames: int = 24,
                       resolution: int = 64) -> list:
    """Simulate squeeze clips for every texture and hardness level: fruit of
    ``_CLIP_DIAMETER_MM`` squeezed by ``sim.synth_compression_clip``, which
    fixes the gel, rig and travel, rendered with ``_CLIP_NOISE_SIGMA`` noise.

    Per-frame forces come from a motor-current calibration fitted on the
    spot, mirroring how a real pipeline would label clips; small negative
    estimates near zero contact are clamped to zero.
    """
    if trials_per_cell < 1:
        raise ValueError("trials_per_cell must be >= 1")
    rng = np.random.default_rng(seed)
    calibration = fit_normal_force(
        np.column_stack(sim.make_force_samples(rng=np.random.default_rng(seed + 1))))
    clips = []
    for texture in textures:
        for shore in shore00_levels:
            fruit = _SyntheticFruit(shore00_stiffness(shore),
                                    _CLIP_DIAMETER_MM, texture)
            for _ in range(trials_per_cell):
                frames, currents = sim.synth_compression_clip(
                    fruit, n_frames=n_frames, rng=rng, resolution=resolution,
                    noise_sigma=_CLIP_NOISE_SIGMA)
                est = predict_normal_force(currents, calibration)
                clips.append(CompressionClip(
                    _patch16(frames),
                    np.maximum(est, 0.0), texture, shore))
    return clips


def make_ranking_pairs(clips) -> list:
    """All ordered cross-hardness pairs within each fruit type.

    Label is 1 when the first clip is the harder fruit. Including both orders
    of every pair keeps the label set exactly balanced.
    """
    pairs = []
    for i, clip_a in enumerate(clips):
        for j, clip_b in enumerate(clips):
            if i == j or clip_a.fruit_type != clip_b.fruit_type:
                continue
            if clip_a.shore00 == clip_b.shore00:
                continue
            pairs.append((clip_a, clip_b, int(clip_a.shore00 > clip_b.shore00)))
    return pairs


def save_ranker(model: RankerModel, path) -> None:
    """Dimension header plus whitespace-separated weights, full precision."""
    _save_arrays(path, _RANKER_HEADER, _params_of(model))


def load_ranker(path) -> RankerModel:
    shapes = list(_EMBEDDER_SHAPES.values()) + [(EMBED_DIM, EMBED_DIM), ()]
    arrays = _load_arrays(path, _RANKER_HEADER, shapes)
    return RankerModel(embedder=ClipEmbedder(*arrays[:7]),
                       comparator=arrays[7], bias=float(arrays[8]))
