"""Pairwise softness ranking from squeeze clips.

A light clip encoder turns one squeeze sequence (difference images plus the
per-frame normal-force trace) into a fixed 40-dimensional embedding, and an
antisymmetric bilinear comparator scores which of two fruits is harder.
Training is plain full-batch gradient descent on the pairwise cross entropy,
kept deterministic so runs reproduce bit for bit. The gradients are BLAS
matrix products: the weight gradients, summed over clips and frames, are
one (clips * 16, d)^T (clips * 16, d) product each, and the logits a
row-wise dot of the two embeddings after one product with W.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DiffFrame
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

_EMBEDDER_SHAPES = {
    "w_patch": (PATCH_SIZE * PATCH_SIZE, TOKEN_DIM),
    "b_patch": (TOKEN_DIM,),
    "w_query": (TOKEN_DIM, TOKEN_DIM),
    "w_key": (TOKEN_DIM, TOKEN_DIM),
    "w_value": (TOKEN_DIM, TOKEN_DIM),
    "w_force": (FORCE_DIM,),
    "b_force": (FORCE_DIM,),
}


def shore00_stiffness(shore00: float) -> float:
    """Contact stiffness (N/mm) assigned to a Shore 00 hardness reading.

    Quadratic map calibrated so the four default levels span roughly
    0.9 to 2.3 N/mm, soft-fruit territory.
    """
    if shore00 <= 0.0:
        raise ValueError("shore00 must be positive")
    return 5e-4 * float(shore00) ** 2


def _positional_table(n_frames: int = CLIP_FRAMES, dim: int = TOKEN_DIM) -> np.ndarray:
    """Fixed sinusoidal frame-position codes added to the tokens."""
    t = np.arange(n_frames, dtype=np.float64)[:, None]
    k = np.arange(dim // 2, dtype=np.float64)[None, :]
    angle = t / 10000.0 ** (2.0 * k / dim)
    table = np.empty((n_frames, dim))
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle)
    return table


_POSITIONS = _positional_table()


@dataclass(frozen=True)
class CompressionClip:
    """One squeeze of one fruit: difference frames plus the force trace.

    ``forces`` holds the per-frame normal-force estimates in newtons and must
    be non-negative; ``shore00`` is the generator hardness tag used as ranking
    ground truth.
    """

    frames: tuple
    forces: np.ndarray
    fruit_type: str
    shore00: float

    def __post_init__(self):
        frames = tuple(self.frames)
        if len(frames) < 4:
            raise ValueError("clip needs at least 4 frames")
        if not all(isinstance(f, DiffFrame) for f in frames):
            raise TypeError("frames must be DiffFrame instances")
        forces = np.asarray(self.forces, dtype=np.float64)
        if forces.shape != (len(frames),):
            raise ValueError("need exactly one force reading per frame")
        if not np.all(np.isfinite(forces)) or np.any(forces < 0.0):
            raise ValueError("force series must be finite and non-negative")
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "forces", forces)


@dataclass(frozen=True)
class ClipEmbedder:
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
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class RankerModel:
    """Shared clip embedder plus the antisymmetric pair comparator.

    The comparator stores a free square matrix A; the bilinear form always
    uses W = A - A^T, so W is antisymmetric by construction and the logit of
    a clip against itself is exactly the bias. ``embedder`` may be None for
    a bare comparator operating on externally supplied embeddings.
    """

    embedder: ClipEmbedder | None
    comparator: np.ndarray
    bias: float = 0.0
    final_loss: float | None = None
    loss_history: tuple = ()

    def __post_init__(self):
        comp = np.asarray(self.comparator, dtype=np.float64)
        if comp.ndim != 2 or comp.shape[0] != comp.shape[1]:
            raise ValueError("comparator must be a square matrix")
        if not np.all(np.isfinite(comp)):
            raise ValueError("comparator contains non-finite values")
        if self.embedder is not None and comp.shape != (EMBED_DIM, EMBED_DIM):
            raise ValueError(f"comparator must be {EMBED_DIM}x{EMBED_DIM} "
                             f"to match the embedder, got {comp.shape}")
        if not np.isfinite(self.bias):
            raise ValueError("bias must be finite")
        object.__setattr__(self, "comparator", comp)
        object.__setattr__(self, "bias", float(self.bias))

    @property
    def skew_matrix(self) -> np.ndarray:
        """Comparator weights W = A - A^T."""
        return self.comparator - self.comparator.T


def _patch16(frame: DiffFrame) -> np.ndarray:
    """Mean-pool a difference frame to a flat 16x16 grayscale patch."""
    gray = frame.values.mean(axis=2)
    h, w = gray.shape
    if h < PATCH_SIZE or w < PATCH_SIZE:
        raise ValueError("frame smaller than the 16x16 pooling patch")
    rows = np.arange(PATCH_SIZE) * h // PATCH_SIZE
    cols = np.arange(PATCH_SIZE) * w // PATCH_SIZE
    pooled = np.add.reduceat(gray, rows, axis=0)
    pooled /= np.diff(np.append(rows, h))[:, None]
    pooled = np.add.reduceat(pooled, cols, axis=1)
    pooled /= np.diff(np.append(cols, w))[None, :]
    return pooled.ravel()


def _clip_tensors(clip: CompressionClip) -> tuple[np.ndarray, np.ndarray]:
    """Resample a clip to 16 frames; return (patches (16, 256), forces (16,))."""
    idx = np.rint(np.linspace(0, len(clip.frames) - 1, CLIP_FRAMES)).astype(int)
    patches = np.stack([_patch16(clip.frames[i]) for i in idx])
    return patches, clip.forces[idx]


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
    if model.embedder is None:
        raise ValueError("model carries no embedder weights")
    patches, forces = _clip_tensors(clip)
    emb, _ = _forward(_params_of(model), patches[None], forces[None])
    return emb[0]


def compare_pair(e_a: np.ndarray, e_b: np.ndarray, model: RankerModel) -> float:
    """Logit of "A is harder than B": e_A^T W e_B + b, decided by f >= 0."""
    e_a = np.asarray(e_a, dtype=np.float64)
    e_b = np.asarray(e_b, dtype=np.float64)
    d = model.comparator.shape[0]
    if e_a.shape != (d,) or e_b.shape != (d,):
        raise ValueError(f"embeddings must be {d}-vectors")
    return float(e_a @ model.skew_matrix @ e_b + model.bias)


def _pair_scatter_index(idx_a, idx_b) -> np.ndarray:
    """Flat (clip, embedding column) bins of every pair side, a sides first.

    ``np.bincount`` over these bins adds each bin's terms in the order two
    ``np.add.at`` calls, first over ``idx_a`` then over ``idx_b``, would.
    """
    sides = np.concatenate([idx_a, idx_b])
    return (sides[:, None] * EMBED_DIM + np.arange(EMBED_DIM)).ravel()


def _loss_and_grads(params, patches, forces, idx_a, idx_b, labels,
                    fit_bias: bool = True, scatter: np.ndarray | None = None):
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
    d_bias = float(dlogit.sum()) if fit_bias else 0.0

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
                 seed: int = 0, fit_bias: bool = True) -> RankerModel:
    """Full-batch gradient descent on the pairwise cross entropy.

    ``pairs`` is a sequence of (clip_a, clip_b, label) with label 1 when the
    first clip is the harder fruit. The embedder is shared between both sides
    of every pair and all gradients are analytic, so training is deterministic
    for a fixed seed. The recorded loss history has one entry per epoch plus
    the final loss.
    """
    if len(pairs) == 0:
        raise ValueError("no training pairs")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if not (np.isfinite(learning_rate) and learning_rate > 0.0):
        raise ValueError("learning_rate must be finite and positive, "
                         f"got {learning_rate}")
    clips, idx_a, idx_b, labels = _index_pairs(pairs)
    tensors = [_clip_tensors(c) for c in clips]
    patches = np.stack([t[0] for t in tensors])
    forces = np.stack([t[1] for t in tensors])

    scatter = _pair_scatter_index(idx_a, idx_b)
    params = _init_params(seed)
    history = []
    for _ in range(epochs):
        loss, grads = _loss_and_grads(tuple(params), patches, forces,
                                      idx_a, idx_b, labels, fit_bias, scatter)
        if not np.isfinite(loss):
            raise ValueError("training diverged; reduce the learning rate")
        history.append(loss)
        for i, grad in enumerate(grads):
            params[i] = params[i] - learning_rate * grad
    loss, _ = _loss_and_grads(tuple(params), patches, forces,
                              idx_a, idx_b, labels, fit_bias, scatter)
    if not np.isfinite(loss):
        raise ValueError("training diverged; reduce the learning rate")
    history.append(loss)
    return RankerModel(embedder=ClipEmbedder(*params[:7]),
                       comparator=params[7], bias=float(params[8]),
                       final_loss=history[-1], loss_history=tuple(history))


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
                       gel: sim.GelModel | None = None,
                       textures=("smooth", "cherry_tomato", "strawberry"),
                       shore00_levels=SHORE00_LEVELS, diameter_mm: float = 18.0,
                       n_frames: int = 24, resolution: int = 64,
                       squeeze_mm: float = 3.0,
                       noise_sigma: float = 0.01) -> list:
    """Simulate squeeze clips for every texture and hardness level.

    Per-frame forces come from a motor-current calibration fitted on the
    spot, mirroring how a real pipeline would label clips; small negative
    estimates near zero contact are clamped to zero.
    """
    if trials_per_cell < 1:
        raise ValueError("trials_per_cell must be >= 1")
    gel = sim.GelModel() if gel is None else gel
    rig = sim.default_rig()
    rng = np.random.default_rng(seed)
    calibration = fit_normal_force(
        np.column_stack(sim.make_force_samples(rng=np.random.default_rng(seed + 1))))
    clips = []
    for texture in textures:
        for shore in shore00_levels:
            fruit = _SyntheticFruit(shore00_stiffness(shore), diameter_mm, texture)
            for _ in range(trials_per_cell):
                frames, currents = sim.synth_compression_clip(
                    fruit, n_frames=n_frames, gel=gel, rig=rig, rng=rng,
                    squeeze_mm=squeeze_mm, resolution=resolution,
                    noise_sigma=noise_sigma)
                est = predict_normal_force(currents, calibration)
                clips.append(CompressionClip(tuple(frames),
                                             np.maximum(est, 0.0),
                                             texture, shore))
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
    if model.embedder is None:
        raise ValueError("model carries no embedder weights")
    dims = (CLIP_FRAMES, PATCH_SIZE, TOKEN_DIM, FORCE_DIM, EMBED_DIM)
    parts = ["ranker " + " ".join(str(d) for d in dims)]
    for arr in _params_of(model)[:8]:
        parts.append(" ".join(f"{v:.17g}" for v in np.ravel(arr)))
    parts.append(f"{model.bias:.17g}")
    with open(path, "w") as f:
        f.write("\n".join(parts) + "\n")


def load_ranker(path) -> RankerModel:
    with open(path) as f:
        tokens = f.read().split()
    dims = (CLIP_FRAMES, PATCH_SIZE, TOKEN_DIM, FORCE_DIM, EMBED_DIM)
    if tokens[:1] != ["ranker"] or tokens[1:6] != [str(d) for d in dims]:
        raise ValueError(f"unsupported ranker layout {tokens[:6]}")
    values = np.array([float(t) for t in tokens[6:]])
    shapes = list(_EMBEDDER_SHAPES.values()) + [(EMBED_DIM, EMBED_DIM)]
    expected = sum(int(np.prod(s)) for s in shapes) + 1
    if values.size != expected:
        raise ValueError(f"expected {expected} values, got {values.size}")
    arrays, start = [], 0
    for shape in shapes:
        size = int(np.prod(shape))
        arrays.append(values[start:start + size].reshape(shape))
        start += size
    return RankerModel(embedder=ClipEmbedder(*arrays[:7]),
                       comparator=arrays[7], bias=float(values[start]))
