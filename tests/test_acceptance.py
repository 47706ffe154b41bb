"""End-to-end acceptance checks, one verdict line per headline capability.

Every test exercises a full pipeline exactly as a user would drive it and
prints ``criterion N: PASS/FAIL`` with the measured numbers, so a plain
pytest run doubles as a capability report. Thresholds here are the binding
ones; the per-module suites probe the same components much more finely.
"""

import time

import numpy as np

from gripsense import core, force, geometry, harvest, sim, slip, softness
from gripsense.core import DisplacementField, HeightMap
from gripsense.perception import Perception
from oracles import fd_gradient_at, hhd_projection_reference
from recipes import criterion8_models


def _verdict(capsys, num, failures, detail):
    ok = not failures
    with capsys.disabled():
        print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {failures} ({detail})"


def _r2(pred, truth):
    pred, truth = np.asarray(pred, float).ravel(), np.asarray(truth, float).ravel()
    ss_res = float(np.sum((pred - truth) ** 2))
    ss_tot = float(np.sum((truth - truth.mean()) ** 2))
    return 1.0 - ss_res / ss_tot


def test_criterion_1_contact_geometry(capsys):
    """Calibrate on sphere presses, reconstruct an unseen pyramid press."""
    t0 = time.perf_counter()
    resolution = 128
    gel = sim.GelModel()
    rig = sim.default_rig()
    ppm = resolution / gel.gel_size_mm
    raw = sim.indent_heightmap(sim.HexPyramid(10.0, 2.0), (15.0, 15.0), 1.0,
                               (resolution, resolution), gel)
    flat = sim.render_tactile(HeightMap(np.zeros((resolution, resolution)),
                                        ppm), rig, gel)

    errors = {}
    for sigma in (0.0, 0.01):
        presses = sim.make_calibration_presses(
            8, rng=np.random.default_rng(0), resolution=resolution,
            noise_sigma=sigma)
        data = geometry.build_calibration_dataset(presses)
        model = geometry.fit_rgb2normal(data, epochs=1000, learning_rate=0.1,
                                        seed=0)
        img = sim.render_tactile(raw, rig, gel, sigma,
                                 np.random.default_rng(1) if sigma else None)
        normals = geometry.predict_normals(core.diff_image(img, flat), model)
        recon = geometry.integrate_normals(normals, ppm)
        errors[sigma] = geometry.reconstruction_error(recon, raw)
    elapsed = time.perf_counter() - t0

    failures = []
    if not errors[0.0] <= 0.05:
        failures.append("noiseless mse")
    if not errors[0.01] <= 0.201:
        failures.append("noisy mse")
    if not elapsed < 60.0:
        failures.append("runtime")
    _verdict(capsys, 1, failures,
             f"mse noiseless={errors[0.0]:.6f} mm^2, "
             f"noisy={errors[0.01]:.6f} mm^2, {elapsed:.1f} s")


def test_criterion_2_field_decomposition(capsys):
    """Helmholtz split: exact reassembly, pure parts, matches a dense solve."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = dict(recon=0.0, curl=0.0, div=0.0, oracle=0.0)
    for shape in ((16, 16), (24, 24), (20, 28)):
        v = DisplacementField(rng.normal(0.0, 1.0, shape + (2,)))
        out = force.hhd_decompose(v)
        resid = out.P.values + out.S.values + out.H.values - v.values
        worst["recon"] = max(worst["recon"],
                             np.abs(resid).max() / np.abs(v.values).max())
        worst["curl"] = max(worst["curl"],
                            float(np.sqrt(np.mean(force.curl(out.P) ** 2))))
        worst["div"] = max(worst["div"],
                           float(np.sqrt(np.mean(force.divergence(out.S) ** 2))))
        p_ref, s_ref, _ = hhd_projection_reference(v.values)
        worst["oracle"] = max(worst["oracle"],
                              np.abs(out.P.values - p_ref[0]).max(),
                              np.abs(out.S.values - s_ref[0]).max())
    elapsed = time.perf_counter() - t0

    failures = [k for k, bound in (("recon", 1e-9), ("curl", 1e-6),
                                   ("div", 1e-6), ("oracle", 1e-6))
                if not worst[k] < bound]
    if not elapsed < 30.0:
        failures.append("runtime")
    _verdict(capsys, 2, failures,
             f"recon={worst['recon']:.2e}, curl_rms={worst['curl']:.2e}, "
             f"div_rms={worst['div']:.2e}, oracle={worst['oracle']:.2e}, "
             f"{elapsed:.1f} s")


def test_criterion_3_normal_force(capsys):
    """Motor-current regression: exact on a line, accurate under noise."""
    forces_exact = np.linspace(0.5, 8.0, 60)
    currents_exact = 0.8 * forces_exact + 0.2
    model = force.fit_normal_force(
        np.column_stack([currents_exact, forces_exact]))
    exact_err = float(np.abs(
        force.predict_normal_force(currents_exact, model)
        - forces_exact).max())

    currents, truths = sim.make_force_samples(10000,
                                              rng=np.random.default_rng(0))
    model = force.fit_normal_force(np.column_stack([currents, truths]))
    preds = force.predict_normal_force(currents, model)
    r2 = _r2(preds, truths)
    mape = float(np.mean(np.abs(preds - truths) / truths))

    failures = []
    if not exact_err <= 1e-9:
        failures.append("exact line")
    if not r2 >= 0.95:
        failures.append("r2")
    if not mape <= 0.035:
        failures.append("mape")
    _verdict(capsys, 3, failures,
             f"exact_err={exact_err:.1e}, r2={r2:.4f}, mape={mape * 100:.2f}%")


def test_criterion_4_shear_force(capsys):
    """Shear regression from decomposed marker fields, held-out accuracy."""
    pairs, labels = sim.make_shear_dataset(300, rng=np.random.default_rng(7))
    feats = force.build_shear_features(pairs)
    model = force.fit_shear_model(feats[:210], labels[:210])
    preds = np.array([force.predict_shear(f, model) for f in feats[210:]])
    truth = labels[210:]
    r2 = _r2(preds, truth)
    mag_pred = np.hypot(preds[:, 0], preds[:, 1])
    mag_true = np.hypot(truth[:, 0], truth[:, 1])
    mape = float(np.mean(np.abs(mag_pred - mag_true) / mag_true))

    failures = []
    if not r2 >= 0.90:
        failures.append("r2")
    if not mape <= 0.10:
        failures.append("mape")
    _verdict(capsys, 4, failures,
             f"held-out r2={r2:.4f}, mape={mape * 100:.2f}% over 90 samples")


def test_criterion_5_slip_detection(capsys):
    """Pooled detection quality over the pose x load trial grid."""
    seqs = sim.make_slip_benchmark(seed=0)
    preds = [slip.analyze_sequence(s.masks, s.tracks).flags for s in seqs]
    labels = [s.labels for s in seqs]
    report = slip.evaluate_slip_detector(preds, labels)

    failures = []
    if not report.f1 >= 0.69:
        failures.append("f1")
    _verdict(capsys, 5, failures,
             f"pooled f1={report.f1:.3f} precision={report.precision:.3f} "
             f"recall={report.recall:.3f} over {len(seqs)} trials; "
             "detector invariants covered in test_slip.py")


def test_criterion_6_softness_ranking(capsys):
    """Pairwise hardness ranking: structure, gradients, learned accuracy."""
    lib_train = softness.build_clip_library(7, seed=0)
    model = softness.train_ranker(softness.make_ranking_pairs(lib_train),
                                  epochs=600, learning_rate=0.01, seed=0)
    lib_test = softness.build_clip_library(3, seed=1)
    pairs_test = softness.make_ranking_pairs(lib_test)
    result = softness.eval_pairwise_accuracy(model, pairs_test)

    # antisymmetry: swapping the clips flips the logit around the bias
    rng = np.random.default_rng(0)
    dim = model.comparator.shape[0]
    anti = 0.0
    for _ in range(1000):
        e_a, e_b = rng.normal(0.0, 1.0, (2, dim))
        anti = max(anti, abs(softness.compare_pair(e_a, e_b, model)
                             + softness.compare_pair(e_b, e_a, model)
                             - 2.0 * model.bias))

    # analytic gradients against central differences on a small batch
    clips, idx_a, idx_b, labels = softness._index_pairs(pairs_test[:8])
    tensors = [softness._clip_tensors(c) for c in clips]
    patches = np.stack([t[0] for t in tensors])
    fvals = np.stack([t[1] for t in tensors])
    params = softness._init_params(11)
    shapes = [np.shape(p) for p in params]
    sizes = [int(np.prod(s)) if s else 1 for s in shapes]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    flat0 = np.concatenate([np.ravel(p) for p in params])

    def unflatten(flat):
        return tuple(flat[offsets[i]:offsets[i + 1]].reshape(shapes[i])
                     if shapes[i] else float(flat[offsets[i]])
                     for i in range(len(params)))

    def loss_of(flat):
        return softness._loss_and_grads(unflatten(flat), patches, fvals,
                                        idx_a, idx_b, labels)[0]

    _, grads = softness._loss_and_grads(unflatten(flat0), patches, fvals,
                                        idx_a, idx_b, labels)
    flag_grad = np.concatenate([np.ravel(g) for g in grads])
    check = [int(min(offsets[i] + 1, offsets[i + 1] - 1))
             for i in range(len(params))]
    fd = fd_gradient_at(loss_of, flat0, check)
    grad_err = max(abs(fd[i] - flag_grad[i])
                   / max(abs(fd[i]), abs(flag_grad[i]), 1e-8) for i in check)

    # an untrained comparator should sit at chance on average over inits
    cl, ia, ib, lab = softness._index_pairs(pairs_test)
    tens = [softness._clip_tensors(c) for c in cl]
    pat = np.stack([t[0] for t in tens])
    fv = np.stack([t[1] for t in tens])
    accs = []
    for seed_u in range(200):
        p_u = tuple(softness._init_params(seed_u))
        emb, _ = softness._forward(p_u, pat, fv)
        w = p_u[7] - p_u[7].T
        logits = np.einsum("kd,de,ke->k", emb[ia], w, emb[ib]) + p_u[8]
        accs.append(float(np.mean((logits > 0.0) == (lab == 1.0))))
    chance = float(np.mean(accs))

    failures = []
    if not anti <= 1e-9:
        failures.append("antisymmetry")
    if not grad_err < 1e-4:
        failures.append("gradcheck")
    if not result.aggregate >= 0.90:
        failures.append("accuracy")
    if not 0.40 <= chance <= 0.60:
        failures.append("untrained chance")
    _verdict(capsys, 6, failures,
             f"antisym={anti:.1e}, gradcheck={grad_err:.1e}, "
             f"held-out accuracy={result.aggregate:.3f} "
             f"over {result.n_pairs} pairs, "
             f"untrained mean={chance:.3f} over 200 inits")


def test_criterion_7_harvest_ablation(capsys):
    """Closed-loop grasping beats open-loop on success and force spread."""
    t0 = time.perf_counter()
    summaries = harvest.run_experiment(trials_per_cell=50, seed=0)
    elapsed = time.perf_counter() - t0
    by = {(s.fruit_type, s.strategy): s for s in summaries}

    failures = []
    details = []
    for fruit in ("cherry_tomato", "strawberry"):
        sf = by[(fruit, "slip_force")]
        sl = by[(fruit, "slip")]
        ol = by[(fruit, "open_loop")]
        if not sf.success_rate >= sl.success_rate >= ol.success_rate:
            failures.append(f"{fruit} ordering")
        if not sf.force_var < sl.force_var:
            failures.append(f"{fruit} force variance")
        details.append(f"{fruit}: success {ol.success_rate:.2f}/"
                       f"{sl.success_rate:.2f}/{sf.success_rate:.2f}, "
                       f"var {sl.force_var:.2f}->{sf.force_var:.2f}")
    if not elapsed < 120.0:
        failures.append("runtime")
    _verdict(capsys, 7, failures,
             "; ".join(details) + f"; 50 trials/cell, {elapsed:.1f} s")


def test_criterion_8_perception_latency(capsys):
    """One full perception tick stays inside a 15 Hz frame budget."""
    resolution = 128
    gel = sim.GelModel()
    rig = sim.default_rig()
    ppm = resolution / gel.gel_size_mm
    flat = sim.render_tactile(HeightMap(np.zeros((resolution, resolution)),
                                        ppm), rig, gel)
    raw = sim.indent_heightmap(sim.Sphere(8.0), (15.0, 15.0), 1.0,
                               (resolution, resolution), gel)
    # sensor noise, so untouched gel differs from the background as on a
    # real sensor instead of giving an exactly zero diff
    img = sim.render_tactile(raw, rig, gel, 0.01, np.random.default_rng(3))

    rest = sim.marker_grid(gel, ppm, (resolution, resolution))
    moved = rest.moved(np.full(rest.xy.shape, 0.4))
    current = 0.8 * 3.0 + 0.2
    perception = Perception(*criterion8_models(), flat, rest)

    for _ in range(2):      # warm caches; the second tick runs the slip step
        p = perception.tick(img, moved, current)
    assert p.height.values.shape == (resolution, resolution)
    assert np.isfinite(p.normal_n)
    times = []
    for _ in range(10):
        t0 = time.perf_counter()
        perception.tick(img, moved, current)
        times.append(time.perf_counter() - t0)
    median_ms = float(np.median(times)) * 1e3

    failures = []
    if not median_ms < 66.0:
        failures.append("latency")
    _verdict(capsys, 8, failures,
             f"median tick={median_ms:.1f} ms over 10 runs at "
             f"{resolution}x{resolution} (budget 66 ms)")
