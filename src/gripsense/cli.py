"""Command line front end for the perception toolkit.

Every subcommand reads and writes plain text (CSV tables plus one-line
summaries), takes ``--seed`` for reproducibility and ``--config`` for a
key=value settings file, and returns exit code 0 on success, 1 with a
single ``error:`` line on stderr otherwise. File formats round-trip: the
``slip`` subcommand consumes exactly what ``sim`` writes.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from pathlib import Path

import numpy as np

from . import core, force, geometry, harvest, sim, slip, softness
from .config import Config, default_config, describe_config, parse_config

_DESCRIPTION = "tactile perception toolkit: simulate, calibrate, detect, rank"


@contextlib.contextmanager
def _out_stream(path):
    """Open ``path`` for writing, with None or ``-`` meaning stdout."""
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w") as f:
            yield f


# ---------------------------------------------------------------------------
# sim: synthesize one slip trial as three CSV files
# ---------------------------------------------------------------------------

def _cmd_sim(args, cfg: Config) -> int:
    gel = sim.GelModel(gel_size_mm=cfg["sim.gel_size_mm"],
                       membrane_sigma_mm=cfg["sim.membrane_sigma_mm"])
    scene = sim.GraspScene(pose=cfg["sim.pose"], load_g=cfg["sim.load_g"])
    seq = sim.synth_slip_sequence(
        scene, cfg["sim.frames"], gel, np.random.default_rng(args.seed),
        px_per_mm=cfg["sim.px_per_mm"], threshold_px=cfg["slip.threshold_px"],
        depth_mm=cfg["sim.depth_mm"],
        marker_jitter_px=cfg["sim.marker_jitter_px"])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    core.save_marker_tracks(out / "markers.csv", seq.tracks)
    first = seq.masks[0]
    h, w = first.values.shape
    with open(out / "objects.csv", "w") as f:
        f.write(f"# size {h} {w} threshold_mm {first.threshold_mm:g} "
                f"px_per_mm {first.px_per_mm:g}\n")
        f.write("frame,cx_px,cy_px,radius_px\n")
        for t, mask in enumerate(seq.masks):
            cx, cy = mask.centroid()
            radius = math.sqrt(mask.area / math.pi)
            f.write(f"{t},{cx:.4f},{cy:.4f},{radius:.4f}\n")
    with open(out / "labels.csv", "w") as f:
        f.write("frame,label,true_diff_px\n")
        for t, (label, diff) in enumerate(zip(seq.labels, seq.true_diff)):
            f.write(f"{t},{int(label)},{diff:.4f}\n")
    print(f"frames={len(seq)} slip_frames={int(seq.labels.sum())} "
          f"pose={seq.pose} load_g={seq.load_g:g} px_per_mm={seq.px_per_mm:g} "
          f"dir={out}")
    return 0


# ---------------------------------------------------------------------------
# slip: detector over saved tracks
# ---------------------------------------------------------------------------

def _load_objects(path) -> list:
    """Rebuild per-frame contact masks from an objects.csv written by sim."""
    size = None
    threshold_mm = slip.DEFAULT_CONTACT_THRESHOLD_MM
    px_per_mm = 1.0
    rows = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                tokens = line[1:].split()
                for key, n_vals in (("size", 2), ("threshold_mm", 1),
                                    ("px_per_mm", 1)):
                    if key in tokens:
                        i = tokens.index(key)
                        vals = [float(v) for v in tokens[i + 1:i + 1 + n_vals]]
                        if key == "size":
                            size = (int(vals[0]), int(vals[1]))
                        elif key == "threshold_mm":
                            threshold_mm = vals[0]
                        else:
                            px_per_mm = vals[0]
                continue
            if line.startswith("frame"):
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise ValueError(f"{path}, line {lineno}: expected "
                                 f"frame,cx_px,cy_px,radius_px")
            rows[int(parts[0])] = (float(parts[1]), float(parts[2]),
                                   float(parts[3]))
    if not rows:
        raise ValueError(f"{path}: no object rows")
    if sorted(rows) != list(range(len(rows))):
        raise ValueError(f"{path}: frame indices must be 0..T-1 with no gaps")
    if size is None:
        extent = max(cx + r for cx, cy, r in rows.values())
        extent = max(extent, max(cy + r for cx, cy, r in rows.values()))
        size = (int(math.ceil(extent)) + 2,) * 2
    ys, xs = np.ogrid[:size[0], :size[1]]
    masks = []
    for t in range(len(rows)):
        cx, cy, radius = rows[t]
        disc = (xs - cx) ** 2 + (ys - cy) ** 2 <= radius ** 2
        masks.append(slip.ContactMask(disc, threshold_mm, px_per_mm))
    return masks


def _load_labels(path) -> np.ndarray:
    labels = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith(("#", "frame")):
                continue
            parts = line.split(",")
            try:
                labels[int(parts[0])] = bool(int(parts[1]))
            except (IndexError, ValueError):
                raise ValueError(f"{path}, line {lineno}: expected integer "
                                 f"frame,label") from None
    if sorted(labels) != list(range(len(labels))):
        raise ValueError(f"{path}: frame indices must be 0..T-1 with no gaps")
    return np.array([labels[t] for t in range(len(labels))], dtype=bool)


def _cmd_slip(args, cfg: Config) -> int:
    masks = _load_objects(args.objects)
    tracks = core.load_marker_tracks(args.tracks)
    if len(tracks) != len(masks):
        raise ValueError(f"{len(tracks)} marker frames but {len(masks)} "
                         f"object frames")
    threshold = cfg["slip.threshold_px"]
    report = slip.analyze_sequence(masks, tracks, threshold,
                                   cfg["slip.smooth_window"])
    with _out_stream(args.out) as f:
        f.write("frame,object_vx,object_vy,marker_vx,marker_vy,diff_px,slip\n")
        for t in range(len(masks)):
            ov, mv = report.object_v[t], report.marker_v[t]
            f.write(f"{t},{ov[0]:.4f},{ov[1]:.4f},{mv[0]:.4f},{mv[1]:.4f},"
                    f"{report.speed_diff[t]:.4f},{int(report.flags[t])}\n")
    print(f"frames={len(masks)} slip_frames={int(report.flags.sum())} "
          f"threshold_px={threshold:g}")
    if args.labels:
        labels = _load_labels(args.labels)
        scored = slip.evaluate_slip_detector(report.flags, labels)
        print(f"precision={scored.precision:.3f} recall={scored.recall:.3f} "
              f"f1={scored.f1:.3f} lead_s={scored.mean_lead_s:.3f}")
    return 0


# ---------------------------------------------------------------------------
# calibrate / reconstruct: the contact geometry pipeline
# ---------------------------------------------------------------------------

def _cmd_calibrate(args, cfg: Config) -> int:
    presses = sim.make_calibration_presses(
        cfg["geometry.presses"], cfg["geometry.sphere_radius_mm"],
        rng=np.random.default_rng(args.seed),
        resolution=cfg["geometry.resolution"])
    data = geometry.build_calibration_dataset(presses)
    model = geometry.fit_rgb2normal(data, cfg["geometry.epochs"],
                                    cfg["geometry.learning_rate"],
                                    seed=args.seed)
    geometry.save_rgb2normal(model, args.out)
    print(f"presses={len(presses)} samples={data.features.shape[0]} "
          f"iterations={len(model.loss_history) - 1} "
          f"final_loss={model.final_loss:.6g} model={args.out}")
    return 0


def _test_pyramid_press(cfg: Config):
    """The reconstruction test object: a hex pyramid pressed apex first."""
    gel = sim.GelModel()
    res = cfg["geometry.resolution"]
    ppm = res / gel.gel_size_mm
    mid = gel.gel_size_mm / 2.0
    raw = sim.indent_heightmap(sim.HexPyramid(10.0, 2.0), (mid, mid), 1.0,
                               (res, res), gel)
    img = sim.render_tactile(raw, sim.default_rig(), gel)
    flat = sim.render_tactile(sim.HeightMap(np.zeros((res, res)), ppm),
                              sim.default_rig(), gel)
    return core.diff_image(img, flat), raw


def _cmd_reconstruct(args, cfg: Config) -> int:
    model = geometry.load_rgb2normal(args.model)
    diff, truth = _test_pyramid_press(cfg)
    normals = geometry.predict_normals(diff, model)
    heightmap = geometry.integrate_normals(normals, truth.px_per_mm)
    mse = geometry.reconstruction_error(heightmap, truth)
    if args.out:
        core.save_heightmap(args.out, heightmap)
    print(f"resolution={truth.values.shape[0]} mse_mm2={mse:.6f}"
          + (f" heightmap={args.out}" if args.out else ""))
    return 0


# ---------------------------------------------------------------------------
# force: calibrate both force models, stream a loading episode
# ---------------------------------------------------------------------------

def _cmd_force(args, cfg: Config) -> int:
    rng = np.random.default_rng(args.seed)
    currents, forces = sim.make_force_samples(cfg["force.samples"], rng)
    normal_model = force.fit_normal_force(np.column_stack([currents, forces]))
    pairs, labels = sim.make_shear_dataset(cfg["force.shear_samples"], rng=rng)
    grid = (cfg["force.grid"], cfg["force.grid"])
    shear_model = force.fit_shear_model(force.build_shear_features(pairs, grid),
                                        labels)

    gel = sim.GelModel()
    mask_px = 240
    ppm = mask_px / gel.gel_size_mm
    xs = (np.arange(mask_px) + 0.5) / ppm
    xm, ym = np.meshgrid(xs, xs)
    mid = gel.gel_size_mm / 2.0
    pen = sim.Sphere(15.0).penetration(xm - mid, ym - mid, 1.2)
    mask = slip.ContactMask(pen > slip.DEFAULT_CONTACT_THRESHOLD_MM,
                            slip.DEFAULT_CONTACT_THRESHOLD_MM, ppm)
    rest = sim.marker_grid(gel, ppm, (mask_px, mask_px))
    angle = math.pi / 6.0
    n_frames = cfg["force.frames"]
    with _out_stream(args.out) as f:
        f.write("frame,f_n,f_x,f_y,true_f_n,true_f_x,true_f_y\n")
        for t in range(n_frames):
            frac = t / (n_frames - 1) if n_frames > 1 else 1.0
            true_n = 0.5 + 3.5 * frac
            current = sim.CURRENT_GAIN * true_n + sim.CURRENT_OFFSET \
                + rng.normal(0.0, sim.CURRENT_NOISE)
            f_n = force.predict_normal_force(current, normal_model)
            shear = 3.0 * frac * np.array([math.cos(angle), math.sin(angle)])
            moved = sim.deform_markers(rest, mask, shear, "translation", gel)
            moved = moved.moved(rng.normal(0.0, sim._SHEAR_JITTER_PX,
                                           rest.xy.shape))
            feat = force.build_shear_features([(rest, moved, mask)], grid)[0]
            f_x, f_y = force.predict_shear(feat, shear_model)
            true_x, true_y = sim._SHEAR_FORCE_PER_MM * shear
            f.write(f"{t},{f_n:.4f},{f_x:.4f},{f_y:.4f},"
                    f"{true_n:.4f},{true_x:.4f},{true_y:.4f}\n")
    print(f"frames={n_frames} slope={normal_model.slope:.4f} "
          f"intercept={normal_model.intercept:.4f}")
    return 0


# ---------------------------------------------------------------------------
# softness: train and evaluate the pairwise ranker
# ---------------------------------------------------------------------------

def _cmd_softness_train(args, cfg: Config) -> int:
    clips = softness.build_clip_library(
        cfg["softness.train_trials"], seed=args.seed,
        n_frames=cfg["softness.frames"], resolution=cfg["softness.resolution"])
    pairs = softness.make_ranking_pairs(clips)
    model = softness.train_ranker(pairs, cfg["softness.epochs"],
                                  cfg["softness.learning_rate"],
                                  seed=args.seed)
    softness.save_ranker(model, args.out)
    print(f"clips={len(clips)} pairs={len(pairs)} "
          f"iterations={len(model.loss_history) - 1} "
          f"final_loss={model.final_loss:.6g} model={args.out}")
    return 0


def _cmd_softness_eval(args, cfg: Config) -> int:
    model = softness.load_ranker(args.model)
    clips = softness.build_clip_library(
        cfg["softness.test_trials"], seed=args.seed + 1,
        n_frames=cfg["softness.frames"], resolution=cfg["softness.resolution"])
    pairs = softness.make_ranking_pairs(clips)
    result = softness.eval_pairwise_accuracy(model, pairs)
    with _out_stream(args.out) as f:
        f.write("fruit_type,shore00,accuracy\n")
        for (fruit_type, shore00), acc in sorted(result.per_group.items()):
            f.write(f"{fruit_type},{shore00:g},{acc:.4f}\n")
    print(f"pairs={result.n_pairs} aggregate={result.aggregate:.4f}")
    return 0


# ---------------------------------------------------------------------------
# harvest-sim: one strategy x fruit cell of the ablation
# ---------------------------------------------------------------------------

_FRUIT_TYPES = ("cherry_tomato", "strawberry")


def _cmd_harvest(args, cfg: Config) -> int:
    strategy_cfg = harvest.StrategyConfig(
        strategy=args.strategy,
        close_margin_mm=cfg["harvest.close_margin_mm"],
        retry_increment_mm=cfg["harvest.retry_increment_mm"],
        max_retries=cfg["harvest.max_retries"])
    f_idx = _FRUIT_TYPES.index(args.fruit)
    n = cfg["harvest.trials"]
    outcomes = []
    with _out_stream(args.out) as f:
        f.write("trial,success,attempts,peak_force_n,failure_mode\n")
        for trial in range(n):
            # seeded exactly like the paired experiment loop, so runs with a
            # different strategy but the same seed see identical fruits
            seq = np.random.SeedSequence((args.seed, f_idx, trial))
            fruit = harvest.sample_fruit(args.fruit,
                                         np.random.default_rng(seq.spawn(1)[0]))
            outcome = harvest.run_trial(
                fruit, strategy_cfg, seed=seq.spawn(1)[0],
                diameter_noise_mm=cfg["harvest.diameter_noise_mm"],
                px_per_mm=cfg["harvest.px_per_mm"],
                threshold_px=cfg["slip.threshold_px"])
            outcomes.append(outcome)
            f.write(f"{trial},{int(outcome.success)},{outcome.attempts},"
                    f"{outcome.peak_force_n:.4f},{outcome.failure_mode}\n")
    peaks = np.array([o.peak_force_n for o in outcomes])
    success = np.mean([o.success for o in outcomes])
    attempts = np.mean([o.attempts for o in outcomes])
    print(f"fruit={args.fruit} strategy={args.strategy} trials={n} "
          f"success_rate={success:.3f} mean_attempts={attempts:.3f} "
          f"force_mean={peaks.mean():.3f} force_var={peaks.var():.4f}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gripsense", description=_DESCRIPTION,
        epilog=describe_config(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE",
                        help="key=value settings file (see list below)")
    common.add_argument("--seed", type=int, default=0,
                        help="master random seed (default 0)")

    def add(name, func, help_text, **kwargs):
        p = parser_sub.add_parser(
            name, parents=[common], help=help_text, description=help_text,
            epilog=describe_config(),
            formatter_class=argparse.RawDescriptionHelpFormatter, **kwargs)
        p.set_defaults(func=func)
        return p

    parser_sub = parser.add_subparsers(dest="command", required=True,
                                       metavar="command")

    p = add("sim", _cmd_sim,
            "synthesize a grasp trial; write marker, object and label CSVs")
    p.add_argument("--out", required=True, metavar="DIR",
                   help="directory for markers.csv, objects.csv, labels.csv")

    p = add("calibrate", _cmd_calibrate,
            "fit the pixel-to-normal model on sphere presses and save it")
    p.add_argument("--out", required=True, metavar="FILE",
                   help="path for the saved model")

    p = add("reconstruct", _cmd_reconstruct,
            "press the test pyramid and report heightmap reconstruction MSE")
    p.add_argument("--model", required=True, metavar="FILE",
                   help="model file written by calibrate")
    p.add_argument("--out", metavar="FILE",
                   help="also save the reconstructed heightmap CSV here")

    p = add("force", _cmd_force,
            "fit normal and shear force models, stream per-frame estimates")
    p.add_argument("--out", metavar="FILE",
                   help="per-frame CSV (default stdout)")

    p = add("slip", _cmd_slip,
            "run the slip detector over saved marker and object tracks")
    p.add_argument("--tracks", required=True, metavar="FILE",
                   help="markers.csv written by sim")
    p.add_argument("--objects", required=True, metavar="FILE",
                   help="objects.csv written by sim")
    p.add_argument("--labels", metavar="FILE",
                   help="labels.csv for scoring (optional)")
    p.add_argument("--out", metavar="FILE",
                   help="per-frame CSV (default stdout)")

    p = add("softness-train", _cmd_softness_train,
            "simulate squeeze clips and train the pairwise softness ranker")
    p.add_argument("--out", required=True, metavar="FILE",
                   help="path for the saved ranker")

    p = add("softness-eval", _cmd_softness_eval,
            "score a saved ranker on freshly simulated held-out clips")
    p.add_argument("--model", required=True, metavar="FILE",
                   help="ranker file written by softness-train")
    p.add_argument("--out", metavar="FILE",
                   help="per-group accuracy CSV (default stdout)")

    p = add("harvest-sim", _cmd_harvest,
            "run grasp trials for one strategy and fruit; summarize outcomes")
    p.add_argument("--strategy", required=True, choices=harvest.STRATEGIES,
                   help="control strategy to run")
    p.add_argument("--fruit", default="cherry_tomato", choices=_FRUIT_TYPES,
                   help="fruit population (default cherry_tomato)")
    p.add_argument("--out", metavar="FILE",
                   help="per-trial CSV (default stdout)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config) if args.config else default_config()
        return args.func(args, cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
