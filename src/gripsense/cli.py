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

_OBJECTS_HEADER = "frame,cx_px,cy_px,radius_px"
_LABELS_HEADER = "frame,label,true_diff_px"


def _cmd_sim(args, cfg: Config) -> int:
    gel = sim.GelModel(gel_size_mm=cfg["sim.gel_size_mm"])
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
    h, w = first.frame_shape
    with open(out / "objects.csv", "w") as f:
        f.write(f"# size {h} {w} threshold_mm {first.threshold_mm:g} "
                f"px_per_mm {first.px_per_mm:g}\n")
        f.write(_OBJECTS_HEADER + "\n")
        for t, mask in enumerate(seq.masks):
            cx, cy = mask.centroid()
            radius = math.sqrt(mask.area / math.pi)
            f.write(f"{t},{cx:.4f},{cy:.4f},{radius:.4f}\n")
    with open(out / "labels.csv", "w") as f:
        f.write(_LABELS_HEADER + "\n")
        for t, (label, diff) in enumerate(zip(seq.labels, seq.true_diff)):
            f.write(f"{t},{int(label)},{diff:.4f}\n")
    print(f"frames={len(seq)} slip_frames={int(seq.labels.sum())} "
          f"pose={seq.pose} load_g={seq.load_g:g} px_per_mm={seq.px_per_mm:g} "
          f"dir={out}")
    return 0


# ---------------------------------------------------------------------------
# slip: detector over saved tracks
# ---------------------------------------------------------------------------

def _object_row(cells: list) -> tuple:
    row = (int(cells[0]), core._finite(cells[1]), core._finite(cells[2]),
           float(cells[3]))
    core._check_non_negative(row[3], "radius_px")
    return row


def _label_row(cells: list) -> tuple:
    if cells[1] not in ("0", "1"):
        raise ValueError(f"label must be 0 or 1, got {cells[1]!r}")
    return int(cells[0]), cells[1] == "1"


def _by_frame(path, rows: list) -> list:
    """``rows`` in frame order, each without its leading frame index;
    ValueError unless the frames are 0..T-1 (``core._by_frame``), each once."""
    frames = core._by_frame(path, rows)
    if any(len(found) != 1 for found in frames):
        raise ValueError(f"{path}: frame indices must be 0..T-1, each once")
    return [found[0] for found in frames]


def _load_objects(path) -> list:
    """Rebuild per-frame contact masks from an objects.csv written by sim."""
    meta, rows = core._read_table(
        path, _object_row, _OBJECTS_HEADER,
        {"size": (int, int), "threshold_mm": (float,), "px_per_mm": (float,)})
    if "size" not in meta:
        raise ValueError(f"{path}: no '# size H W' line")
    (threshold_mm,) = meta.get("threshold_mm",
                               (slip.DEFAULT_CONTACT_THRESHOLD_MM,))
    (px_per_mm,) = meta.get("px_per_mm", (1.0,))
    ys, xs = np.ogrid[:meta["size"][0], :meta["size"][1]]
    return [slip.ContactMask((xs - cx) ** 2 + (ys - cy) ** 2 <= radius ** 2,
                             threshold_mm, px_per_mm)
            for cx, cy, radius in _by_frame(path, rows)]


def _load_labels(path) -> np.ndarray:
    _, rows = core._read_table(path, _label_row, _LABELS_HEADER)
    return np.array([label for (label,) in _by_frame(path, rows)], dtype=bool)


def _cmd_slip(args, cfg: Config) -> int:
    masks = _load_objects(args.objects)
    tracks = core.load_marker_tracks(args.tracks)
    if len(tracks) != len(masks):
        raise ValueError(f"{len(tracks)} marker frames but {len(masks)} "
                         f"object frames")
    threshold = cfg["slip.threshold_px"]
    report = slip.analyze_sequence(masks, tracks, threshold)
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
        scored = slip.evaluate_slip_detector([report.flags], [labels])
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
    n_frames = cfg["force.frames"]
    core._check_int(n_frames, "force.frames")
    rng = np.random.default_rng(args.seed)
    currents, forces = sim.make_force_samples(cfg["force.samples"], rng)
    normal_model = force.fit_normal_force(np.column_stack([currents, forces]))
    pairs, labels = sim.make_shear_dataset(cfg["force.shear_samples"], rng=rng)
    shear_model = force.fit_shear_model(force.build_shear_features(pairs),
                                        labels)

    gel = sim.GelModel()
    mid = gel.gel_size_mm / 2.0
    mask = slip.segment_contact(sim.indent_heightmap(
        sim.Sphere(15.0), (mid, mid), 1.2, (240, 240), gel))
    rest = sim.marker_grid(gel, mask.px_per_mm, mask.frame_shape)
    angle = math.pi / 6.0
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
            moved = moved.moved(rng.normal(0.0, sim.SHEAR_JITTER_PX,
                                           rest.xy.shape))
            feat = force.build_shear_features([(rest, moved, mask)])[0]
            f_x, f_y = force.predict_shear(feat, shear_model)
            true_x, true_y = sim.SHEAR_FORCE_PER_MM * shear
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

def _cmd_harvest(args, cfg: Config) -> int:
    strategy_cfg = harvest.StrategyConfig(
        strategy=args.strategy,
        close_margin_mm=cfg["harvest.close_margin_mm"],
        retry_increment_mm=cfg["harvest.retry_increment_mm"],
        max_retries=cfg["harvest.max_retries"])
    # the cell of the paired experiment grid, so runs with a different
    # strategy but the same seed see identical fruits
    cell = harvest.paired_trials(args.fruit, cfg["harvest.trials"], args.seed,
                                 harvest.FRUIT_TYPES.index(args.fruit))
    outcomes = [harvest.run_trial(
        fruit, strategy_cfg, seed=trial_seed,
        diameter_noise_mm=cfg["harvest.diameter_noise_mm"],
        px_per_mm=cfg["harvest.px_per_mm"],
        threshold_px=cfg["slip.threshold_px"]) for fruit, trial_seed in cell]
    # written once every trial has run, so a bad setting writes nothing
    with _out_stream(args.out) as f:
        f.write("trial,success,attempts,peak_force_n,failure_mode\n")
        for trial, outcome in enumerate(outcomes):
            f.write(f"{trial},{int(outcome.success)},{outcome.attempts},"
                    f"{outcome.peak_force_n:.4f},{outcome.failure_mode}\n")
    s = harvest.StrategySummary.of(args.fruit, args.strategy, outcomes)
    print(f"fruit={args.fruit} strategy={args.strategy} trials={s.n_trials} "
          f"success_rate={s.success_rate:.3f} "
          f"mean_attempts={s.mean_attempts:.3f} "
          f"force_mean={s.force_mean:.3f} force_var={s.force_var:.4f}")
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
                   help="markers.csv written by sim (frames 0..T-1)")
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
    p.add_argument("--fruit", default="cherry_tomato", choices=harvest.FRUIT_TYPES,
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
