"""Time one full perception tick (image diff, normals, heightmap, contact
mask, slip check, normal and shear force) with per-stage breakdown.

Run: python3 demos/time_perception_tick.py [--resolution 128]
"""

import argparse
import time

import numpy as np

from gripsense import core, force, geometry, sim, slip
from gripsense.core import HeightMap


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--resolution", type=int, default=128)
    parser.add_argument("--ticks", type=int, default=20)
    args = parser.parse_args()

    res = args.resolution
    gel = sim.GelModel()
    rig = sim.default_rig()
    ppm = res / gel.gel_size_mm
    flat = sim.render_tactile(HeightMap(np.zeros((res, res)), ppm), rig, gel)
    raw = sim.indent_heightmap(sim.Sphere(8.0), (15.0, 15.0), 1.0,
                               (res, res), gel)
    # sensor noise, so untouched gel differs from the background as it does
    # on a real sensor
    img = sim.render_tactile(raw, rig, gel, 0.01, np.random.default_rng(3))

    presses = sim.make_calibration_presses(3, rng=np.random.default_rng(0),
                                           resolution=64)
    geo_model = geometry.fit_rgb2normal(
        geometry.build_calibration_dataset(presses), epochs=120,
        learning_rate=0.1, seed=0)
    nf_model = force.fit_normal_force(np.column_stack(
        sim.make_force_samples(2000, rng=np.random.default_rng(1))))
    pairs, labels = sim.make_shear_dataset(40, rng=np.random.default_rng(2))
    sh_model = force.fit_shear_model(force.build_shear_features(pairs), labels)
    rest = sim.marker_grid(gel, ppm, (res, res))
    moved = rest.moved(np.full(rest.xy.shape, 0.4))
    tracks = [rest] * 6
    current = sim.CURRENT_GAIN * 3.0 + sim.CURRENT_OFFSET

    stages = ("diff", "normals", "heightmap", "mask", "slip", "force")

    def tick(acc):
        t = time.perf_counter()
        diff = core.diff_image(img, flat)
        acc["diff"] += time.perf_counter() - t; t = time.perf_counter()
        normals = geometry.predict_normals(diff, geo_model)
        acc["normals"] += time.perf_counter() - t; t = time.perf_counter()
        height = geometry.integrate_normals(normals, ppm)
        acc["heightmap"] += time.perf_counter() - t; t = time.perf_counter()
        mask = slip.segment_contact(height)
        acc["mask"] += time.perf_counter() - t; t = time.perf_counter()
        masks = [mask] * 6
        v_obj = slip.object_velocity(masks)[-1]
        v_mark = slip.marker_velocity(tracks, masks)[-1]
        slip.detect_slip(v_obj, v_mark, 10.0)
        acc["slip"] += time.perf_counter() - t; t = time.perf_counter()
        force.predict_normal_force(current, nf_model)
        field = force.interpolate_markers(rest, moved, (24, 24))
        feat = force.shear_features(field, force.hhd_decompose(field), mask)
        force.predict_shear(feat, sh_model)
        acc["force"] += time.perf_counter() - t

    warm = dict.fromkeys(stages, 0.0)
    tick(warm)
    tick(warm)
    acc = dict.fromkeys(stages, 0.0)
    totals = []
    for _ in range(args.ticks):
        t0 = time.perf_counter()
        tick(acc)
        totals.append(time.perf_counter() - t0)

    for stage in stages:
        print(f"  {stage:<10} {1e3 * acc[stage] / args.ticks:7.2f} ms")
    diff = core.diff_image(img, flat)
    mlp_share = np.mean(np.abs(diff.values).max(axis=2) > geometry._LINEAR_TAU)
    print(f"MLP evaluated on {100 * mlp_share:.1f}% of pixels; the rest took "
          f"the first-order expansion")
    print(f"median tick {1e3 * float(np.median(totals)):.1f} ms at "
          f"{res}x{res} over {args.ticks} runs "
          f"(15 Hz budget: 66 ms)")


if __name__ == "__main__":
    main()
