"""Time one full perception tick (image diff, normals, heightmap, contact
mask, slip check, normal and shear force) through gripsense.perception.

For the time each stage takes, run the benchmark with its per-layer trace:
python3 perfbench/run.py --workload tick_240x320 --seed 1 --seconds 15
--trace 1.

Run: python3 demos/time_perception_tick.py [--resolution 128]
"""

import argparse
import time

import numpy as np

from gripsense import core, force, geometry, sim
from gripsense.core import HeightMap
from gripsense.perception import Perception


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
    current = sim.CURRENT_GAIN * 3.0 + sim.CURRENT_OFFSET
    perception = Perception(geo_model, nf_model, sh_model, flat, rest)

    for _ in range(2):      # warm caches; the second tick runs the slip step
        perception.tick(img, moved, current)
    totals = []
    for _ in range(args.ticks):
        t0 = time.perf_counter()
        perception.tick(img, moved, current)
        totals.append(time.perf_counter() - t0)

    r0, r1, c0, c1 = geometry.predict_normals(core.diff_image(img, flat),
                                              geo_model).support
    window_share = (r1 - r0) * (c1 - c0) / (res * res)
    print(f"MLP evaluated on the contact window, {100 * window_share:.1f}% of "
          f"pixels; the rest are flat")
    print(f"median tick {1e3 * float(np.median(totals)):.1f} ms at "
          f"{res}x{res} over {args.ticks} runs "
          f"(15 Hz budget: 66 ms)")


if __name__ == "__main__":
    main()
