"""Calibrate the contact-geometry model on sphere presses, then reconstruct
an unseen hexagonal-pyramid press and report the heightmap error.

Run: python3 demos/reconstruct_pyramid.py [--noise 0.01] [--epochs 1000]
"""

import argparse
import time

import numpy as np

from gripsense import core, geometry, sim
from gripsense.core import HeightMap


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--resolution", type=int, default=128)
    parser.add_argument("--presses", type=int, default=8)
    parser.add_argument("--epochs", type=int, default=1000,
                        help="L-BFGS iteration cap; the fit stops earlier "
                             "once converged (first step length 0.1)")
    parser.add_argument("--noise", type=float, default=0.01,
                        help="render noise sigma (0 for noiseless)")
    args = parser.parse_args()

    t0 = time.perf_counter()
    presses = sim.make_calibration_presses(
        args.presses, rng=np.random.default_rng(0),
        resolution=args.resolution, noise_sigma=args.noise)
    data = geometry.build_calibration_dataset(presses)
    model = geometry.fit_rgb2normal(data, epochs=args.epochs,
                                    learning_rate=0.1, seed=0)
    print(f"calibrated on {args.presses} presses "
          f"({data.features.shape[0]} pixels), "
          f"{len(model.loss_history) - 1} iterations, "
          f"final loss {model.final_loss:.5f}")

    gel = sim.GelModel()
    rig = sim.default_rig()
    ppm = args.resolution / gel.gel_size_mm
    shape = (args.resolution, args.resolution)
    truth = sim.indent_heightmap(sim.HexPyramid(10.0, 2.0), (15.0, 15.0),
                                 1.0, shape, gel)
    flat = sim.render_tactile(HeightMap(np.zeros(shape), ppm), rig, gel)
    img = sim.render_tactile(truth, rig, gel, args.noise,
                             np.random.default_rng(1) if args.noise else None)
    normals = geometry.predict_normals(core.diff_image(img, flat), model)
    recon = geometry.integrate_normals(normals, ppm)
    mse = geometry.reconstruction_error(recon, truth)
    print(f"pyramid reconstruction: mse {mse:.6f} mm^2 at "
          f"{args.resolution}x{args.resolution}, "
          f"{time.perf_counter() - t0:.1f} s total")


if __name__ == "__main__":
    main()
