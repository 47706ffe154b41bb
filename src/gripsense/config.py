"""Flat key=value run configuration shared by every CLI subcommand.

A config file is plain text: one ``section.key = value`` per line, ``#``
comments allowed anywhere, blank lines ignored. Every key has a default, so
an empty file (or no file at all) is a complete configuration. Unknown keys
and values that fail to parse are hard errors that name the offending line;
silently ignoring a typo would make a run look configured when it is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def _choice(*options):
    opts = tuple(options)

    def cast(text: str) -> str:
        if text not in opts:
            raise ValueError(f"expected one of {', '.join(opts)}")
        return text

    cast.label = "|".join(opts)
    return cast


def _int(text: str) -> int:
    return int(text, 10)


_int.label = "int"


def _float(text: str) -> float:
    value = float(text)
    # NaN silently poisons every metric, and an infinite size, pitch or
    # margin overflows or swallows whatever it feeds
    if not math.isfinite(value):
        raise ValueError(f"{value} is not a usable value")
    return value


_float.label = "float"


# key -> (default, parser, help). The defaults mirror the keyword defaults of
# the library functions each subcommand calls, so running the CLI with no
# config file behaves like calling the library with no arguments, but for
# two deliberate CLI choices: sim.load_g is 20 g (GraspScene's is 0.0), one
# of the slip benchmark's loads, and softness.train_trials is 7 of
# build_clip_library's 10 trials per cell, softness.test_trials the other 3.
CONFIG_SPEC: dict[str, tuple[object, object, str]] = {
    "sim.px_per_mm": (16.0, _float, "sensor resolution of synthetic slip sequences"),
    "sim.gel_size_mm": (30.0, _float, "square gelpad side length"),
    "sim.frames": (200, _int, "frames per synthetic slip sequence"),
    "sim.load_g": (20.0, _float, "external load on the grasped object, grams"),
    "sim.pose": ("top", _choice("top", "side"), "grasp pose"),
    "sim.depth_mm": (1.0, _float, "press depth for the slip sequence"),
    "sim.marker_jitter_px": (0.3, _float, "marker tracking noise, pixels"),
    "geometry.epochs": (1000, _int, "pixel-to-normal L-BFGS fit: iteration cap"),
    "geometry.learning_rate": (0.1, _float, "pixel-to-normal L-BFGS fit: first step length"),
    "geometry.presses": (8, _int, "calibration sphere presses"),
    "geometry.sphere_radius_mm": (5.0, _float, "calibration sphere radius"),
    "geometry.resolution": (128, _int, "render resolution for calibrate/reconstruct"),
    "force.samples": (10000, _int, "motor-current samples for the normal-force fit"),
    "force.shear_samples": (300, _int, "sheared presses for the shear-force fit"),
    "force.frames": (20, _int, "frames streamed by the force subcommand"),
    "slip.threshold_px": (10.0, _float, "slip threshold on the speed difference"),
    "softness.epochs": (600, _int, "ranker L-BFGS fit: iteration cap"),
    "softness.learning_rate": (0.01, _float, "ranker L-BFGS fit: first step length"),
    "softness.train_trials": (7, _int, "training clips per texture and hardness"),
    "softness.test_trials": (3, _int, "held-out clips per texture and hardness"),
    "softness.frames": (24, _int, "frames per squeeze clip"),
    "softness.resolution": (64, _int, "render resolution for squeeze clips"),
    "harvest.trials": (50, _int, "trials per fruit and strategy cell"),
    "harvest.max_retries": (3, _int, "grasp attempts per trial"),
    "harvest.close_margin_mm": (2.0, _float, "open-loop squeeze past the diameter"),
    "harvest.retry_increment_mm": (2.0, _float, "extra squeeze per slip retry"),
    "harvest.diameter_noise_mm": (1.0, _float, "diameter measurement noise"),
    "harvest.px_per_mm": (24.0, _float, "marker tracking resolution in trials"),
}


@dataclass(frozen=True)
class Config:
    """An immutable, fully populated view of the configuration."""

    values: dict = field(default_factory=dict)

    def __post_init__(self):
        merged = {key: spec[0] for key, spec in CONFIG_SPEC.items()}
        for key, value in self.values.items():
            if key not in CONFIG_SPEC:
                raise ValueError(f"unknown config key {key!r}")
            merged[key] = value
        object.__setattr__(self, "values", merged)

    def __getitem__(self, key: str):
        if key not in CONFIG_SPEC:
            raise KeyError(f"unknown config key {key!r}")
        return self.values[key]


def default_config() -> Config:
    return Config({})


def parse_config(path) -> Config:
    """Read a key=value file, returning defaults for everything unset."""
    values: dict = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, text = line.partition("=")
            if not sep:
                raise ValueError(
                    f"{path}, line {lineno}: expected key=value, got {line!r}")
            key, text = key.strip(), text.strip()
            if key not in CONFIG_SPEC:
                raise ValueError(f"{path}, line {lineno}: unknown config key {key!r}")
            _, cast, _ = CONFIG_SPEC[key]
            try:
                values[key] = cast(text)
            except ValueError as exc:
                raise ValueError(
                    f"{path}, line {lineno}: bad value {text!r} for "
                    f"{key}: {exc}") from exc
    return Config(values)


def describe_config() -> str:
    """One line per key with its type and default, for --help output."""
    lines = ["configuration keys (key=value file passed with --config):"]
    for key, (default, cast, help_text) in CONFIG_SPEC.items():
        label = getattr(cast, "label", "str")
        lines.append(f"  {key} ({label}, default {default}): {help_text}")
    return "\n".join(lines)
