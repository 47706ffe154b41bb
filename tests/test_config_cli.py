"""Settings file parsing and the command line front end."""

import hashlib
import inspect
import re

import pytest

from gripsense import cli, core, geometry, harvest, sim, slip, softness
from gripsense.config import (CONFIG_SPEC, Config, default_config,
                              describe_config, parse_config)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

class TestConfig:
    def test_defaults_cover_every_key(self):
        cfg = default_config()
        for key, (default, _, _) in CONFIG_SPEC.items():
            assert cfg[key] == default

    def test_selected_defaults(self):
        cfg = default_config()
        assert cfg["sim.px_per_mm"] == 16.0
        assert cfg["slip.threshold_px"] == 10.0
        assert cfg["geometry.epochs"] == 1000
        assert cfg["harvest.trials"] == 50

    def test_override_merges_with_defaults(self):
        cfg = Config(values={"slip.threshold_px": 4.0})
        assert cfg["slip.threshold_px"] == 4.0
        assert cfg["sim.frames"] == 200

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="slip.thresh"):
            Config(values={"slip.thresh": 4.0})
        with pytest.raises(KeyError):
            default_config()["nonsense.key"]

    def test_parse_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a comment\n\nsim.frames = 50\n"
                        "slip.threshold_px=7.5  # trailing note\n"
                        "sim.pose = side\n")
        cfg = parse_config(str(path))
        assert cfg["sim.frames"] == 50
        assert cfg["slip.threshold_px"] == 7.5
        assert cfg["sim.pose"] == "side"
        assert cfg["geometry.presses"] == 8

    def test_parse_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("sim.frames = 50\nno equals sign here\n")
        with pytest.raises(ValueError, match="line 2"):
            parse_config(str(path))
        path.write_text("\nmystery.key = 1\n")
        with pytest.raises(ValueError, match="line 2"):
            parse_config(str(path))
        path.write_text("sim.frames = many\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_config(str(path))

    def test_value_validation(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("sim.pose = diagonal\n")
        with pytest.raises(ValueError, match="diagonal"):
            parse_config(str(path))
        for value in ("nan", "inf", "-inf"):
            path.write_text(f"slip.threshold_px = {value}\n")
            with pytest.raises(ValueError, match="line 1"):
                parse_config(str(path))
        path.write_text("sim.frames = 2.5\n")
        with pytest.raises(ValueError):
            parse_config(str(path))

    # key -> the library callable and keyword its value feeds in the CLI
    _FEEDS = {
        "sim.px_per_mm": (sim.synth_slip_sequence, "px_per_mm"),
        "sim.gel_size_mm": (sim.GelModel, "gel_size_mm"),
        "sim.frames": (sim.synth_slip_sequence, "n_frames"),
        "sim.pose": (sim.GraspScene, "pose"),
        "sim.depth_mm": (sim.synth_slip_sequence, "depth_mm"),
        "sim.marker_jitter_px": (sim.synth_slip_sequence, "marker_jitter_px"),
        "geometry.epochs": (geometry.fit_rgb2normal, "epochs"),
        "geometry.learning_rate": (geometry.fit_rgb2normal, "learning_rate"),
        "geometry.presses": (sim.make_calibration_presses, "n"),
        "geometry.sphere_radius_mm": (sim.make_calibration_presses,
                                      "sphere_radius_mm"),
        "geometry.resolution": (sim.make_calibration_presses, "resolution"),
        "force.samples": (sim.make_force_samples, "n"),
        "force.shear_samples": (sim.make_shear_dataset, "n"),
        "slip.threshold_px": (slip.analyze_sequence, "threshold_px"),
        "softness.epochs": (softness.train_ranker, "epochs"),
        "softness.learning_rate": (softness.train_ranker, "learning_rate"),
        "softness.frames": (softness.build_clip_library, "n_frames"),
        "softness.resolution": (softness.build_clip_library, "resolution"),
        "harvest.trials": (harvest.run_experiment, "trials_per_cell"),
        "harvest.max_retries": (harvest.StrategyConfig, "max_retries"),
        "harvest.close_margin_mm": (harvest.StrategyConfig, "close_margin_mm"),
        "harvest.retry_increment_mm": (harvest.StrategyConfig,
                                       "retry_increment_mm"),
        "harvest.diameter_noise_mm": (harvest.run_trial, "diameter_noise_mm"),
        "harvest.px_per_mm": (harvest.run_trial, "px_per_mm"),
    }
    # defaults the CLI chooses on purpose, named in config.py's comment
    _CLI_CHOICES = {
        "sim.load_g": (sim.GraspScene, "load_g"),
        "softness.train_trials": (softness.build_clip_library,
                                  "trials_per_cell"),
    }

    def test_defaults_mirror_library_keywords(self):
        assert (set(self._FEEDS) | set(self._CLI_CHOICES)
                | {"force.frames", "softness.test_trials"}) == set(CONFIG_SPEC)
        for table, mirrors in ((self._FEEDS, True), (self._CLI_CHOICES, False)):
            for key, (fn, keyword) in table.items():
                default = CONFIG_SPEC[key][0]
                want = inspect.signature(fn).parameters[keyword].default
                assert (default == want) is mirrors, (key, default, want)
                if mirrors:
                    assert type(default) is type(want), key

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            parse_config(str(tmp_path / "absent.cfg"))

    def test_describe_lists_every_key(self):
        text = describe_config()
        for key in CONFIG_SPEC:
            assert key in text


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _write(path, text):
    path.write_text(text)
    return str(path)


class TestUsageErrors:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["summon"])
        assert exc.value.code == 2

    def test_missing_required_option(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["harvest-sim"])
        assert exc.value.code == 2

    def test_help_mentions_config_keys(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "slip.threshold_px" in out
        assert "harvest.trials" in out
        assert "force.grid" not in out and "membrane" not in out


class TestRuntimeErrors:
    def test_missing_tracks_file(self, tmp_path, capsys):
        rc = cli.main(["slip", "--tracks", str(tmp_path / "no.csv"),
                       "--objects", str(tmp_path / "no2.csv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_config_reports_line(self, tmp_path, capsys):
        # an unknown key, and a pitch the simulator would overflow on
        for text in ("slip.threshold = 3", "sim.px_per_mm = inf"):
            cfg = _write(tmp_path / "bad.cfg", text + "\n")
            rc = cli.main(["sim", "--out", str(tmp_path / "d"),
                           "--config", cfg])
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "line 1" in err
            assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("depth", ["0.2", "40"])
    def test_sim_depth_outside_cap_writes_nothing(self, tmp_path, capsys,
                                                  depth):
        cfg = _write(tmp_path / "depth.cfg",
                     f"sim.frames = 20\nsim.depth_mm = {depth}\n")
        out = tmp_path / "d"
        rc = cli.main(["sim", "--out", str(out), "--config", cfg])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "depth" in err
        assert not out.exists()


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("simout")
    cfg = _write(out / "fast.cfg", "sim.frames = 80\n")
    rc = cli.main(["sim", "--out", str(out), "--seed", "3", "--config", cfg])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def geo_cfg_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("geo")
    return _write(out / "tiny.cfg",
                  "geometry.resolution = 48\n"
                  "geometry.epochs = 60\n"
                  "geometry.presses = 4\n")


@pytest.fixture(scope="module")
def model_file(geo_cfg_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("geomodel") / "normals.npz"
    rc = cli.main(["calibrate", "--out", str(out), "--config", geo_cfg_file])
    assert rc == 0
    return str(out)


# A valid value of each ``sim.*`` key that differs from the base run's: the
# default, or for ``sim.frames`` the base's 20 frames.
_SIM_VALUES = {"sim.px_per_mm": "12", "sim.gel_size_mm": "28",
               "sim.frames": "21", "sim.load_g": "50", "sim.pose": "side",
               "sim.depth_mm": "1.5", "sim.marker_jitter_px": "0.5"}


def _sim_csvs(out, settings: dict) -> list:
    """The three CSVs ``gripsense sim`` writes to ``out`` under
    ``settings``, on top of ``sim.frames = 20``."""
    out.mkdir()
    lines = {"sim.frames": "20", **settings}
    cfg = _write(out / "sim.cfg",
                 "".join(f"{k} = {v}\n" for k, v in lines.items()))
    assert cli.main(["sim", "--out", str(out), "--config", cfg]) == 0
    return [(out / name).read_bytes()
            for name in ("markers.csv", "objects.csv", "labels.csv")]


@pytest.fixture(scope="module")
def sim_base(tmp_path_factory):
    return _sim_csvs(tmp_path_factory.mktemp("simbase") / "base", {})


class TestSimKeysApplied:
    """No ``sim.*`` key is accepted and then ignored: each changes what
    ``gripsense sim`` writes."""

    def test_every_sim_key_has_a_value(self):
        assert set(_SIM_VALUES) == {k for k in CONFIG_SPEC
                                    if k.startswith("sim.")}
        for key, value in _SIM_VALUES.items():
            assert CONFIG_SPEC[key][1](value) != (
                20 if key == "sim.frames" else CONFIG_SPEC[key][0]), key

    @pytest.mark.parametrize("key", sorted(_SIM_VALUES))
    def test_key_changes_an_output(self, sim_base, tmp_path, capsys, key):
        assert _sim_csvs(tmp_path / "changed", {key: _SIM_VALUES[key]}) \
            != sim_base


class TestSimSlipRoundTrip:
    def test_sim_writes_three_csvs(self, sim_dir):
        for name in ("markers.csv", "objects.csv", "labels.csv"):
            assert (sim_dir / name).exists(), name

    def test_sim_is_deterministic(self, sim_dir, tmp_path, capsys):
        capsys.readouterr()
        cfg = _write(tmp_path / "fast.cfg", "sim.frames = 80\n")
        rc = cli.main(["sim", "--out", str(tmp_path), "--seed", "3",
                       "--config", cfg])
        assert rc == 0
        for name in ("markers.csv", "objects.csv", "labels.csv"):
            assert ((tmp_path / name).read_text()
                    == (sim_dir / name).read_text()), name

    def test_slip_scores_against_labels(self, sim_dir, capsys):
        capsys.readouterr()
        rc = cli.main(["slip", "--tracks", str(sim_dir / "markers.csv"),
                       "--objects", str(sim_dir / "objects.csv"),
                       "--labels", str(sim_dir / "labels.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "frames=80" in out
        assert "f1=" in out and "precision=" in out

    def test_huge_threshold_silences_detector(self, sim_dir, tmp_path, capsys):
        cfg = _write(tmp_path / "huge.cfg", "slip.threshold_px = 1e9\n")
        capsys.readouterr()
        rc = cli.main(["slip", "--tracks", str(sim_dir / "markers.csv"),
                       "--objects", str(sim_dir / "objects.csv"),
                       "--config", cfg])
        assert rc == 0
        assert "slip_frames=0" in capsys.readouterr().out

    @pytest.mark.parametrize("threshold", ["-1", "0"])
    def test_unusable_threshold_is_one_error_line(self, sim_dir, tmp_path,
                                                  capsys, threshold):
        """``slip`` and ``sim`` (whose labels use the same threshold) exit
        1; the config file itself refuses NaN and infinities."""
        cfg = _write(tmp_path / "bad.cfg", f"slip.threshold_px = {threshold}\n")
        capsys.readouterr()
        for argv in (["slip", "--tracks", str(sim_dir / "markers.csv"),
                      "--objects", str(sim_dir / "objects.csv")],
                     ["sim", "--out", str(tmp_path / "d")]):
            rc = cli.main(argv + ["--config", cfg])
            assert rc == 1
            out, err = capsys.readouterr()
            assert not out and len(err.strip().splitlines()) == 1
            assert err.startswith("error: threshold_px must be finite and "
                                  "positive")
        assert not (tmp_path / "d").exists()

    def test_per_frame_csv(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "slip.csv"
        rc = cli.main(["slip", "--tracks", str(sim_dir / "markers.csv"),
                       "--objects", str(sim_dir / "objects.csv"),
                       "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "frame,object_vx,object_vy,marker_vx,marker_vy,diff_px,slip"
        assert len(lines) == 81
        assert lines[1].split(",")[-1] in ("0", "1")

    def test_per_frame_csv_is_pinned_and_reads_older_marker_files(
            self, sim_dir, tmp_path, capsys):
        """The per-frame CSV of the sim -> slip round trip is pinned, and a
        markers.csv with the ``# grid 9 9`` line older versions wrote
        gives the same bytes. The pin holds the raw two-frame velocities."""
        old = tmp_path / "markers.csv"
        old.write_text("# grid 9 9\n" + (sim_dir / "markers.csv").read_text())
        csvs = []
        for tracks in (sim_dir / "markers.csv", old):
            out = tmp_path / f"slip{len(csvs)}.csv"
            rc = cli.main(["slip", "--tracks", str(tracks),
                           "--objects", str(sim_dir / "objects.csv"),
                           "--out", str(out)])
            assert rc == 0
            csvs.append(out.read_bytes())
        capsys.readouterr()
        assert csvs[0] == csvs[1]
        assert hashlib.sha256(csvs[0]).hexdigest() == (
            "b2f6d855d9626ab72140cbf1edb6f3263638db5f31d4ca2d9cf3a5c7c30ff729")

    def test_frame_without_markers_is_a_zero_step(self, sim_dir, tmp_path,
                                                  capsys):
        """Frame 5's marker rows deleted, its ``# frames`` line kept: the run
        exits 0, the steps into and out of frame 5 are zero and unflagged,
        and every other row is byte-equal to the intact run's."""
        lines = (sim_dir / "markers.csv").read_text().splitlines(True)
        cut = tmp_path / "markers.csv"
        cut.write_text("".join(x for x in lines if not x.startswith("5,")))
        rows = []
        for tracks in (sim_dir / "markers.csv", cut):
            out = tmp_path / f"slip{len(rows)}.csv"
            rc = cli.main(["slip", "--tracks", str(tracks),
                           "--objects", str(sim_dir / "objects.csv"),
                           "--out", str(out)])
            assert rc == 0
            rows.append(out.read_text().splitlines())
        capsys.readouterr()
        intact, got = rows
        assert len(got) == len(intact) == 81
        for t in (5, 6):
            assert got[1 + t] == f"{t},0.0000,0.0000,0.0000,0.0000,0.0000,0"
            assert got[1 + t] != intact[1 + t]
        assert got[:6] + got[8:] == intact[:6] + intact[8:]

    def test_label_length_mismatch(self, sim_dir, tmp_path, capsys):
        labels = _write(tmp_path / "labels.csv", "frame,label,true_diff_px\n"
                        "0,0,0.0\n1,1,12.0\n")
        rc = cli.main(["slip", "--tracks", str(sim_dir / "markers.csv"),
                       "--objects", str(sim_dir / "objects.csv"),
                       "--labels", labels])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("row", ["0", "0,yes,0.0", "0,7,0.0"])
    def test_malformed_label_line_is_one_error_line(self, sim_dir, tmp_path,
                                                    capsys, row):
        labels = _write(tmp_path / "labels.csv",
                        f"frame,label,true_diff_px\n{row}\n")
        capsys.readouterr()
        rc = cli.main(["slip", "--tracks", str(sim_dir / "markers.csv"),
                       "--objects", str(sim_dir / "objects.csv"),
                       "--labels", labels])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert "labels.csv, line 2" in err


# Each table format: its loader, a valid file, and malformed lines k -> text
# (a non-numeric cell, and for the three formats with metadata a
# non-numeric metadata value).
_TABLES = {
    "heightmap": (core.load_heightmap, "# px_per_mm 4\n1.0,2.0\n3.0,4.0\n",
                  {3: "3.0,abc", 1: "# px_per_mm abc"}),
    "markers": (core.load_marker_tracks,
                "# bounds 640 480\nframe,id,x,y\n0,0,1.0,2.0\n1,0,3.0,4.0\n",
                {4: "1,0,abc,4.0", 1: "# bounds abc 479"}),
    "objects": (cli._load_objects,
                "# size 480 640 threshold_mm 0.3 px_per_mm 16\n"
                "frame,cx_px,cy_px,radius_px\n0,10,10,5\n1,11,10,5\n",
                {4: "1,abc,1,1", 1: "# size abc 480"}),
    "labels": (cli._load_labels, "frame,label,true_diff_px\n0,0,0.0\n1,1,12.0\n",
               {3: "abc,1,12.0"}),
}


class TestTableFiles:
    """The one table reader behind the four CSV formats: a malformed value
    is one ValueError naming the file and its line."""

    @pytest.mark.parametrize("fmt,k,bad", [
        (fmt, k, bad) for fmt, (_, _, cases) in _TABLES.items()
        for k, bad in cases.items()])
    def test_malformed_value_names_file_and_line(self, tmp_path, fmt, k, bad):
        load, text, _ = _TABLES[fmt]
        good = tmp_path / f"{fmt}.csv"
        good.write_text(text)
        load(good)
        lines = text.splitlines()
        lines[k - 1] = bad
        path = tmp_path / f"bad_{fmt}.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError,
                           match="^" + re.escape(f"{path}, line {k}: ")):
            load(path)

    @pytest.mark.parametrize("fmt", ["markers", "objects", "labels"])
    @pytest.mark.parametrize("last, what", [
        ("2", ": frame 1 of 0..2 has no row"),
        ("-1", ": frame -1 outside 0..0"),
        ("0", ": frame indices must be 0..T-1, each once")])
    def test_frames_are_0_to_T(self, tmp_path, fmt, last, what):
        """``core._by_frame`` owns the frame rule of all three per-frame
        tables; objects and labels hold one row a frame, markers one a
        marker (here two rows of marker 0 in frame 0)."""
        load, text, _ = _TABLES[fmt]
        lines = text.splitlines()
        lines[-1] = last + lines[-1][1:]        # the last row holds frame 1
        path = _write(tmp_path / f"{fmt}.csv", "\n".join(lines) + "\n")
        if fmt == "markers" and last == "0":
            what = ", frame 0: marker ids must be unique"
        with pytest.raises(ValueError, match="^" + re.escape(path + what)):
            load(path)

    @pytest.mark.parametrize("edit", [(5, "2,nan,nan,nan"), (5, "2,10,10,-5"),
                                      (5, "2,10,inf,5"), (1, None)],
                             ids=["nan", "negative_radius", "inf_centre",
                                  "no_size"])
    def test_malformed_object_file_is_one_error_line(self, sim_dir, tmp_path,
                                                     capsys, edit):
        """A non-finite centre or radius, a negative radius (line 5 holds
        frame 2) and a file without its ``# size`` line each exit 1."""
        k, row = edit
        lines = (sim_dir / "objects.csv").read_text().splitlines()
        if row is None:
            del lines[k - 1]
        else:
            lines[k - 1] = row
        objects = _write(tmp_path / "objects.csv", "\n".join(lines) + "\n")
        capsys.readouterr()
        rc = cli.main(["slip", "--tracks", str(sim_dir / "markers.csv"),
                       "--objects", objects])
        assert rc == 1
        out, err = capsys.readouterr()
        assert not out and len(err.strip().splitlines()) == 1
        assert err.startswith(f"error: {objects}")
        assert (f"line {k}:" in err) is (row is not None)


def _summary(out: str) -> dict:
    """The key=value fields of a one-line command summary."""
    return dict(field.split("=", 1) for field in out.split())


class TestGeometryCommands:
    def test_calibrate_saves_loadable_model(self, model_file):
        from gripsense import geometry
        model = geometry.load_rgb2normal(model_file)
        assert model.final_loss is None or model.final_loss < 0.5

    def test_calibrate_reports_iterations(self, geo_cfg_file, tmp_path,
                                          capsys):
        capsys.readouterr()
        rc = cli.main(["calibrate", "--out", str(tmp_path / "m.txt"),
                       "--config", geo_cfg_file])
        assert rc == 0
        fields = _summary(capsys.readouterr().out)
        assert 1 <= int(fields["iterations"]) <= 60
        assert 0.0 < float(fields["final_loss"]) < 0.5

    def test_reconstruct_reports_mse(self, model_file, geo_cfg_file, capsys):
        capsys.readouterr()
        rc = cli.main(["reconstruct", "--model", model_file,
                       "--config", geo_cfg_file])
        assert rc == 0
        out = capsys.readouterr().out
        assert "resolution=48" in out
        mse = float(out.split("mse_mm2=")[1].split()[0])
        assert mse < 0.1

    def test_reconstruct_saves_heightmap(self, model_file, geo_cfg_file,
                                         tmp_path, capsys):
        out = tmp_path / "height.csv"
        rc = cli.main(["reconstruct", "--model", model_file,
                       "--config", geo_cfg_file, "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        hm = core.load_heightmap(str(out))
        assert hm.values.shape == (48, 48)
        assert hm.values.min() == pytest.approx(0.0, abs=1e-9)

    def test_calibrate_rejects_zero_learning_rate(self, tmp_path, capsys):
        cfg = _write(tmp_path / "lr0.cfg", "geometry.resolution = 48\n"
                     "geometry.presses = 2\n"
                     "geometry.learning_rate = 0\n")
        out = tmp_path / "normals.npz"
        capsys.readouterr()
        rc = cli.main(["calibrate", "--out", str(out), "--config", cfg])
        assert rc == 1
        assert "learning_rate must be finite and positive" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_reconstruct_missing_model(self, tmp_path, capsys):
        rc = cli.main(["reconstruct", "--model", str(tmp_path / "no.npz")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")


class TestForceCommand:
    def test_per_frame_csv_and_summary(self, tmp_path, capsys):
        cfg = _write(tmp_path / "tiny.cfg",
                     "force.samples = 2000\nforce.shear_samples = 60\n"
                     "force.frames = 6\n")
        out = tmp_path / "force.csv"
        rc = cli.main(["force", "--config", cfg, "--out", str(out)])
        assert rc == 0
        summary = capsys.readouterr().out
        assert "frames=6" in summary and "slope=" in summary
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "frame,f_n,f_x,f_y,true_f_n,true_f_x,true_f_y"
        assert len(lines) == 7
        row = [float(v) for v in lines[3].split(",")]
        assert row[1] == pytest.approx(row[4], rel=0.35)


class TestSoftnessCommands:
    TINY = ("softness.train_trials = 2\nsoftness.test_trials = 2\n"
            "softness.epochs = 30\nsoftness.frames = 8\n"
            "softness.resolution = 32\n")

    def test_train_then_eval(self, tmp_path, capsys):
        cfg = _write(tmp_path / "tiny.cfg", self.TINY)
        model = tmp_path / "ranker.npz"
        rc = cli.main(["softness-train", "--out", str(model),
                       "--config", cfg])
        assert rc == 0
        fields = _summary(capsys.readouterr().out)
        assert 1 <= int(fields["iterations"]) <= 30
        # six significant digits: a converged loss does not print as zero
        assert float(fields["final_loss"]) > 0.0
        out = tmp_path / "groups.csv"
        rc = cli.main(["softness-eval", "--model", str(model),
                       "--config", cfg, "--out", str(out)])
        assert rc == 0
        summary = capsys.readouterr().out
        agg = float(summary.split("aggregate=")[1].split()[0])
        assert 0.0 <= agg <= 1.0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "fruit_type,shore00,accuracy"
        assert len(lines) > 1


class TestHarvestCommand:
    def test_summary_and_determinism(self, tmp_path, capsys):
        cfg = _write(tmp_path / "tiny.cfg", "harvest.trials = 8\n")
        argv = ["harvest-sim", "--strategy", "slip_force",
                "--fruit", "strawberry", "--seed", "5", "--config", cfg,
                "--out", str(tmp_path / "trials.csv")]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert "fruit=strawberry strategy=slip_force trials=8" in first
        assert "success_rate=" in first and "force_var=" in first
        lines = (tmp_path / "trials.csv").read_text().strip().splitlines()
        assert lines[0] == "trial,success,attempts,peak_force_n,failure_mode"
        assert len(lines) == 9
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("setting", ["harvest.diameter_noise_mm = -1.0",
                                         "harvest.px_per_mm = 0.0",
                                         "slip.threshold_px = -1.0",
                                         "harvest.trials = 0"])
    def test_bad_trial_setting_is_an_error(self, tmp_path, capsys, setting):
        cfg = _write(tmp_path / "bad.cfg", f"harvest.trials = 8\n{setting}\n")
        out = tmp_path / "trials.csv"
        rc = cli.main(["harvest-sim", "--strategy", "open_loop", "--fruit",
                       "strawberry", "--config", cfg, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        key = setting.split("=")[0].split(".")[1].strip()
        assert err.startswith("error:") and key in err
        assert not out.exists()

    def test_cell_is_run_experiments_cell(self, tmp_path, capsys):
        """At the library defaults a run is the matching cell of
        ``run_experiment``: the same fruits, seeds and summary."""
        cfg = _write(tmp_path / "tiny.cfg", "harvest.trials = 8\n")
        rc = cli.main(["harvest-sim", "--strategy", "slip", "--fruit",
                       "strawberry", "--seed", "5", "--config", cfg])
        assert rc == 0
        got = _summary(capsys.readouterr().out.splitlines()[-1])
        s = harvest.run_experiment(8, seed=5, strategies=("slip",))[1]
        assert s.fruit_type == "strawberry"
        assert got == _summary(
            f"fruit=strawberry strategy=slip trials=8 "
            f"success_rate={s.success_rate:.3f} "
            f"mean_attempts={s.mean_attempts:.3f} "
            f"force_mean={s.force_mean:.3f} force_var={s.force_var:.4f}")

    def test_fruits_paired_across_strategies(self, tmp_path, capsys):
        # the same seed and fruit draws feed every strategy, so outcomes
        # differ only through control behaviour
        cfg = _write(tmp_path / "tiny.cfg", "harvest.trials = 8\n")
        rates = {}
        for strategy in ("open_loop", "slip_force"):
            rc = cli.main(["harvest-sim", "--strategy", strategy,
                           "--seed", "5", "--config", cfg])
            assert rc == 0
            out = capsys.readouterr().out
            rates[strategy] = float(out.split("success_rate=")[1].split()[0])
        assert rates["slip_force"] >= rates["open_loop"]
