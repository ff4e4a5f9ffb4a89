import json

import numpy as np
import pytest

from motionprior.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, run_cli
from motionprior.geometry import (GenericCamera, PinholeCamera,
                                  PinholeIntrinsics)
from motionprior.io_formats import load_scale, load_trajectory

RIG_TEXT = """\
id 0
model pinhole
intrinsics 700.0 700.0 640.0 480.0
image_size 1280 960
extrinsic 0 0 1 2.0 -1 0 0 0.0 0 -1 0 0.0

id 1
model pinhole
intrinsics 700.0 700.0 640.0 480.0
image_size 1280 960
extrinsic 0 0 1 1.0 -1 0 0 -0.8 0 -1 0 -0.2
"""

SCENARIO_TEXT = """\
rig = rig.txt
seed = 7
scene.num_points = 120
truth.yaw = 0.0
truth.arc_length = 1.0
sequence.segments = 3:0.0, 4:0.04
"""


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "rig.txt").write_text(RIG_TEXT)
    (tmp_path / "scenario.txt").write_text(SCENARIO_TEXT)
    return tmp_path


def simulate(ws):
    code = run_cli(["simulate", "--scenario", str(ws / "scenario.txt"),
                    "--out-matches", str(ws / "matches.csv"),
                    "--out-truth", str(ws / "gt.txt"),
                    "--out-scale", str(ws / "scale.txt")])
    assert code == EXIT_OK


class TestSimulate:
    def test_outputs(self, workspace, capsys):
        simulate(workspace)
        assert "wrote 7 frame pairs" in capsys.readouterr().out
        gt = load_trajectory(workspace / "gt.txt")
        assert len(gt) == 8
        assert load_scale(workspace / "scale.txt") == [1.0] * 7

    def test_seed_override_changes_matches(self, workspace):
        simulate(workspace)
        first = (workspace / "matches.csv").read_text()
        code = run_cli(["simulate", "--scenario",
                        str(workspace / "scenario.txt"),
                        "--out-matches", str(workspace / "matches.csv"),
                        "--out-truth", str(workspace / "gt.txt"),
                        "--seed", "99"])
        assert code == EXIT_OK
        assert (workspace / "matches.csv").read_text() != first

    def test_negative_seed_is_usage_error(self, workspace, capsys):
        code = run_cli(["simulate", "--scenario",
                        str(workspace / "scenario.txt"),
                        "--out-matches", str(workspace / "matches.csv"),
                        "--out-truth", str(workspace / "gt.txt"),
                        "--seed", "-5"])
        assert code == EXIT_USAGE
        assert "--seed -5" in capsys.readouterr().err
        assert not (workspace / "matches.csv").exists()

    def test_missing_scenario(self, workspace, capsys):
        code = run_cli(["simulate", "--scenario", str(workspace / "nope.txt"),
                        "--out-matches", str(workspace / "m.csv"),
                        "--out-truth", str(workspace / "g.txt")])
        assert code == EXIT_DATA
        assert "error:" in capsys.readouterr().err


class TestEstimate:
    def test_round_trip_against_truth(self, workspace, capsys):
        simulate(workspace)
        code = run_cli(["estimate", "--rig", str(workspace / "rig.txt"),
                        "--matches", str(workspace / "matches.csv"),
                        "--scale", str(workspace / "scale.txt"),
                        "--out-trajectory", str(workspace / "est.txt"),
                        "--diagnostics", str(workspace / "diag.jsonl")])
        assert code == EXIT_OK
        assert "estimated 7 frame pairs (0 failed)" in capsys.readouterr().out
        est = load_trajectory(workspace / "est.txt")
        gt = load_trajectory(workspace / "gt.txt")
        assert len(est) == len(gt)
        assert est.poses[-1].isclose(gt.poses[-1], atol=1e-4)

    def test_diagnostics_jsonl(self, workspace):
        simulate(workspace)
        run_cli(["estimate", "--rig", str(workspace / "rig.txt"),
                 "--matches", str(workspace / "matches.csv"),
                 "--scale", str(workspace / "scale.txt"),
                 "--out-trajectory", str(workspace / "est.txt"),
                 "--diagnostics", str(workspace / "diag.jsonl")])
        lines = (workspace / "diag.jsonl").read_text().splitlines()
        assert len(lines) == 7
        rec = json.loads(lines[0])
        for key in ("t0", "t1", "yaw", "arc_length", "energy", "iterations",
                    "converged", "termination", "condition_note",
                    "runtime_ms", "failed"):
            assert key in rec
        assert rec["failed"] is False

    def write_generic_rig(self, workspace):
        """generic_rig.txt: rig.txt with camera 0 tabulated."""
        table = GenericCamera.from_camera(
            PinholeCamera(PinholeIntrinsics(700.0, 700.0, 640.0, 480.0)),
            1280, 960).table
        with open(workspace / "table.txt", "w", encoding="utf-8") as fh:
            fh.write(f"0 0 8 8 {table.shape[1]} {table.shape[0]}\n")
            np.savetxt(fh, table.reshape(-1, 3))
        (workspace / "generic_rig.txt").write_text(RIG_TEXT.replace(
            "model pinhole\nintrinsics 700.0 700.0 640.0 480.0",
            f"model generic\ntable {workspace / 'table.txt'}"))

    def test_out_of_domain_pixel_fails_only_its_frame(self, workspace,
                                                      capsys):
        simulate(workspace)
        self.write_generic_rig(workspace)
        # one t1 pixel of frame pair 2 lies past the table's right edge
        lines = (workspace / "matches.csv").read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith("2,"))
        fields = lines[row].split(",")
        fields[5] = "1280.5"
        lines[row] = ",".join(fields)
        (workspace / "matches.csv").write_text("\n".join(lines) + "\n")
        code = run_cli(["estimate",
                        "--rig", str(workspace / "generic_rig.txt"),
                        "--matches", str(workspace / "matches.csv"),
                        "--scale", str(workspace / "scale.txt"),
                        "--out-trajectory", str(workspace / "est.txt"),
                        "--diagnostics", str(workspace / "diag.jsonl")])
        assert code == EXIT_OK
        assert "estimated 7 frame pairs (1 failed)" in capsys.readouterr().out
        diag = [json.loads(line) for line in
                (workspace / "diag.jsonl").read_text().splitlines()]
        assert [d["failed"] for d in diag] == [d["t0"] == 2 for d in diag]
        assert "tabulated domain" in diag[2]["error"]

    def test_geoline_on_generic_camera_is_data_error(self, workspace,
                                                     capsys):
        simulate(workspace)
        self.write_generic_rig(workspace)
        code = run_cli(["estimate",
                        "--rig", str(workspace / "generic_rig.txt"),
                        "--matches", str(workspace / "matches.csv"),
                        "--scale", str(workspace / "scale.txt"),
                        "--metric", "geoline",
                        "--out-trajectory", str(workspace / "est.txt")])
        assert code == EXIT_DATA
        assert "camera 0" in capsys.readouterr().err

    def test_free_in_curves(self, workspace):
        simulate(workspace)
        code = run_cli(["estimate", "--rig", str(workspace / "rig.txt"),
                        "--matches", str(workspace / "matches.csv"),
                        "--free-in-curves", "--initial-scale", "1.0",
                        "--out-trajectory", str(workspace / "est.txt")])
        assert code == EXIT_OK
        est = load_trajectory(workspace / "est.txt")
        gt = load_trajectory(workspace / "gt.txt")
        assert est.poses[-1].isclose(gt.poses[-1], atol=1e-3)

    def test_geoline_metric_flag(self, workspace):
        simulate(workspace)
        code = run_cli(["estimate", "--rig", str(workspace / "rig.txt"),
                        "--matches", str(workspace / "matches.csv"),
                        "--scale", str(workspace / "scale.txt"),
                        "--metric", "geoline", "--loss", "huber",
                        "--loss-width", "1.5",
                        "--out-trajectory", str(workspace / "est.txt")])
        assert code == EXIT_OK

    def test_bad_matches_file(self, workspace, capsys):
        (workspace / "bad.csv").write_text("not,a,match,header\n")
        code = run_cli(["estimate", "--rig", str(workspace / "rig.txt"),
                        "--matches", str(workspace / "bad.csv"),
                        "--out-trajectory", str(workspace / "est.txt")])
        assert code == EXIT_DATA

    def test_missing_required_flag(self, workspace, capsys):
        code = run_cli(["estimate", "--rig", str(workspace / "rig.txt")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err


class TestNonFiniteInput:
    def estimate(self, ws):
        return run_cli(["estimate", "--rig", str(ws / "rig.txt"),
                        "--matches", str(ws / "matches.csv"),
                        "--scale", str(ws / "scale.txt"),
                        "--out-trajectory", str(ws / "est.txt")])

    def test_nan_in_scale_file(self, workspace, capsys):
        simulate(workspace)
        scale = workspace / "scale.txt"
        lines = scale.read_text().splitlines()
        lines[1] = "nan"
        scale.write_text("\n".join(lines) + "\n")
        assert self.estimate(workspace) == EXIT_DATA
        assert f"{scale}:2:" in capsys.readouterr().err
        assert not (workspace / "est.txt").exists()

    def test_scale_file_longer_than_matches(self, workspace, capsys):
        simulate(workspace)
        scale = workspace / "scale.txt"
        scale.write_text(scale.read_text() + "1.0\n")
        assert self.estimate(workspace) == EXIT_DATA
        assert "8 scale values for 7 frame pairs" in capsys.readouterr().err
        assert not (workspace / "est.txt").exists()

    def test_nan_initial_scale(self, workspace, capsys):
        simulate(workspace)
        code = run_cli(["estimate", "--rig", str(workspace / "rig.txt"),
                        "--matches", str(workspace / "matches.csv"),
                        "--free-in-curves", "--initial-scale", "nan",
                        "--out-trajectory", str(workspace / "est.txt")])
        assert code == EXIT_DATA
        assert "initial scale must be finite" in capsys.readouterr().err

    def test_infinite_loss_width(self, workspace, capsys):
        simulate(workspace)
        code = run_cli(["estimate", "--rig", str(workspace / "rig.txt"),
                        "--matches", str(workspace / "matches.csv"),
                        "--loss-width", "inf",
                        "--out-trajectory", str(workspace / "est.txt")])
        assert code == EXIT_DATA
        assert "loss width inf" in capsys.readouterr().err
        assert not (workspace / "est.txt").exists()

    def test_nan_in_rig_extrinsic(self, workspace, capsys):
        simulate(workspace)
        rig = workspace / "rig.txt"
        rig.write_text(RIG_TEXT.replace("-0.8", "nan"))
        assert self.estimate(workspace) == EXIT_DATA
        assert f"{rig}:11:" in capsys.readouterr().err

    def test_nan_in_trajectory(self, workspace, capsys):
        simulate(workspace)
        gt = workspace / "gt.txt"
        lines = gt.read_text().splitlines()
        lines[3] = " ".join(["nan"] + lines[3].split()[1:])
        (workspace / "est.txt").write_text("\n".join(lines) + "\n")
        code = run_cli(["eval", "--est", str(workspace / "est.txt"),
                        "--gt", str(gt), "--lengths", "1"])
        assert code == EXIT_DATA
        assert "est.txt:4:" in capsys.readouterr().err


class TestLandscape:
    def test_scenario_grid(self, workspace):
        code = run_cli(["landscape", "--scenario",
                        str(workspace / "scenario.txt"),
                        "--out", str(workspace / "land.csv"),
                        "--yaw-steps", "5", "--arc-steps", "3"])
        assert code == EXIT_OK
        lines = (workspace / "land.csv").read_text().splitlines()
        assert lines[0] == "yaw,arc_length,energy,degenerate"
        assert len(lines) == 1 + 5 * 3

    def test_percent_normalization(self, workspace):
        code = run_cli(["landscape", "--scenario",
                        str(workspace / "scenario.txt"),
                        "--out", str(workspace / "land.csv"),
                        "--yaw-steps", "5", "--arc-steps", "3", "--percent"])
        assert code == EXIT_OK
        rows = (workspace / "land.csv").read_text().splitlines()[1:]
        energies = [float(r.split(",")[2]) for r in rows
                    if r.split(",")[3] == "0"]
        assert max(energies) == pytest.approx(100.0)

    def test_requires_input_source(self, workspace):
        code = run_cli(["landscape", "--out", str(workspace / "land.csv")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("source", ["files", "scenario"])
    @pytest.mark.parametrize("index", ["-1", "7"])
    def test_pair_index_out_of_range(self, workspace, capsys, source, index):
        simulate(workspace)      # 7 frame pairs
        inputs = (["--scenario", str(workspace / "scenario.txt")]
                  if source == "scenario" else
                  ["--rig", str(workspace / "rig.txt"),
                   "--matches", str(workspace / "matches.csv")])
        code = run_cli(["landscape", *inputs, "--pair-index", index,
                        "--out", str(workspace / "land.csv"),
                        "--yaw-steps", "3", "--arc-steps", "2"])
        assert code == EXIT_USAGE
        assert "7 frame pairs" in capsys.readouterr().err
        assert not (workspace / "land.csv").exists()


class TestEval:
    def test_report(self, workspace, capsys):
        simulate(workspace)
        # 7 one-metre frames cannot cover 100 m; use a tiny length
        code = run_cli(["eval", "--est", str(workspace / "gt.txt"),
                        "--gt", str(workspace / "gt.txt"),
                        "--lengths", "3",
                        "--out", str(workspace / "report.csv")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "rot_deg_per_m" in out
        lines = (workspace / "report.csv").read_text().splitlines()
        assert lines[0].startswith("length_m,")
        assert len(lines) == 2

    def test_zero_length_is_data_error(self, workspace, capsys):
        simulate(workspace)
        code = run_cli(["eval", "--est", str(workspace / "gt.txt"),
                        "--gt", str(workspace / "gt.txt"),
                        "--lengths", "3,0"])
        assert code == EXIT_DATA
        assert "segment length 0.0 must be finite and positive" in \
            capsys.readouterr().err

    def test_too_short_is_data_error(self, workspace, capsys):
        simulate(workspace)
        code = run_cli(["eval", "--est", str(workspace / "gt.txt"),
                        "--gt", str(workspace / "gt.txt"),
                        "--lengths", "100"])
        assert code == EXIT_DATA


def estimate_iterations(ws, cfg, *flags):
    """Per-frame LM iterations of `estimate` run with the config file."""
    code = run_cli(["--config", str(cfg),
                    "estimate", "--rig", str(ws / "rig.txt"),
                    "--matches", str(ws / "matches.csv"),
                    "--scale", str(ws / "scale.txt"),
                    "--out-trajectory", str(ws / "est.txt"),
                    "--diagnostics", str(ws / "diag.jsonl"), *flags])
    assert code == EXIT_OK
    return [json.loads(line)["iterations"]
            for line in (ws / "diag.jsonl").read_text().splitlines()]


class TestConfigAndEnv:
    def test_config_file_defaults(self, workspace):
        simulate(workspace)
        cfg = workspace / "flags.cfg"
        cfg.write_text("loss = huber\nmax-iterations = 1\n")
        assert max(estimate_iterations(workspace, cfg)) == 1

    def test_bad_config_line_names_its_line(self, workspace, capsys):
        cfg = workspace / "flags.cfg"
        cfg.write_text("loss = huber\nbogus line\n")
        code = run_cli(["--config", str(cfg), "eval", "--est", "a.txt",
                        "--gt", "b.txt"])
        assert code == EXIT_DATA
        assert f"{cfg}:2: expected key = value" in capsys.readouterr().err

    def test_explicit_flag_beats_config(self, workspace):
        simulate(workspace)
        cfg = workspace / "flags.cfg"
        cfg.write_text("max_iterations = 1\n")
        iterations = estimate_iterations(workspace, cfg,
                                         "--max-iterations", "3")
        assert max(iterations) > 1 and max(iterations) <= 3

    @pytest.mark.parametrize("text, message", [
        ("loss = huber\nloss_widht = 5\n", "loss_widht is a flag of no"),
        ("config = other.cfg\n", "config is a flag of no subcommand"),
        ("percent = yes\n", "percent takes true or false"),
        ("max-iterations = many\n", "invalid literal"),
        ("metric = planar\n", "metric must be one of")],
        ids=["misspelled", "top-level", "store-true-word", "int-word",
             "choice-unknown"])
    def test_bad_config_value_names_its_line(self, workspace, capsys, text,
                                             message):
        cfg = workspace / "flags.cfg"
        cfg.write_text("# flags\n" + text)
        code = run_cli(["--config", str(cfg), "eval", "--est", "a.txt",
                        "--gt", "b.txt"])
        assert code == EXIT_DATA
        line = text.count("\n") + 1
        assert f"{cfg}:{line}: {message}" in capsys.readouterr().err

    def test_store_true_flag_reads_false_and_rig_from_config(self, workspace):
        simulate(workspace)
        cfg = workspace / "flags.cfg"
        # a config key may supply a required flag
        cfg.write_text(f"percent = false\nrig = {workspace / 'rig.txt'}\n")
        code = run_cli(["--config", str(cfg), "landscape",
                        "--matches", str(workspace / "matches.csv"),
                        "--yaw-steps", "3", "--arc-steps", "3",
                        "--out", str(workspace / "land.csv")])
        assert code == EXIT_OK
        energies = [float(line.split(",")[2]) for line in
                    (workspace / "land.csv").read_text().splitlines()[1:]]
        # percent of the maximum would put the largest cell at 100
        assert max(energies) < 1.0
