import json
import os

import numpy as np
import pytest

from motionprior import io_formats
from motionprior.cli import (EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE,
                            run_cli)
from motionprior.estimator import LandscapeGrid, energy_landscape
from motionprior.geometry import PinholeCamera, PinholeIntrinsics
from motionprior.io_formats import (ParseError, load_matches, load_rig,
                                    load_scale, load_trajectory)
from motionprior.manifold import MotionParams
from motionprior.metrics import MetricKind, RobustLoss
from motionprior.pipeline import match_sets_from_record
from oracles import isclose, tabulate, unstacked

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


def write_generic_rig(ws, width=1280, height=960):
    """generic_rig.txt: rig.txt with its cameras tabulated over pixels 0
    to width and 0 to height, in 8 px steps."""
    table = tabulate(
        PinholeCamera(PinholeIntrinsics(700.0, 700.0, 640.0, 480.0)),
        width, height).table
    with open(ws / "table.txt", "w", encoding="utf-8") as fh:
        fh.write(f"0 0 8 8 {table.shape[1]} {table.shape[0]}\n")
        np.savetxt(fh, table.reshape(-1, 3))
    (ws / "generic_rig.txt").write_text(RIG_TEXT.replace(
        "model pinhole\nintrinsics 700.0 700.0 640.0 480.0",
        f"model generic\ntable {ws / 'table.txt'}"))


def write_centre_rig(ws):
    """rig.txt: camera 0 alone, moved to the rig centre."""
    (ws / "rig.txt").write_text(RIG_TEXT.split("\n\n")[0].replace(
        "extrinsic 0 0 1 2.0", "extrinsic 0 0 1 0.0") + "\n")


def landscape_inputs(ws):
    """landscape flags reading the files the scenario simulates."""
    return ["--rig", str(ws / "rig.txt"), "--matches", str(ws / "matches.csv")]


class TestSimulate:
    def test_outputs(self, workspace, capsys):
        simulate(workspace)
        assert "wrote 7 frame pairs" in capsys.readouterr().out
        gt = load_trajectory(workspace / "gt.txt")
        assert len(gt) == 8
        assert load_scale(workspace / "scale.txt") == [1.0] * 7

    def test_missing_scenario(self, workspace, capsys):
        code = run_cli(["simulate", "--scenario", str(workspace / "nope.txt"),
                        "--out-matches", str(workspace / "m.csv"),
                        "--out-truth", str(workspace / "g.txt")])
        assert code == EXIT_DATA
        assert "error:" in capsys.readouterr().err

    def test_generic_rig_is_data_error(self, workspace, capsys):
        write_generic_rig(workspace)
        (workspace / "scenario.txt").write_text(SCENARIO_TEXT.replace(
            "rig = rig.txt", "rig = generic_rig.txt"))
        code = run_cli(["simulate", "--scenario",
                        str(workspace / "scenario.txt"),
                        "--out-matches", str(workspace / "matches.csv"),
                        "--out-truth", str(workspace / "gt.txt")])
        assert code == EXIT_DATA
        assert "camera 0: simulation needs a pinhole camera" in \
            capsys.readouterr().err
        assert not (workspace / "matches.csv").exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    @pytest.mark.parametrize("full", ["matches", "truth", "scale"])
    def test_failed_write_leaves_no_output(self, workspace, capsys, full):
        out = {name: "/dev/full" if name == full else str(workspace / name)
               for name in ("matches", "truth", "scale")}
        code = run_cli(["simulate", "--scenario",
                        str(workspace / "scenario.txt"),
                        "--out-matches", out["matches"],
                        "--out-truth", out["truth"],
                        "--out-scale", out["scale"]])
        assert code == EXIT_DATA
        assert "No space left on device: '/dev/full'" in \
            capsys.readouterr().err
        assert sorted(p.name for p in workspace.iterdir()) == \
            ["rig.txt", "scenario.txt"]
        assert os.path.exists("/dev/full")


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
        assert isclose(unstacked(est.poses)[-1], unstacked(gt.poses)[-1],
                       atol=1e-4)

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
                    "converged", "termination", "condition_note", "sigma",
                    "runtime_ms", "failed"):
            assert key in rec
        assert rec["failed"] is False
        # the scale file holds the arc, so yaw is the only free field
        assert list(rec["sigma"]) == ["yaw"]
        assert 0.0 < rec["sigma"]["yaw"] < 1e-3

    def test_diagnostics_are_strict_json(self, workspace):
        # one camera at the rig centre, and the last frame pair cut to one
        # match: one residual for one free field leaves its sigma inf
        write_centre_rig(workspace)
        simulate(workspace)
        matches = workspace / "matches.csv"
        lines = matches.read_text().splitlines()
        last = next(k for k, line in enumerate(lines) if line.startswith("6,"))
        matches.write_text("\n".join(lines[:last + 1]) + "\n")
        code = run_cli(["estimate", "--rig", str(workspace / "rig.txt"),
                        "--matches", str(matches),
                        "--scale", str(workspace / "scale.txt"),
                        "--out-trajectory", str(workspace / "est.txt"),
                        "--diagnostics", str(workspace / "diag.jsonl")])
        assert code == EXIT_OK

        def refuse(constant):
            raise ValueError(f"{constant} is not strict JSON")
        diag = [json.loads(line, parse_constant=refuse) for line in
                (workspace / "diag.jsonl").read_text().splitlines()]
        assert diag[-1]["sigma"] == {"yaw": None}
        assert diag[-1]["condition_note"] == "few_matches"
        for d in diag[:-1]:
            assert 0.0 < d["sigma"]["yaw"] < 1e-3

    def test_unobservable_curve_arc_is_held(self, workspace):
        # the energy does not see the arc, so each curve frame is solved
        # again with the arc held at its start
        write_centre_rig(workspace)
        simulate(workspace)
        code = run_cli(["estimate", "--rig", str(workspace / "rig.txt"),
                        "--matches", str(workspace / "matches.csv"),
                        "--free-in-curves",
                        "--out-trajectory", str(workspace / "est.txt"),
                        "--diagnostics", str(workspace / "diag.jsonl")])
        assert code == EXIT_OK
        diag = [json.loads(line) for line in
                (workspace / "diag.jsonl").read_text().splitlines()]
        assert [d["arc_length"] for d in diag] == [1.0] * 7
        for d in diag:
            assert list(d["sigma"]) == ["yaw"]
            assert d["condition_note"] == "ok" and d["converged"]

    def test_out_of_domain_pixel_fails_only_its_frame(self, workspace,
                                                      capsys):
        simulate(workspace)
        write_generic_rig(workspace)
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
        write_generic_rig(workspace)
        code = run_cli(["estimate",
                        "--rig", str(workspace / "generic_rig.txt"),
                        "--matches", str(workspace / "matches.csv"),
                        "--scale", str(workspace / "scale.txt"),
                        "--metric", "geoline",
                        "--out-trajectory", str(workspace / "est.txt")])
        assert code == EXIT_DATA
        assert "camera 0" in capsys.readouterr().err

    def test_every_frame_failing_is_numeric_failure(self, workspace, capsys):
        # the table covers a 96 px corner of the image: no pair lifts
        simulate(workspace)
        write_generic_rig(workspace, 96, 96)
        code = run_cli(["estimate",
                        "--rig", str(workspace / "generic_rig.txt"),
                        "--matches", str(workspace / "matches.csv"),
                        "--scale", str(workspace / "scale.txt"),
                        "--out-trajectory", str(workspace / "est.txt")])
        assert code == EXIT_NUMERIC
        assert "estimation failed on every frame" in capsys.readouterr().err
        assert not (workspace / "est.txt").exists()

    def test_geoline_default_width_is_in_pixels(self, workspace):
        # without --loss-width, geoline's Cauchy width is 0.0065 at f = 700;
        # noise-free residuals lie far below any width, so add 1 px noise
        (workspace / "scenario.txt").write_text(
            SCENARIO_TEXT + "noise.pixel_sigma = 1.0\n")
        simulate(workspace)
        solves = {}
        for name, flags in (("default", []),
                            ("set", ["--loss-width", "4.55"])):
            assert run_cli(["estimate", "--rig", str(workspace / "rig.txt"),
                            "--matches", str(workspace / "matches.csv"),
                            "--scale", str(workspace / "scale.txt"),
                            "--metric", "geoline", *flags,
                            "--out-trajectory", str(workspace / "est.txt"),
                            "--diagnostics", str(workspace / "diag.jsonl")]
                           ) == EXIT_OK
            solves[name] = [
                (d["yaw"], d["energy"], d["iterations"]) for d in map(
                    json.loads,
                    (workspace / "diag.jsonl").read_text().splitlines())]
        assert solves["default"] == solves["set"]

    def test_free_in_curves(self, workspace):
        simulate(workspace)
        code = run_cli(["estimate", "--rig", str(workspace / "rig.txt"),
                        "--matches", str(workspace / "matches.csv"),
                        "--free-in-curves", "--initial-scale", "1.0",
                        "--out-trajectory", str(workspace / "est.txt")])
        assert code == EXIT_OK
        est = load_trajectory(workspace / "est.txt")
        gt = load_trajectory(workspace / "gt.txt")
        assert isclose(unstacked(est.poses)[-1], unstacked(gt.poses)[-1],
                       atol=1e-3)

    def test_geoline_metric_flag(self, workspace):
        simulate(workspace)
        code = run_cli(["estimate", "--rig", str(workspace / "rig.txt"),
                        "--matches", str(workspace / "matches.csv"),
                        "--scale", str(workspace / "scale.txt"),
                        "--metric", "geoline", "--loss-width", "1.5",
                        "--out-trajectory", str(workspace / "est.txt")])
        assert code == EXIT_OK

    @pytest.mark.parametrize("flags", [
        ["--free-in-curves"], ["--initial-scale", "5"],
        ["--free-in-curves", "--initial-scale", "5"]],
        ids=["free-in-curves", "initial-scale", "both"])
    def test_scale_with_other_scale_flag_is_usage_error(self, workspace,
                                                        capsys, flags):
        # no input file exists: the flags are checked before any read
        code = run_cli(["estimate", "--rig", str(workspace / "no_rig.txt"),
                        "--matches", str(workspace / "no_matches.csv"),
                        "--scale", str(workspace / "no_scale.txt"), *flags,
                        "--out-trajectory", str(workspace / "est.txt")])
        assert code == EXIT_USAGE
        assert "--scale fixes every arc length" in capsys.readouterr().err

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

    # argparse would read each as an abbreviation of a longer flag
    @pytest.mark.parametrize("flags", [
        ["--loss", "2.0"], ["--free", "--init", "1.0"]],
        ids=["loss", "free-init"])
    def test_abbreviated_flag_is_usage_error(self, workspace, capsys, flags):
        code = run_cli(["estimate", "--rig", str(workspace / "rig.txt"),
                        "--matches", str(workspace / "no_matches.csv"),
                        "--out-trajectory", str(workspace / "est.txt"),
                        *flags])
        assert code == EXIT_USAGE
        assert f"unrecognized arguments: {' '.join(flags)}" in \
            capsys.readouterr().err

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    @pytest.mark.parametrize("full", ["trajectory", "diagnostics"])
    def test_write_to_full_device_is_data_error(self, workspace, capsys,
                                                 full):
        simulate(workspace)
        out = {name: "/dev/full" if name == full else str(workspace / name)
               for name in ("trajectory", "diagnostics")}
        code = run_cli(["estimate", "--rig", str(workspace / "rig.txt"),
                        "--matches", str(workspace / "matches.csv"),
                        "--out-trajectory", out["trajectory"],
                        "--diagnostics", out["diagnostics"]])
        assert code == EXIT_DATA
        assert "error: [Errno 28] No space left on device: '/dev/full'" in \
            capsys.readouterr().err
        assert not (workspace / "trajectory").exists()
        assert not (workspace / "diagnostics").exists()

    def test_unopenable_output_leaves_no_output(self, workspace, capsys):
        # the diagnostics path is a directory: its open fails, and the
        # trajectory written before it is removed, the directory is not
        simulate(workspace)
        (workspace / "diag").mkdir()
        code = run_cli(["estimate", "--rig", str(workspace / "rig.txt"),
                        "--matches", str(workspace / "matches.csv"),
                        "--out-trajectory", str(workspace / "est.txt"),
                        "--diagnostics", str(workspace / "diag")])
        assert code == EXIT_DATA
        assert str(workspace / "diag") in capsys.readouterr().err
        assert not (workspace / "est.txt").exists()
        assert (workspace / "diag").is_dir()


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
        assert "initial scale is nan" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--free-in-curves"], []])
    def test_zero_initial_scale(self, workspace, capsys, flags):
        simulate(workspace)
        code = run_cli(["estimate", "--rig", str(workspace / "rig.txt"),
                        "--matches", str(workspace / "matches.csv"),
                        *flags, "--initial-scale", "0",
                        "--out-trajectory", str(workspace / "est.txt")])
        assert code == EXIT_DATA
        assert "|arc length| must be at least" in capsys.readouterr().err
        assert not (workspace / "est.txt").exists()

    def test_zero_in_scale_file(self, workspace, capsys):
        simulate(workspace)
        scale = workspace / "scale.txt"
        lines = scale.read_text().splitlines()
        lines[2] = "0.0"
        scale.write_text("\n".join(lines) + "\n")
        assert self.estimate(workspace) == EXIT_DATA
        assert "scale value 2 is 0.0" in capsys.readouterr().err
        assert not (workspace / "est.txt").exists()

    def test_missing_frame_pair(self, workspace, capsys):
        # pair (3, 4) deleted: (2, 3) and (4, 5) are not neighbours
        simulate(workspace)
        matches = workspace / "matches.csv"
        lines = [line for line in matches.read_text().splitlines()
                 if not line.startswith("3,4,")]
        matches.write_text("\n".join(lines) + "\n")
        scale = workspace / "scale.txt"
        scale.write_text("1.0\n" * 6)
        assert self.estimate(workspace) == EXIT_DATA
        assert "frame pair (4, 5) after (2, 3)" in capsys.readouterr().err
        assert not (workspace / "est.txt").exists()

    def test_unknown_camera_names_both_files(self, workspace, capsys):
        simulate(workspace)
        matches = workspace / "matches.csv"
        lines = matches.read_text().splitlines()
        # the last line of pair (2, 3) moves to camera 7, not in the rig
        i = max(k for k, line in enumerate(lines) if line.startswith("2,3,"))
        lines[i] = "2,3,7," + lines[i].split(",", 3)[3]
        matches.write_text("\n".join(lines) + "\n")
        assert self.estimate(workspace) == EXIT_DATA
        assert (f"{matches}: camera id 7 in frame pair (2, 3) is not in the "
                f"rig file {workspace / 'rig.txt'}") in capsys.readouterr().err
        assert not (workspace / "est.txt").exists()

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
    # landscape's one input: the files simulate writes
    @pytest.mark.parametrize("source", ["files"])
    def test_scenario_grid(self, workspace, source):
        simulate(workspace)
        code = run_cli(["landscape", *landscape_inputs(workspace),
                        "--out", str(workspace / "land.csv"),
                        "--yaw-steps", "5", "--arc-steps", "3"])
        assert code == EXIT_OK
        lines = (workspace / "land.csv").read_text().splitlines()
        assert lines[0] == "yaw,arc_length,energy,degenerate"
        assert len(lines) == 1 + 5 * 3
        # raw energies of pair 0 at pitch = roll = 0, as estimate holds them
        land = energy_landscape(
            load_rig(workspace / "rig.txt"), match_sets_from_record(
                load_matches(workspace / "matches.csv")[0]),
            LandscapeGrid((-0.3, 0.3), 5, (0.5, 2.0), 3),
            MotionParams(yaw=0.0, arc_length=1.0),
            RobustLoss("cauchy", 0.0065), MetricKind.ANGLEPLANE)
        assert [float(line.split(",")[2]) for line in lines[1:]] == \
            land.energies.ravel().tolist()

    def test_geoline_grid_takes_the_geoline_loss(self, workspace):
        simulate(workspace)
        code = run_cli(["landscape", *landscape_inputs(workspace),
                        "--metric", "geoline", "--out",
                        str(workspace / "land.csv"),
                        "--yaw-steps", "3", "--arc-steps", "2"])
        assert code == EXIT_OK
        land = energy_landscape(
            load_rig(workspace / "rig.txt"), match_sets_from_record(
                load_matches(workspace / "matches.csv")[0]),
            LandscapeGrid((-0.3, 0.3), 3, (0.5, 2.0), 2),
            MotionParams(yaw=0.0, arc_length=1.0),
            RobustLoss("cauchy", 4.55), MetricKind.GEOLINE)
        lines = (workspace / "land.csv").read_text().splitlines()
        assert [float(line.split(",")[2]) for line in lines[1:]] == \
            land.energies.ravel().tolist()

    def test_degenerate_cell_is_zero_and_flagged(self, workspace):
        # one camera at the motion centre, standing still: no camera
        # translates, so the kernel's energy is inf, written as 0.0 with
        # degenerate 1
        write_centre_rig(workspace)
        simulate(workspace)
        code = run_cli(["landscape", *landscape_inputs(workspace),
                        "--out", str(workspace / "land.csv"),
                        "--yaw-min", "0", "--yaw-max", "0", "--yaw-steps",
                        "1", "--arc-min", "0", "--arc-max", "0",
                        "--arc-steps", "1"])
        assert code == EXIT_OK
        assert (workspace / "land.csv").read_text().splitlines() == [
            "yaw,arc_length,energy,degenerate", "0.0,0.0,0.0,1"]

    def test_yaw_past_pi_is_data_error(self, workspace, capsys):
        # cells past pi are off the manifold, not degenerate
        simulate(workspace)
        code = run_cli(["landscape", *landscape_inputs(workspace),
                        "--out", str(workspace / "land.csv"),
                        "--yaw-min", "3.0", "--yaw-max", "3.3", "--yaw-steps",
                        "4", "--arc-min", "1", "--arc-max", "1",
                        "--arc-steps", "1"])
        assert code == EXIT_DATA
        assert "error: yaw range 3.0, 3.3 must lie within (-pi, pi)" in \
            capsys.readouterr().err
        assert not (workspace / "land.csv").exists()

    def test_pixel_off_the_table_is_numeric_failure(self, workspace, capsys):
        simulate(workspace)
        write_generic_rig(workspace, 96, 96)
        code = run_cli(["landscape",
                        "--rig", str(workspace / "generic_rig.txt"),
                        "--matches", str(workspace / "matches.csv"),
                        "--out", str(workspace / "land.csv"),
                        "--yaw-steps", "3", "--arc-steps", "2"])
        assert code == EXIT_NUMERIC
        assert "tabulated domain" in capsys.readouterr().err
        assert not (workspace / "land.csv").exists()

    def test_requires_input_source(self, workspace):
        code = run_cli(["landscape", "--out", str(workspace / "land.csv")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("source", ["files"])
    @pytest.mark.parametrize("index", ["-1", "7"])
    def test_pair_index_out_of_range(self, workspace, capsys, source, index):
        simulate(workspace)      # 7 frame pairs
        code = run_cli(["landscape", *landscape_inputs(workspace),
                        "--pair-index", index,
                        "--out", str(workspace / "land.csv"),
                        "--yaw-steps", "3", "--arc-steps", "2"])
        assert code == EXIT_USAGE
        assert "7 frame pairs" in capsys.readouterr().err
        assert not (workspace / "land.csv").exists()

    def test_reads_no_block_after_the_pair(self, workspace, monkeypatch):
        # the match file is parsed in blocks of whole lines: with blocks
        # much smaller than the file, a malformed line after pair 0 is in a
        # block that pair 0 never needs
        simulate(workspace)
        matches = workspace / "matches.csv"
        clean = matches.read_text()
        monkeypatch.setattr(io_formats, "MATCH_BLOCK_CHARS", 1024)
        outputs = []
        for text in (clean, clean + "6,7,0,not,a,pixel,line\n"):
            matches.write_text(text)
            code = run_cli(["landscape", *landscape_inputs(workspace),
                            "--pair-index", "0",
                            "--out", str(workspace / "land.csv"),
                            "--yaw-steps", "3", "--arc-steps", "2"])
            assert code == EXIT_OK
            outputs.append((workspace / "land.csv").read_text())
        assert outputs[1] == outputs[0]
        with pytest.raises(ParseError):
            load_matches(matches)

    @pytest.mark.parametrize("old, new, message", [
        ("\n1,2,0,", "\n1,2,0,x", "could not convert string"),
        ("\n1,2,", "\n0,2,", "frame pair (0, 2) after (0, 1): t0 must "
         "increase")], ids=["malformed", "out-of-order"])
    def test_bad_line_up_to_the_pair_names_it(self, workspace, capsys,
                                              monkeypatch, old, new,
                                              message):
        simulate(workspace)
        matches = workspace / "matches.csv"
        # the first line of pair 1, after the header and pair 0's lines
        line = 2 + load_matches(matches)[0].match_count()
        matches.write_text(matches.read_text().replace(old, new, 1))
        monkeypatch.setattr(io_formats, "MATCH_BLOCK_CHARS", 1024)
        code = run_cli(["landscape", *landscape_inputs(workspace),
                        "--pair-index", "1",
                        "--out", str(workspace / "land.csv"),
                        "--yaw-steps", "3", "--arc-steps", "2"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{matches}:{line}: " in err and message in err
        assert not (workspace / "land.csv").exists()

    @pytest.mark.parametrize("steps, message", [
        (["--yaw-steps", "0"], "--yaw-steps 0 must be at least 1"),
        (["--arc-steps", "-2"], "--arc-steps -2 must be at least 1"),
        # just past the bound, so a missing check costs seconds, not memory
        (["--yaw-steps", "1001", "--arc-steps", "1000"],
         "--yaw-steps 1001 x --arc-steps 1000 exceeds 1000000 grid cells")],
        ids=["zero", "negative", "too-many-cells"])
    def test_grid_size_is_usage_error(self, workspace, capsys, steps,
                                      message):
        # neither input file exists: the size is checked before any read
        code = run_cli(["landscape", "--rig", str(workspace / "no_rig.txt"),
                        "--matches", str(workspace / "no_matches.csv"),
                        "--out", str(workspace / "land.csv"), *steps])
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not (workspace / "land.csv").exists()

    def test_unknown_camera_names_both_files(self, workspace, capsys):
        simulate(workspace)
        matches = workspace / "matches.csv"
        matches.write_text(matches.read_text().replace("\n1,2,1,", "\n1,2,7,"))
        code = run_cli(["landscape", "--rig", str(workspace / "rig.txt"),
                        "--matches", str(matches), "--pair-index", "1",
                        "--out", str(workspace / "land.csv"),
                        "--yaw-steps", "3", "--arc-steps", "2"])
        assert code == EXIT_DATA
        assert (f"{matches}: camera id 7 in frame pair (1, 2) is not in the "
                f"rig file {workspace / 'rig.txt'}") in capsys.readouterr().err
        assert not (workspace / "land.csv").exists()

    # a reversed range fails the same check as a non-finite one
    @pytest.mark.parametrize("flags", [
        ["--yaw-min=nan"], ["--yaw-max=inf"], ["--arc-min=-inf"],
        ["--arc-max=inf"], ["--yaw-min=0.2", "--yaw-max=-0.2"]],
        ids=["--yaw-min-nan", "--yaw-max-inf", "--arc-min--inf",
             "--arc-max-inf", "yaw-reversed"])
    def test_non_finite_range_is_data_error(self, workspace, capsys, flags):
        simulate(workspace)
        code = run_cli(["landscape", *landscape_inputs(workspace),
                        "--out", str(workspace / "land.csv"),
                        "--yaw-steps", "3", "--arc-steps", "2", *flags])
        assert code == EXIT_DATA
        assert "must be finite" in capsys.readouterr().err
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

    def test_repeated_length_prints_one_row(self, workspace, capsys):
        simulate(workspace)
        capsys.readouterr()
        outputs = []
        for lengths in ("3", "3,3"):
            code = run_cli(["eval", "--est", str(workspace / "gt.txt"),
                            "--gt", str(workspace / "gt.txt"),
                            "--lengths", lengths,
                            "--out", str(workspace / f"{lengths}.csv")])
            assert code == EXIT_OK
            outputs.append((capsys.readouterr().out,
                            (workspace / f"{lengths}.csv").read_text()))
        assert outputs[1] == outputs[0]

    def test_fractional_lengths_label_their_rows_as_given(self, workspace,
                                                          capsys):
        simulate(workspace)
        capsys.readouterr()
        code = run_cli(["eval", "--est", str(workspace / "gt.txt"),
                        "--gt", str(workspace / "gt.txt"),
                        "--lengths", "0.5,1.5,2.5,3,1e6,0.1234567,0.1234568",
                        "--out", str(workspace / "report.csv")])
        assert code == EXIT_OK
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split()[0] for row in rows] == [
            "0.1234567", "0.1234568", "0.5", "1.5", "2.5", "3", "1000000"]
        # an integer length prints as it did before
        assert rows[5].startswith(f"{3.0:10.0f} ")
        assert rows[6].startswith(f"{1e6:10.0f} ")
        lines = (workspace / "report.csv").read_text().splitlines()[1:]
        assert [float(line.split(",")[0]) for line in lines] == [
            0.1234567, 0.1234568, 0.5, 1.5, 2.5, 3.0, 1e6]

    def test_zero_length_is_usage_error(self, workspace, capsys):
        simulate(workspace)
        code = run_cli(["eval", "--est", str(workspace / "gt.txt"),
                        "--gt", str(workspace / "gt.txt"),
                        "--lengths", "3,0"])
        assert code == EXIT_USAGE
        assert "segment length 0.0 must be finite and positive" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("lengths", ["abc", "3,nan", "inf", "-1"])
    def test_bad_length_is_usage_error_before_any_read(self, workspace,
                                                       capsys, lengths):
        code = run_cli(["eval", "--est", str(workspace / "no_est.txt"),
                        "--gt", str(workspace / "no_gt.txt"),
                        f"--lengths={lengths}"])
        assert code == EXIT_USAGE
        assert "argument --lengths" in capsys.readouterr().err

    @pytest.mark.parametrize("lengths", [",", " , "])
    def test_no_length_is_usage_error_before_any_read(self, workspace,
                                                      capsys, lengths):
        code = run_cli(["eval", "--est", str(workspace / "no_est.txt"),
                        "--gt", str(workspace / "no_gt.txt"),
                        f"--lengths={lengths}"])
        assert code == EXIT_USAGE
        assert "at least one segment length is needed" in \
            capsys.readouterr().err

    def test_too_short_is_data_error(self, workspace, capsys):
        simulate(workspace)
        code = run_cli(["eval", "--est", str(workspace / "gt.txt"),
                        "--gt", str(workspace / "gt.txt"),
                        "--lengths", "100"])
        assert code == EXIT_DATA
