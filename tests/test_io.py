import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionprior.geometry import (PinholeCamera, PinholeIntrinsics, Pose,
                                  forward_camera_extrinsic, rotation_x,
                                  rotation_y, rotation_z)
from motionprior.io_formats import (MATCH_HEADER, FramePairRecord,
                                    ParseError, SequenceProfile,
                                    TrajectoryRecord,
                                    load_bearing_table, load_matches,
                                    load_rig, load_scale,
                                    load_scenario, load_trajectory,
                                    write_matches, write_rig, write_scale,
                                    write_trajectory)
from motionprior import io_formats
from motionprior.manifold import CameraRig, RigCamera

RIG_TEXT = """\
id 0
model pinhole
intrinsics 700.0 700.0 640.0 480.0
image_size 1280 960
extrinsic 0 0 1 2.0 -1 0 0 0.0 0 -1 0 0.0

# rear camera
id 1
model pinhole
intrinsics 650.0 660.0 320.0 240.0 0.1
extrinsic 0 0 -1 -0.5 1 0 0 0.0 0 -1 0 0.0
"""

TABLE_ROWS = "0 0 1\n0.1 0 1\n0 0.1 1\n0.1 0.1 1\n"


class TestRigFiles:
    def test_load(self, tmp_path):
        p = tmp_path / "rig.txt"
        p.write_text(RIG_TEXT)
        rig = load_rig(p)
        assert [c.camera_id for c in rig.cameras] == [0, 1]
        front = rig.camera(0)
        assert front.model.intrinsics.fx == 700.0
        assert front.model.image_size == (1280.0, 960.0)
        assert np.allclose(front.extrinsic.translation, [2.0, 0.0, 0.0])
        assert rig.camera(1).model.intrinsics.skew == 0.1
        assert rig.camera(1).model.image_size is None

    def test_round_trip(self, tmp_path):
        rig = CameraRig((
            RigCamera(0, PinholeCamera(PinholeIntrinsics(700, 710, 640, 480),
                                       (1280, 960)),
                      forward_camera_extrinsic([2.0, 0.3, 1.1])),
            RigCamera(3, PinholeCamera(PinholeIntrinsics(500, 500, 320, 240)),
                      Pose(rotation_z(0.4), [0.0, -1.0, 0.5])),
        ))
        p = tmp_path / "rig.txt"
        write_rig(rig, p)
        back = load_rig(p)
        for a, b in zip(rig.cameras, back.cameras):
            assert a.camera_id == b.camera_id
            assert a.extrinsic.isclose(b.extrinsic, atol=0.0)
            assert a.model.intrinsics == b.model.intrinsics

    def test_missing_key(self, tmp_path):
        p = tmp_path / "rig.txt"
        p.write_text("id 0\nmodel pinhole\nintrinsics 1 1 0 0\n")
        with pytest.raises(ParseError):
            load_rig(p)

    def test_bad_rotation(self, tmp_path):
        p = tmp_path / "rig.txt"
        p.write_text("id 0\nmodel pinhole\nintrinsics 1 1 0 0\n"
                     "extrinsic 2 0 0 0 0 1 0 0 0 0 1 0\n")
        with pytest.raises(ParseError, match="orthonormal") as err:
            load_rig(p)
        assert err.value.line == 4

    @pytest.mark.parametrize("text, line", [
        ("id 0\nmodel pinhole\nintrinsics 1 1 0 0\n"
         "extrinsic 1 0 0 nan 0 1 0 0 0 0 1 0\n", 4),
        ("id 0\nmodel pinhole\nintrinsics 1 1 0 0\n"
         "extrinsic 1 0 0 0 0 1 0 -inf 0 0 1 0\n", 4),
        ("id 0\nmodel pinhole\nintrinsics 1 inf 0 0\n"
         "extrinsic 1 0 0 0 0 1 0 0 0 0 1 0\n", 3),
        ("id 0\nmodel pinhole\nintrinsics 1 1 0 0\nimage_size nan 10\n"
         "extrinsic 1 0 0 0 0 1 0 0 0 0 1 0\n", 4),
        ("id 0\nmodel pinhole\nintrinsics 1 1 0 0\n"
         "extrinsic 1 0 0 0 0 1 0 0 0 0 1 oops\n", 4),
        ("model pinhole\nid zero\nintrinsics 1 1 0 0\n"
         "extrinsic 1 0 0 0 0 1 0 0 0 0 1 0\n", 2),
        ("id 0\nmodel\nintrinsics 1 1 0 0\n"
         "extrinsic 1 0 0 0 0 1 0 0 0 0 1 0\n", 2),
        ("id 0\nmodel generic\ntable\n"
         "extrinsic 1 0 0 0 0 1 0 0 0 0 1 0\n", 3),
        ("id 0\nmodel generic\n"
         "extrinsic 1 0 0 0 0 1 0 0 0 0 1 0\n", 2),
        ("id 0\nmodel pinhole\nintrinsics 1 1 0 0\nimage_size 1280\n"
         "extrinsic 1 0 0 0 0 1 0 0 0 0 1 0\n", 4),
        ("id 0\nmodel pinhole\n"
         "extrinsic 1 0 0 0 0 1 0 0 0 0 1 0\n", 2),
        ("id 0\nmodel pinhole\nintrinsics 0 1 0 0\n"
         "extrinsic 1 0 0 0 0 1 0 0 0 0 1 0\n", 3),
        ("id 0\nmodel pinhole\nintrinsics 1 -1 0 0\n"
         "extrinsic 1 0 0 0 0 1 0 0 0 0 1 0\n", 3),
        ("id 0\nmodel pinhole\nintrinsics 1 1 0 0\n"
         "extrinsic 1 0 0 0 0 1 0 0 0 0 1 0\n\n# second camera\n"
         "model pinhole\nintrinsics 1 1 0 0\n"
         "extrinsic 1 0 0 0 0 1 0 0 0 0 1 0\n", 7),
        ("id 0\nintrinsics 1 1 0 0\n"
         "extrinsic 1 0 0 0 0 1 0 0 0 0 1 0\n", 1),
        ("\nid 0\nmodel pinhole\nintrinsics 1 1 0 0\n", 2),
    ], ids=["extrinsic-nan", "extrinsic-inf", "intrinsics-inf",
            "image-size-nan", "extrinsic-word", "id-word", "model-bare",
            "table-bare", "table-missing", "image-size-one-value",
            "intrinsics-missing", "focal-zero", "focal-negative",
            "id-missing", "model-missing", "extrinsic-missing"])
    def test_bad_number_reports_line(self, tmp_path, text, line):
        p = tmp_path / "rig.txt"
        p.write_text(text)
        with pytest.raises(ParseError) as err:
            load_rig(p)
        assert err.value.line == line

    def test_non_finite_bearing_table_reports_line(self, tmp_path):
        p = tmp_path / "table.txt"
        p.write_text("0 0 1 1 2 2\n"
                     + TABLE_ROWS.replace("0.1 0 1", "0.1 0 nan"))
        with pytest.raises(ParseError) as err:
            load_bearing_table(p)
        assert err.value.line == 3
        p.write_text("0 inf 1 1 2 2\n" + TABLE_ROWS)
        with pytest.raises(ParseError) as err:
            load_bearing_table(p)
        assert err.value.line == 1

    @pytest.mark.parametrize("header, rows, line", [
        ("0 0 0 1 2 2", TABLE_ROWS, 1),
        ("0 0 1 0 2 2", TABLE_ROWS, 1),
        ("0 0 -1 1 2 2", TABLE_ROWS, 1),
        ("0 0 1 1 2.5 2", TABLE_ROWS, 1),
        ("0 0 1 1 2 x", TABLE_ROWS, 1),
        ("0 0 1 1 1 4", TABLE_ROWS, 1),
        ("0 0 1 1 2 2", TABLE_ROWS.replace("0 0.1 1", "0 0.1"), 4),
        ("0 0 1 1 2 2", TABLE_ROWS.replace("0 0.1 1", "0 0.1 1 1"), 4),
        ("0 0 1 1 2 2", TABLE_ROWS.replace("0.1 0.1 1", "0.1 oops 1"), 5),
    ], ids=["du-zero", "dv-zero", "du-negative", "nu-fraction", "nv-word",
            "nu-one", "row-two-values", "row-four-values", "row-word"])
    def test_bad_bearing_table_reports_line(self, tmp_path, header, rows,
                                            line):
        p = tmp_path / "table.txt"
        p.write_text(header + "\n" + rows)
        with pytest.raises(ParseError) as err:
            load_bearing_table(p)
        assert err.value.line == line

    def test_relative_table_resolves_against_rig_file(self, tmp_path,
                                                      monkeypatch):
        cal = tmp_path / "cal"
        cal.mkdir()
        (cal / "bearings.txt").write_text("0 0 1 1 2 2\n" + TABLE_ROWS)
        extrinsic = "extrinsic 1 0 0 0 0 1 0 0 0 0 1 0\n"
        (cal / "rig.txt").write_text(
            "id 0\nmodel generic\ntable bearings.txt\n" + extrinsic
            + f"\nid 1\nmodel generic\ntable {cal / 'bearings.txt'}\n"
            + extrinsic)
        monkeypatch.chdir(tmp_path)
        rig = load_rig("cal/rig.txt")
        assert [c.model.kind for c in rig.cameras] == ["generic"] * 2

    def test_cameras_on_one_table_share_one_parse(self, tmp_path,
                                                  monkeypatch):
        (tmp_path / "bearings.txt").write_text("0 0 1 1 2 2\n" + TABLE_ROWS)
        extrinsic = "extrinsic 1 0 0 0 0 1 0 0 0 0 1 0\n"
        (tmp_path / "rig.txt").write_text("\n".join(
            f"id {i}\nmodel generic\nimage_size 2 2\ntable {name}\n"
            + extrinsic
            for i, name in enumerate(["bearings.txt", "./bearings.txt"])))
        calls = []

        def counted(*args):
            calls.append(args)
            return load_bearing_table(*args)

        monkeypatch.setattr(io_formats, "load_bearing_table", counted)
        rig = load_rig(tmp_path / "rig.txt")
        assert len(calls) == 1
        assert rig.cameras[0].model is rig.cameras[1].model

    def test_duplicate_ids(self, tmp_path):
        block = ("id 0\nmodel pinhole\nintrinsics 1 1 0 0\n"
                 "extrinsic 1 0 0 0 0 1 0 0 0 0 1 0\n")
        p = tmp_path / "rig.txt"
        p.write_text(block + "\n" + block)
        with pytest.raises(ParseError, match="camera id 0 repeats") as err:
            load_rig(p)
        assert err.value.line == 6

    def test_empty_file(self, tmp_path):
        p = tmp_path / "rig.txt"
        p.write_text("# only comments\n")
        with pytest.raises(ParseError):
            load_rig(p)


class TestMatchFiles:
    def make_records(self):
        rng = np.random.Generator(np.random.PCG64(1))
        records = []
        for t0 in range(3):
            pixels = {cam: (rng.uniform(0, 1280, size=(5, 2)),
                            rng.uniform(0, 1280, size=(5, 2)))
                      for cam in (0, 1)}
            records.append(FramePairRecord(t0, t0 + 1, pixels))
        return records

    def test_round_trip_exact(self, tmp_path):
        records = self.make_records()
        p = tmp_path / "matches.csv"
        write_matches(records, p)
        back = load_matches(p)
        assert len(back) == len(records)
        for a, b in zip(records, back):
            assert (a.t0, a.t1) == (b.t0, b.t1)
            for cam in a.pixels:
                assert np.array_equal(a.pixels[cam][0], b.pixels[cam][0])
                assert np.array_equal(a.pixels[cam][1], b.pixels[cam][1])

    def test_header_required(self, tmp_path):
        p = tmp_path / "matches.csv"
        p.write_text("0,1,0,1.0,2.0,3.0,4.0\n")
        with pytest.raises(ParseError):
            load_matches(p)

    def test_non_monotone_frames(self, tmp_path):
        p = tmp_path / "matches.csv"
        p.write_text("t0,t1,camera_id,u0,v0,u1,v1\n"
                     "1,2,0,1,2,3,4\n"
                     "0,1,0,1,2,3,4\n")
        with pytest.raises(ParseError) as err:
            load_matches(p)
        assert err.value.line == 3

    def test_bad_field_reports_line(self, tmp_path):
        p = tmp_path / "matches.csv"
        p.write_text("t0,t1,camera_id,u0,v0,u1,v1\n"
                     "0,1,0,1,2,3,4\n"
                     "1,2,0,oops,2,3,4\n")
        with pytest.raises(ParseError) as err:
            load_matches(p)
        assert err.value.line == 3

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_reports_line(self, tmp_path, value):
        p = tmp_path / "matches.csv"
        p.write_text("t0,t1,camera_id,u0,v0,u1,v1\n"
                     "0,1,0,1,2,3,4\n"
                     "1,2,0,1,2,3,4\n"
                     f"1,2,0,1,2,{value},4\n")
        with pytest.raises(ParseError) as err:
            load_matches(p)
        assert err.value.line == 4

    def test_match_count(self):
        rec = self.make_records()[0]
        assert rec.match_count() == 10

    def test_split_frame_pair_reports_first_line_out_of_order(self,
                                                             tmp_path):
        p = tmp_path / "matches.csv"
        p.write_text("t0,t1,camera_id,u0,v0,u1,v1\n"
                     "0,1,0,1,2,3,4\n"
                     "1,2,0,1,2,3,4\n"
                     "1,2,1,1,2,3,4\n"
                     "0,1,1,1,2,3,4\n"
                     "2,3,0,1,2,3,4\n")
        with pytest.raises(ParseError) as err:
            load_matches(p)
        assert err.value.line == 5

    def test_repeated_t0_with_another_t1_reports_line(self, tmp_path):
        p = tmp_path / "matches.csv"
        p.write_text("t0,t1,camera_id,u0,v0,u1,v1\n"
                     "0,1,0,1,2,3,4\n"
                     "# comment\n"
                     "0,2,0,1,2,3,4\n")
        with pytest.raises(ParseError) as err:
            load_matches(p)
        assert err.value.line == 4

    @pytest.mark.parametrize("row", ["0.5,1,0", "0,1.0,0", "0,1,x",
                                     "0,1,99999999999999999999"],
                             ids=["t0-fraction", "t1-real", "camera-word",
                                  "camera-beyond-int64"])
    def test_non_integer_index_reports_line(self, tmp_path, row):
        p = tmp_path / "matches.csv"
        p.write_text("t0,t1,camera_id,u0,v0,u1,v1\n"
                     "0,1,0,1,2,3,4\n"
                     f"{row},1,2,3,4\n")
        with pytest.raises(ParseError) as err:
            load_matches(p)
        assert err.value.line == 3

    def test_no_match_lines(self, tmp_path):
        p = tmp_path / "matches.csv"
        p.write_text("t0,t1,camera_id,u0,v0,u1,v1\n# no matches\n")
        with pytest.raises(ParseError, match="no match lines") as err:
            load_matches(p)
        assert err.value.line == 1


class TestTrajectoryFiles:
    def make_trajectory(self):
        poses = [Pose.identity()]
        step = Pose(rotation_z(0.01), [1.0, 0.005, 0.0])
        for _ in range(10):
            poses.append(poses[-1].compose(step))
        return TrajectoryRecord(tuple(poses))

    def test_round_trip_bit_exact(self, tmp_path):
        traj = self.make_trajectory()
        p = tmp_path / "traj.txt"
        write_trajectory(traj, p)
        back = load_trajectory(p)
        assert len(back) == len(traj)
        for a, b in zip(traj.poses, back.poses):
            assert np.array_equal(a.matrix34(), b.matrix34())

    def test_percent_e_round_trip(self, tmp_path):
        # KITTI ground truth prints %e: 7 significant digits, so its
        # rotations miss orthonormality by a few 1e-7
        traj = self.make_trajectory()
        p = tmp_path / "traj.txt"
        np.savetxt(p, [pose.matrix34().ravel() for pose in traj.poses],
                   fmt="%e")
        back = load_trajectory(p)
        assert len(back) == len(traj)
        for a, b in zip(traj.poses, back.poses):
            assert np.allclose(a.matrix34(), b.matrix34(), rtol=0.0,
                               atol=1e-5)

    def test_rotation_beyond_projection_bound(self, tmp_path):
        p = tmp_path / "traj.txt"
        p.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n"
                     "1.0001 0 0 0 0 1 0 0 0 0 1 0\n")
        with pytest.raises(ParseError, match="orthonormal") as err:
            load_trajectory(p)
        assert err.value.line == 2

    def test_line_format(self, tmp_path):
        p = tmp_path / "traj.txt"
        write_trajectory(TrajectoryRecord((Pose.identity(),)), p)
        vals = p.read_text().split()
        assert len(vals) == 12
        assert [float(v) for v in vals] == [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0]

    def test_first_pose_must_be_identity(self):
        with pytest.raises(ValueError):
            TrajectoryRecord((Pose(np.eye(3), [1.0, 0, 0]),))

    def test_wrong_column_count(self, tmp_path):
        p = tmp_path / "traj.txt"
        p.write_text("1 0 0 0 0 1 0 0 0 0 1\n")
        with pytest.raises(ParseError):
            load_trajectory(p)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_value_reports_line(self, tmp_path, value):
        p = tmp_path / "traj.txt"
        p.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n"
                     f"1 0 0 {value} 0 1 0 0 0 0 1 0\n")
        with pytest.raises(ParseError) as err:
            load_trajectory(p)
        assert err.value.line == 2

    def test_empty_file(self, tmp_path):
        p = tmp_path / "traj.txt"
        p.write_text("")
        with pytest.raises(ParseError):
            load_trajectory(p)


class TestScaleFiles:
    def test_round_trip(self, tmp_path):
        values = [1.0, 1.5, 0.123456789012345, 2.0]
        p = tmp_path / "scale.txt"
        write_scale(values, p)
        assert load_scale(p) == values

    def test_bad_value(self, tmp_path):
        p = tmp_path / "scale.txt"
        p.write_text("1.0\nnope\n")
        with pytest.raises(ParseError):
            load_scale(p)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_value_reports_line(self, tmp_path, value):
        p = tmp_path / "scale.txt"
        p.write_text(f"1.0\n{value}\n1.0\n")
        with pytest.raises(ParseError) as err:
            load_scale(p)
        assert err.value.line == 2


# one valid file of each numeric format: (its values as loaded, the file,
# the same file with comments and blank lines)
COMMENTED_FILES = {
    "matches": (
        lambda p: [(r.t0, r.t1, {cam: np.hstack(px).tolist()
                                 for cam, px in r.pixels.items()})
                   for r in load_matches(p)],
        "t0,t1,camera_id,u0,v0,u1,v1\n0,1,0,1,2,3,4\n1,2,0,5,6,7,8\n",
        "# matches\nt0,t1,camera_id,u0,v0,u1,v1  # header\n\n"
        "0,1,0,1,2,3,4\n   \n# next pair\n1,2,0,5,6,7,8 # last\n"),
    "trajectory": (
        lambda p: [pose.matrix34().tolist()
                   for pose in load_trajectory(p).poses],
        "1 0 0 0 0 1 0 0 0 0 1 0\n1 0 0 1 0 1 0 0 0 0 1 0\n",
        "# poses\n1 0 0 0 0 1 0 0 0 0 1 0\n\n"
        "1 0 0 1 0 1 0 0 0 0 1 0  # second\n\n"),
    "scale": (load_scale, "1.0\n1.5\n",
              "\n# arc lengths\n1.0 # m\n\n1.5\n"),
    "bearing-table": (
        lambda p: load_bearing_table(p).table.tolist(),
        "0 0 1 1 2 2\n" + TABLE_ROWS,
        "# table\n0 0 1 1 2 2 # header\n\n"
        + TABLE_ROWS.replace("\n", " # ray\n\n")),
}


@pytest.mark.parametrize("kind", list(COMMENTED_FILES))
def test_comments_and_blank_lines_are_skipped(tmp_path, kind):
    values, plain, commented = COMMENTED_FILES[kind]
    a, b = tmp_path / "plain.txt", tmp_path / "commented.txt"
    a.write_text(plain)
    b.write_text(commented)
    assert values(a) == values(b)


# write then load gives back every value bit for bit
FINITE = st.floats(allow_nan=False, allow_infinity=False)
INDEX = st.integers(-2**63, 2**63 - 1)
AS_INTEGER = st.sampled_from([int, np.int64])


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


@st.composite
def match_records(draw):
    starts = draw(st.lists(st.integers(-2**62, 2**62), min_size=1,
                           max_size=3, unique=True))
    records = []
    for t0 in sorted(starts):
        pixels = {}
        for cam in draw(st.lists(INDEX, min_size=1, max_size=2, unique=True)):
            quads = np.array(draw(st.lists(st.tuples(*[FINITE] * 4),
                                           min_size=1, max_size=3)))
            pixels[draw(AS_INTEGER)(cam)] = (quads[:, :2], quads[:, 2:])
        records.append(FramePairRecord(draw(AS_INTEGER)(t0),
                                       draw(AS_INTEGER)(draw(INDEX)), pixels))
    return records


class TestRoundTripProperties:
    @settings(max_examples=60, deadline=None)
    @given(match_records())
    def test_matches(self, tmp_path_factory, records):
        p = tmp_path_factory.mktemp("prop") / "matches.csv"
        write_matches(records, p)
        back = load_matches(p)
        assert [(r.t0, r.t1) for r in back] == \
            [(int(r.t0), int(r.t1)) for r in records]
        for a, b in zip(records, back):
            assert list(b.pixels) == sorted(int(cam) for cam in a.pixels)
            for cam, (px0, px1) in a.pixels.items():
                assert bits(b.pixels[cam][0]) == bits(px0)
                assert bits(b.pixels[cam][1]) == bits(px1)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(*[st.floats(-np.pi, np.pi)] * 3,
                              *[st.floats(-1e4, 1e4)] * 3), max_size=8))
    def test_trajectory(self, tmp_path_factory, steps):
        poses = [Pose.identity()]
        for yaw, pitch, roll, *t in steps:
            poses.append(poses[-1].compose(Pose(
                rotation_z(yaw) @ rotation_y(pitch) @ rotation_x(roll), t)))
        p = tmp_path_factory.mktemp("prop") / "trajectory.txt"
        write_trajectory(TrajectoryRecord(tuple(poses)), p)
        back = load_trajectory(p)
        assert [bits(pose.matrix34()) for pose in back.poses] == \
            [bits(pose.matrix34()) for pose in poses]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(FINITE, st.integers(-2**53, 2**53))))
    def test_scale(self, tmp_path_factory, values):
        p = tmp_path_factory.mktemp("prop") / "scale.txt"
        write_scale(values, p)
        assert bits(load_scale(p)) == bits([float(v) for v in values])


class TestScenarioFiles:
    def write_scenario(self, tmp_path, extra=""):
        (tmp_path / "rig.txt").write_text(RIG_TEXT)
        text = ("rig = rig.txt\n"
                "seed = 5\n"
                "scene.num_points = 120\n"
                "scene.depth_min = 4.0\n"
                "scene.depth_max = 30.0\n"
                "noise.pixel_sigma = 0.5\n"
                "noise.outlier_fraction = 0.1\n"
                "truth.yaw = 0.02\n"
                "truth.arc_length = 1.3\n"
                "truth.free = yaw, arc_length\n" + extra)
        p = tmp_path / "scenario.txt"
        p.write_text(text)
        return p

    def test_load(self, tmp_path):
        sc = load_scenario(self.write_scenario(tmp_path))
        assert sc.scene.num_points == 120
        assert sc.scene.depth_range == (4.0, 30.0)
        assert sc.scene.seed == 5
        assert sc.noise.pixel_sigma == 0.5
        assert sc.noise.seed == 6
        assert sc.truth.yaw == 0.02
        assert sc.truth.free == ("yaw", "arc_length")
        assert len(sc.rig.cameras) == 2
        assert sc.sequence is None

    def test_sequence_segments(self, tmp_path):
        p = self.write_scenario(tmp_path,
                                "sequence.segments = 100:0.0, 40:0.02\n")
        sc = load_scenario(p)
        assert sc.sequence.segments == ((100, 0.0), (40, 0.02))
        yaws = sc.sequence.yaw_per_frame()
        assert len(yaws) == 140 and yaws[0] == 0.0 and yaws[-1] == 0.02

    def test_missing_rig(self, tmp_path):
        p = tmp_path / "scenario.txt"
        p.write_text("seed = 1\n")
        with pytest.raises(ParseError):
            load_scenario(p)

    def test_bad_line(self, tmp_path):
        (tmp_path / "rig.txt").write_text(RIG_TEXT)
        p = tmp_path / "scenario.txt"
        p.write_text("rig = rig.txt\nthis is not key value\n")
        with pytest.raises(ParseError):
            load_scenario(p)

    @pytest.mark.parametrize("extra", ["truth.arc_length = nan\n",
                                       "sequence.segments = 3:0.0, 4:inf\n"])
    def test_non_finite_value_reports_line(self, tmp_path, extra):
        with pytest.raises(ParseError) as err:
            load_scenario(self.write_scenario(tmp_path, extra))
        assert err.value.line == 11

    @pytest.mark.parametrize("extra", [
        "truth.free = yaw,bogus\n", "truth.yaw = 4\n",
        "scene.num_points = 0\n", "scene.depth_min = -1\n",
        "scene.depth_max = 3.0\n", "noise.pixel_sigma = -1\n",
        "noise.outlier_fraction = 2\n", "noise.outlier_mode = foo\n",
        "seed = -1\n", "scene.seed = -2\n", "noise.seed = -1\n", "rig =\n",
        "sequence.segments = -3:0.1\n", "sequence.segments = 5:4.0\n",
        "sequence.segments = 3:0.0, 0:0.1\n"],
        ids=["free-unknown", "yaw-beyond-pi", "no-points",
             "depth-min-negative", "depth-max-below-min",
             "sigma-negative", "outlier-fraction-above-one",
             "outlier-mode-unknown", "seed-negative", "scene-seed-negative",
             "noise-seed-negative", "rig-empty", "segment-count-negative",
             "segment-yaw-beyond-pi", "segment-count-zero"])
    def test_out_of_range_value_reports_line(self, tmp_path, extra):
        with pytest.raises(ParseError) as err:
            load_scenario(self.write_scenario(tmp_path, extra))
        assert err.value.line == 11

    def test_depth_min_above_default_max_reports_line(self, tmp_path):
        (tmp_path / "rig.txt").write_text(RIG_TEXT)
        p = tmp_path / "scenario.txt"
        p.write_text("rig = rig.txt\nscene.depth_min = 50\n")
        with pytest.raises(ParseError) as err:
            load_scenario(p)
        assert err.value.line == 2


def test_sequence_profile_yaw_per_frame():
    profile = SequenceProfile(((2, 0.1), (3, -0.2)))
    assert profile.yaw_per_frame() == [0.1, 0.1, -0.2, -0.2, -0.2]


# Parser fuzzing: a valid file with one line corrupted must fail with a
# ParseError naming that line.
RIG_KEYS = ("id", "model", "intrinsics", "image_size", "extrinsic")
REQUIRED_KEYS = ("id", "model", "intrinsics", "extrinsic")
REPLACEMENTS = {"word": "oops", "nan": "nan", "inf": "-inf"}


SCENARIO_VALUES = {
    "rig": "rig.txt", "seed": "5", "scene.num_points": "120",
    "scene.depth_min": "4.0", "scene.depth_max": "30.0",
    "scene.lateral_spread": "8.0", "scene.seed": "3",
    "noise.pixel_sigma": "0.5", "noise.outlier_fraction": "0.1",
    "noise.outlier_mode": "wrong_association", "noise.seed": "4",
    "truth.yaw": "0.02", "truth.arc_length": "1.3", "truth.pitch": "0.01",
    "truth.roll": "-0.01", "truth.free": "yaw, arc_length",
    "sequence.segments": "3:0.0, 4:0.02"}


def rig_lines(cameras, order):
    """A valid pinhole rig file as (block, key, text) lines, keys in
    `order`, blank lines between blocks."""
    lines = []
    for c in range(cameras):
        extrinsic = forward_camera_extrinsic([2.0, c - 1.0, 0.5])
        values = {"id": str(c), "model": "pinhole",
                  "intrinsics": "700.0 710.0 640.0 480.0",
                  "image_size": "1280 960",
                  "extrinsic": " ".join(repr(float(v)) for v in
                                        extrinsic.matrix34().ravel())}
        if c:
            lines.append((c, None, ""))
        lines += [(c, key, f"{key} {values[key]}") for key in order]
    return lines


def corrupt(fields, first, kind, data, sep=" "):
    """The fields, joined by `sep`, with one value from index `first` on
    dropped or replaced."""
    fields = list(fields)
    i = data.draw(st.integers(first, len(fields) - 1))
    if kind == "drop":
        del fields[i]
    else:
        fields[i] = REPLACEMENTS[kind]
    return sep.join(fields)


class TestParserFuzz:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 3), st.permutations(RIG_KEYS), st.data())
    def test_rig_line_corruption(self, tmp_path_factory, cameras, order,
                                 data):
        path = tmp_path_factory.mktemp("fuzz") / "rig.txt"
        lines = rig_lines(cameras, order)
        path.write_text("\n".join(text for *_, text in lines) + "\n")
        assert len(load_rig(path).cameras) == cameras
        i = data.draw(st.sampled_from(
            [n for n, (_, key, _) in enumerate(lines) if key]))
        block, key, text = lines[i]
        kinds = ["drop"] + (list(REPLACEMENTS) if key != "model" else []) \
            + (["delete"] if key in REQUIRED_KEYS else [])
        kind = data.draw(st.sampled_from(kinds))
        if kind == "delete":
            del lines[i]
            # a missing pinhole intrinsics line is reported on the model
            # line, any other missing key on the block's first line
            expected = next(n for n, (b, k, _) in enumerate(lines, 1)
                            if b == block and k is not None
                            and (key != "intrinsics" or k == "model"))
        else:
            lines[i] = (block, key, corrupt(text.split(), 1, kind, data))
            expected = i + 1
        path.write_text("\n".join(text for *_, text in lines) + "\n")
        with pytest.raises(ParseError) as err:
            load_rig(path)
        assert err.value.line == expected

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 4), st.integers(2, 4), st.data())
    def test_bearing_table_line_corruption(self, tmp_path_factory, nu, nv,
                                           data):
        path = tmp_path_factory.mktemp("fuzz") / "table.txt"
        lines = [f"-16.0 -16.0 8.0 8.0 {nu} {nv}"] + [
            f"{0.01 * u!r} {0.01 * v!r} 1.0"
            for v in range(nv) for u in range(nu)]
        path.write_text("\n".join(lines) + "\n")
        assert load_bearing_table(path).table.shape == (nv, nu, 3)
        i = data.draw(st.integers(0, len(lines) - 1))
        kind = data.draw(st.sampled_from(["drop", *REPLACEMENTS]))
        lines[i] = corrupt(lines[i].split(), 0, kind, data)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            load_bearing_table(path)
        assert err.value.line == i + 1

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.data())
    def test_match_line_corruption(self, tmp_path_factory, pairs, per_camera,
                                   data):
        path = tmp_path_factory.mktemp("fuzz") / "matches.csv"
        lines = [",".join(MATCH_HEADER)] + [
            f"{t},{t + 1},{cam},{100.0 + k!r},{200.5 + t!r},"
            f"{101.25 + k!r},{199.0 - cam!r}"
            for t in range(pairs) for cam in (0, 1)
            for k in range(per_camera)]
        path.write_text("\n".join(lines) + "\n")
        assert len(load_matches(path)) == pairs
        i = data.draw(st.integers(0, len(lines) - 1))
        kind = data.draw(st.sampled_from(["drop", *REPLACEMENTS]))
        lines[i] = corrupt(lines[i].split(","), 0, kind, data, ",")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            load_matches(path)
        assert err.value.line == i + 1

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 5), st.data())
    def test_trajectory_line_corruption(self, tmp_path_factory, steps, data):
        path = tmp_path_factory.mktemp("fuzz") / "trajectory.txt"
        poses = [Pose.identity()]
        for k in range(steps):
            poses.append(poses[-1].compose(
                Pose(rotation_z(0.01 * k), [1.0, 0.002 * k, 0.0])))
        lines = [" ".join(repr(float(v)) for v in pose.matrix34().ravel())
                 for pose in poses]
        path.write_text("\n".join(lines) + "\n")
        assert len(load_trajectory(path)) == steps + 1
        i = data.draw(st.integers(0, len(lines) - 1))
        kind = data.draw(st.sampled_from(["drop", *REPLACEMENTS]))
        lines[i] = corrupt(lines[i].split(), 0, kind, data)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            load_trajectory(path)
        assert err.value.line == i + 1

    @settings(max_examples=80, deadline=None)
    @given(st.permutations(list(SCENARIO_VALUES)), st.data())
    def test_scenario_line_corruption(self, tmp_path_factory, keys, data):
        directory = tmp_path_factory.mktemp("fuzz")
        (directory / "rig.txt").write_text(RIG_TEXT)
        path = directory / "scenario.txt"
        lines = [f"{key} = {SCENARIO_VALUES[key]}" for key in keys]
        path.write_text("\n".join(lines) + "\n")
        assert load_scenario(path).sequence.segments == ((3, 0.0), (4, 0.02))
        i = data.draw(st.integers(0, len(lines) - 1))
        key = keys[i]
        # any other path names a file; dropping a free field leaves a
        # valid list
        kinds = {"rig": ["drop"], "truth.free": list(REPLACEMENTS)}.get(
            key, ["drop", *REPLACEMENTS])
        kind = data.draw(st.sampled_from(kinds))
        # values split at ':' and ',' into tokens (even indices) and
        # separators; a dropped token leaves its separators in place
        parts = re.split(r"(\s*[:,]\s*)", SCENARIO_VALUES[key])
        token = 2 * data.draw(st.integers(0, len(parts) // 2))
        parts[token] = REPLACEMENTS.get(kind, "")
        lines[i] = f"{key} = {''.join(parts)}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            load_scenario(path)
        assert err.value.line == i + 1
