"""File formats: rig calibration, match CSV, KITTI-style trajectories,
per-frame scale files and declarative simulation scenarios."""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from .geometry import (ORTHONORMALITY_TOL, GenericCamera, PinholeCamera,
                       PinholeIntrinsics, Pose)
from .manifold import PARAM_FIELDS, CameraRig, MotionParams, RigCamera
from .simulate import OUTLIER_MODES, NoiseSpec, SceneSpec

MATCH_HEADER = ["t0", "t1", "camera_id", "u0", "v0", "u1", "v1"]

# Trajectory rotations with max|R^T R - I| in [ORTHONORMALITY_TOL, this]
# are projected onto SO(3) on load: KITTI's %e poses (7 significant
# digits) miss by a few 1e-7
ROTATION_PROJECTION_TOL = 1e-5


class ParseError(Exception):
    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")
        self.path, self.line = path, line


class CalibrationInvalid(Exception):
    pass


class NonMonotoneFrames(Exception):
    pass


class NoRecords(Exception):
    pass


def _reals(path, line, fields):
    """The fields as floats; ParseError naming the line on a field that
    is not a finite number."""
    try:
        values = [float(v) for v in fields]
    except ValueError as exc:
        raise ParseError(path, line, str(exc))
    if not np.isfinite(values).all():
        raise ParseError(path, line, "value is NaN or inf")
    return values


def _beside(path, other):
    """`other` resolved against the directory of the file `path`, unless
    it is absolute."""
    return os.path.join(os.path.dirname(os.path.abspath(path)), other)


def _fmt(x: float) -> str:
    """Shortest decimal that round-trips the float exactly."""
    return repr(float(x))


# ---------------------------------------------------------------- rig files

def load_rig(path) -> CameraRig:
    """Rig file: one key-value block per camera, blocks separated by blank
    lines. Keys: id, model (pinhole|generic), intrinsics (fx fy cx cy
    [skew]), image_size (w h, optional), table (path relative to the rig
    file, generic only), extrinsic (12 reals, row-major 3x4)."""
    blocks = [{}]
    with open(path, encoding="utf-8") as fh:
        for lineno, rawline in enumerate(fh, 1):
            line = rawline.split("#", 1)[0].strip()
            if not line:
                if blocks[-1]:
                    blocks.append({})
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ParseError(path, lineno, f"{parts[0]} needs a value")
            blocks[-1][parts[0]] = (lineno, parts[1:])
    blocks = [b for b in blocks if b]
    if not blocks:
        raise ParseError(path, 0, "rig file defines no cameras")
    cameras = []
    for block in blocks:
        try:
            id_line, (cam_id, *_) = block["id"]
            model_line, (kind, *_) = block["model"]
            ext_line, ext_fields = block["extrinsic"]
            cam_id = int(cam_id)
        except KeyError as exc:
            first = min(lineno for lineno, _ in block.values())
            raise ParseError(path, first, f"camera block missing key {exc}")
        except ValueError as exc:
            raise ParseError(path, id_line, f"bad camera id: {exc}")
        ext_vals = _reals(path, ext_line, ext_fields)
        if len(ext_vals) != 12:
            raise ParseError(path, ext_line, "extrinsic needs 12 values")
        mat = np.array(ext_vals).reshape(3, 4)
        try:
            extrinsic = Pose(mat[:, :3], mat[:, 3])
        except ValueError as exc:
            raise CalibrationInvalid(str(exc))
        image_size = None
        if "image_size" in block:
            image_size = tuple(_reals(path, *block["image_size"]))
            if len(image_size) != 2:
                raise ParseError(path, block["image_size"][0],
                                 "image_size needs w h")
        if kind == "pinhole":
            if "intrinsics" not in block:
                raise ParseError(path, model_line,
                                 "pinhole camera needs an intrinsics line")
            k_line, k_fields = block["intrinsics"]
            vals = _reals(path, k_line, k_fields)
            if len(vals) not in (4, 5):
                raise ParseError(path, k_line,
                                 "intrinsics needs fx fy cx cy [skew]")
            try:
                intrinsics = PinholeIntrinsics(*vals)
            except ValueError as exc:
                raise ParseError(path, k_line, str(exc))
            model = PinholeCamera(intrinsics, image_size)
        elif kind == "generic":
            if "table" not in block:
                raise ParseError(path, model_line,
                                 "generic camera needs a table line")
            model = load_bearing_table(_beside(path, block["table"][1][0]),
                                       image_size)
        else:
            raise ParseError(path, model_line,
                             f"unknown camera model {kind!r}")
        cameras.append(RigCamera(cam_id, model, extrinsic))
    try:
        return CameraRig(tuple(cameras))
    except ValueError as exc:
        raise CalibrationInvalid(str(exc))


def write_rig(rig: CameraRig, path):
    lines = []
    for cam in rig.cameras:
        lines.append(f"id {cam.camera_id}")
        lines.append(f"model {cam.model.kind}")
        if cam.model.kind == "pinhole":
            k = cam.model.intrinsics
            lines.append("intrinsics " + " ".join(
                _fmt(v) for v in (k.fx, k.fy, k.cx, k.cy, k.skew)))
        else:
            raise ValueError("writing generic cameras is not supported")
        if cam.model.image_size is not None:
            lines.append("image_size " + " ".join(
                _fmt(v) for v in cam.model.image_size))
        lines.append("extrinsic " + " ".join(
            _fmt(v) for v in cam.extrinsic.matrix34().ravel()))
        lines.append("")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def load_bearing_table(path, image_size=None) -> GenericCamera:
    """Bearing table: header `u0 v0 du dv nu nv` (du, dv > 0; nu, nv
    integers >= 2) then nu*nv unit bearings (three reals per line),
    row-major over v then u."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 6:
            raise ParseError(path, 1, "header needs u0 v0 du dv nu nv")
        u0, v0, du, dv = _reals(path, 1, header[:4])
        try:
            nu, nv = int(header[4]), int(header[5])
        except ValueError as exc:
            raise ParseError(path, 1, f"bad table size: {exc}")
        if not (du > 0 and dv > 0 and nu >= 2 and nv >= 2):
            raise ParseError(path, 1, "header needs du, dv > 0, nu, nv >= 2")
        try:
            data = np.loadtxt(fh, ndmin=2)
        except ValueError:
            data = None
    if data is None or data.shape[1:] != (3,) or not np.isfinite(data).all():
        data = _table_rows(path)
    if len(data) != nu * nv:
        raise ParseError(path, 2, f"expected {nu * nv} bearing rows")
    return GenericCamera(u0, v0, du, dv, data.reshape(nv, nu, 3), image_size)


def _table_rows(path):
    """A bearing table's rows parsed line by line, the slow path that
    names the first line that is not three finite reals."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            fields = line.split("#", 1)[0].split()
            if lineno > 1 and fields:
                if len(fields) != 3:
                    raise ParseError(path, lineno, "bearing needs 3 values")
                rows.append(_reals(path, lineno, fields))
    return np.array(rows).reshape(-1, 3)


# -------------------------------------------------------------- match files

@dataclass(frozen=True)
class FramePairRecord:
    """Pixel matches of one consecutive frame pair, keyed by camera id."""

    t0: int
    t1: int
    pixels: dict = field(default_factory=dict)  # camera_id -> (px0, px1)

    def match_count(self) -> int:
        return sum(len(p0) for p0, _ in self.pixels.values())


def load_matches(path):
    """Match CSV with header t0,t1,camera_id,u0,v0,u1,v1; one line per
    match, records grouped by (t0, t1) in strictly increasing t0 order."""
    rows = {}     # (t0, t1) -> camera_id -> quads, in order of appearance
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != MATCH_HEADER:
            raise ParseError(path, 1, f"expected header {','.join(MATCH_HEADER)}")
        for lineno, row in enumerate(reader, 2):
            if not row:
                continue
            if len(row) != 7:
                raise ParseError(path, lineno, "expected 7 fields")
            try:
                t0, t1, cam = int(row[0]), int(row[1]), int(row[2])
                u0, v0, u1, v1 = map(float, row[3:])
            except ValueError as exc:
                raise ParseError(path, lineno, str(exc))
            rows.setdefault((t0, t1), {}).setdefault(cam, []).append(
                (u0, v0, u1, v1))
    records = []
    last_t0 = None
    for t0, t1 in rows:
        if last_t0 is not None and t0 <= last_t0:
            raise NonMonotoneFrames(
                f"frame index {t0} does not increase past {last_t0}")
        last_t0 = t0
        pixels = {}
        for cam, quads in rows[(t0, t1)].items():
            arr = np.array(quads)
            if not np.isfinite(arr).all():
                # rare: parse again row by row to name the first such line
                with open(path, newline="", encoding="utf-8") as fh:
                    for lineno, row in enumerate(list(csv.reader(fh))[1:], 2):
                        _reals(path, lineno, row[3:])
            pixels[cam] = (arr[:, :2], arr[:, 2:])
        records.append(FramePairRecord(t0, t1, pixels))
    return records


def write_matches(records, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MATCH_HEADER)
        for rec in records:
            for cam in sorted(rec.pixels):
                px0, px1 = rec.pixels[cam]
                for (u0, v0), (u1, v1) in zip(px0, px1):
                    writer.writerow([rec.t0, rec.t1, cam, _fmt(u0), _fmt(v0),
                                     _fmt(u1), _fmt(v1)])


# --------------------------------------------------------- trajectory files

@dataclass(frozen=True)
class TrajectoryRecord:
    poses: tuple

    def __post_init__(self):
        poses = tuple(self.poses)
        if not poses:
            raise ValueError("trajectory needs at least one pose")
        if not poses[0].isclose(Pose.identity(), atol=1e-12):
            raise ValueError("first trajectory pose must be identity")
        object.__setattr__(self, "poses", poses)

    def __len__(self):
        return len(self.poses)


def write_trajectory(trajectory: TrajectoryRecord, path):
    """One line per frame: the 12 row-major values of [R|t], printed with
    shortest round-trip formatting."""
    with open(path, "w", encoding="utf-8") as fh:
        for pose in trajectory.poses:
            fh.write(" ".join(_fmt(v) for v in pose.matrix34().ravel()))
            fh.write("\n")


def _rotation_on_load(rot: np.ndarray) -> np.ndarray:
    """A read rotation, projected onto SO(3) by SVD when det > 0 and its
    orthonormality error lies in [ORTHONORMALITY_TOL,
    ROTATION_PROJECTION_TOL]; otherwise as read, for Pose to check."""
    error = np.abs(rot.T @ rot - np.eye(3)).max()
    if ORTHONORMALITY_TOL <= error <= ROTATION_PROJECTION_TOL and \
            np.linalg.det(rot) > 0:
        u, _, vt = np.linalg.svd(rot)
        return u @ vt
    return rot


def load_trajectory(path) -> TrajectoryRecord:
    poses = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            vals = line.split()
            if len(vals) != 12:
                raise ParseError(path, lineno, "expected 12 values per line")
            mat = np.array(_reals(path, lineno, vals)).reshape(3, 4)
            try:
                poses.append(Pose(_rotation_on_load(mat[:, :3]), mat[:, 3]))
            except ValueError as exc:
                raise ParseError(path, lineno, str(exc))
    if not poses:
        raise ParseError(path, 0, "empty trajectory file")
    return TrajectoryRecord(tuple(poses))


def load_scale(path):
    """Per-frame-pair arc lengths, one real per line."""
    values = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip():
                values.extend(_reals(path, lineno, [line]))
    return values


def write_scale(values, path):
    with open(path, "w", encoding="utf-8") as fh:
        for v in values:
            fh.write(_fmt(v) + "\n")


# ------------------------------------------------------------ scenario files

@dataclass(frozen=True)
class SequenceProfile:
    """Per-frame truth for a simulated drive: (frame_count, yaw) segments
    with a shared arc length per frame."""

    segments: tuple   # ((count, yaw), ...)

    def yaw_per_frame(self):
        out = []
        for count, yaw in self.segments:
            out.extend([yaw] * count)
        return out


@dataclass(frozen=True)
class Scenario:
    scene: SceneSpec
    noise: NoiseSpec
    truth: MotionParams
    rig: CameraRig
    sequence: SequenceProfile | None = None


def parse_keyvalues(path):
    """`key = value` lines ('#' starts a comment) -> {key: (value, line)}."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, rawline in enumerate(fh, 1):
            line = rawline.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(path, lineno, "expected key = value")
            key, _, val = line.partition("=")
            values[key.strip()] = (val.strip(), lineno)
    return values


def _segments(value):
    """`count:yaw, ...` -> ((count, yaw), ...); ValueError if malformed."""
    return tuple((int(count), float(yaw)) for count, yaw in
                 (item.split(":") for item in value.split(",")))


def load_scenario(path) -> Scenario:
    """Scenario key-value file. Keys: rig (path, relative to the scenario
    file), seed, scene.*, noise.*, truth.*, sequence.segments. A value
    that does not parse or is out of range is a ParseError on its line."""
    raw = parse_keyvalues(path)

    def take(key, default=None, cast=float, ok=None, need=""):
        if key not in raw:
            return default
        val, lineno = raw[key]
        try:
            value = (_reals(path, lineno, [val])[0] if cast is float
                     else cast(val))
        except ValueError as exc:
            raise ParseError(path, lineno, str(exc))
        if ok is not None and not ok(value):
            raise ParseError(path, lineno, f"{key} {need}")
        return value

    def seed_at(key, default):
        return take(key, default, int, lambda v: v >= 0, "must be >= 0")

    seed = seed_at("seed", 0)
    depth_min = take("scene.depth_min", 5.0, float, lambda d: d > 0,
                     "must be > 0")
    depth_max = take("scene.depth_max", 40.0, float,
                     lambda d: d >= depth_min, "must be >= scene.depth_min")
    if depth_max < depth_min:       # only with the default depth_max
        raise ParseError(path, raw["scene.depth_min"][1],
                         f"scene.depth_min must be <= {depth_max}")
    scene = SceneSpec(
        num_points=take("scene.num_points", 200, int, lambda n: n >= 1,
                        "must be >= 1"),
        depth_range=(depth_min, depth_max),
        lateral_spread=take("scene.lateral_spread", 8.0),
        seed=seed_at("scene.seed", seed))
    noise = NoiseSpec(
        pixel_sigma=take("noise.pixel_sigma", 0.0, float, lambda s: s >= 0,
                         "must be >= 0"),
        outlier_fraction=take("noise.outlier_fraction", 0.0, float,
                              lambda f: 0 <= f <= 1, "must lie in [0, 1]"),
        outlier_mode=take("noise.outlier_mode", "uniform_image", str,
                          lambda m: m in OUTLIER_MODES,
                          f"must be one of {', '.join(OUTLIER_MODES)}"),
        seed=seed_at("noise.seed", seed + 1))
    truth = MotionParams(
        yaw=take("truth.yaw", 0.0, float, lambda g: abs(g) < np.pi,
                 "must lie in (-pi, pi)"),
        arc_length=take("truth.arc_length", 1.0),
        pitch=take("truth.pitch", 0.0),
        roll=take("truth.roll", 0.0),
        free=take("truth.free", ("yaw",),
                  lambda v: tuple(f.strip() for f in v.split(",")
                                  if f.strip()),
                  lambda free: set(free) <= set(PARAM_FIELDS),
                  f"fields must be among {', '.join(PARAM_FIELDS)}"))
    rig_path = take("rig", None, str, bool, "needs a path")
    if rig_path is None:
        raise ParseError(path, 0, "scenario needs a rig entry")
    rig = load_rig(_beside(path, rig_path))
    segments = take("sequence.segments", None, _segments,
                    lambda segs: all(n >= 1 and abs(g) < np.pi
                                     for n, g in segs),
                    "needs count >= 1 and |yaw| < pi in every count:yaw")
    sequence = None if segments is None else SequenceProfile(segments)
    return Scenario(scene, noise, truth, rig, sequence)
