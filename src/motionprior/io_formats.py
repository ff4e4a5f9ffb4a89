"""File formats: rig calibration, match CSV, KITTI-style trajectories,
per-frame scale files and declarative simulation scenarios. In every file
'#' starts a comment and blank lines are skipped; a malformed file is a
ParseError naming its line."""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from itertools import chain, islice

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


def _lines(fh):
    """(line number, text) of each line of the open file that has content
    once its '#' comment is stripped."""
    for lineno, line in enumerate(fh, 1):
        text = line.split("#", 1)[0].strip()
        if text:
            yield lineno, text


def _line_at(fh, index):
    """The line number of the open file's content line `index` (from 0)."""
    fh.seek(0)
    return next(islice(_lines(fh), index, None))[0]


def _numbers(path, fh, row, skip=0, delimiter=None):
    """The open file's content lines after its first `skip` ones, which the
    caller has read, parsed by np.loadtxt into an array of the structured
    dtype `row`. Every value is finite; on any failure, ParseError naming
    the first bad line."""
    def parse(texts):
        rows = np.loadtxt(texts, row, comments=None, delimiter=delimiter,
                          ndmin=1)
        if not all(np.isfinite(rows[name]).all() for name in rows.dtype.names):
            raise ValueError("value is NaN or inf")
        return rows

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")     # loadtxt warns on no lines
            return parse(text for _, text in _lines(fh))
    except (ValueError, UserWarning):
        fh.seek(0)
    for lineno, text in islice(_lines(fh), skip, None):
        try:
            parse([text])
        except ValueError as exc:
            raise ParseError(path, lineno, str(exc).split(" at row")[0])
    return np.empty(0, row)


def _beside(path, other):
    """`other` resolved against the directory of the file `path`, unless
    it is absolute, and normalized."""
    return os.path.normpath(
        os.path.join(os.path.dirname(os.path.abspath(path)), other))


def _cell(x) -> str:
    """A string or an integer (Python or numpy) as it is, any other number
    as the shortest decimal that round-trips its float exactly."""
    return str(x) if isinstance(x, (str, int, np.integer)) else repr(float(x))


def _write_rows(path, rows, sep=" "):
    """One line per row, its cells joined by `sep`."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(sep.join(map(_cell, row)) + "\n")


# ---------------------------------------------------------------- rig files

def load_rig(path) -> CameraRig:
    """Rig file: one key-value block per camera, blocks separated by blank
    or comment lines. Keys: id, model (pinhole|generic), intrinsics (fx fy
    cx cy [skew]), image_size (w h, optional), table (path relative to the
    rig file, generic only), extrinsic (12 reals, row-major 3x4). Cameras
    naming one table file with one image_size share one GenericCamera."""
    blocks, last = [], None
    with open(path, encoding="utf-8") as fh:
        for lineno, text in _lines(fh):
            if lineno - 1 != last:      # a skipped line ends a block
                blocks.append({})
            last = lineno
            key, *values = text.split()
            if not values:
                raise ParseError(path, lineno, f"{key} needs a value")
            blocks[-1][key] = (lineno, values)
    if not blocks:
        raise ParseError(path, 0, "rig file defines no cameras")
    cameras, tables = [], {}    # (table path, image_size) -> its camera
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
        if any(cam.camera_id == cam_id for cam in cameras):
            raise ParseError(path, id_line, f"camera id {cam_id} repeats")
        ext_vals = _reals(path, ext_line, ext_fields)
        if len(ext_vals) != 12:
            raise ParseError(path, ext_line, "extrinsic needs 12 values")
        mat = np.array(ext_vals).reshape(3, 4)
        try:
            extrinsic = Pose(mat[:, :3], mat[:, 3])
        except ValueError as exc:
            raise ParseError(path, ext_line, str(exc))
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
            key = (_beside(path, block["table"][1][0]), image_size)
            if key not in tables:
                tables[key] = load_bearing_table(*key)
            model = tables[key]
        else:
            raise ParseError(path, model_line,
                             f"unknown camera model {kind!r}")
        cameras.append(RigCamera(cam_id, model, extrinsic))
    return CameraRig(tuple(cameras))


def write_rig(rig: CameraRig, path):
    rows = []
    for cam in rig.cameras:
        if cam.model.kind != "pinhole":
            raise ValueError("writing generic cameras is not supported")
        k, size = cam.model.intrinsics, cam.model.image_size
        rows += [[], ["id", cam.camera_id], ["model", "pinhole"],
                 ["intrinsics", *map(float, (k.fx, k.fy, k.cx, k.cy, k.skew))]]
        if size is not None:
            rows.append(["image_size", *map(float, size)])
        rows.append(["extrinsic", *cam.extrinsic.matrix34().ravel()])
    _write_rows(path, rows[1:])     # blank rows between blocks


def load_bearing_table(path, image_size=None) -> GenericCamera:
    """Bearing table: header `u0 v0 du dv nu nv` (du, dv > 0; nu, nv
    integers >= 2) then nu*nv unit bearings (three reals per line),
    row-major over v then u."""
    with open(path, encoding="utf-8") as fh:
        lineno, text = next(_lines(fh), (1, ""))
        header = text.split()
        if len(header) != 6:
            raise ParseError(path, lineno, "header needs u0 v0 du dv nu nv")
        u0, v0, du, dv = _reals(path, lineno, header[:4])
        try:
            nu, nv = int(header[4]), int(header[5])
        except ValueError as exc:
            raise ParseError(path, lineno, f"bad table size: {exc}")
        if not (du > 0 and dv > 0 and nu >= 2 and nv >= 2):
            raise ParseError(path, lineno,
                             "header needs du, dv > 0, nu, nv >= 2")
        rays = _numbers(path, fh, [("ray", float, 3)], skip=1)["ray"]
    if len(rays) != nu * nv:
        raise ParseError(path, lineno, f"header declares {nu * nv} bearing "
                         f"rows, the file holds {len(rays)}")
    return GenericCamera(u0, v0, du, dv, rays.reshape(nv, nu, 3), image_size)


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
    match. A frame pair's lines are contiguous, and pairs come in strictly
    increasing t0 order."""
    with open(path, encoding="utf-8") as fh:
        lineno, text = next(_lines(fh), (1, ""))
        if [h.strip() for h in text.split(",")] != MATCH_HEADER:
            raise ParseError(path, lineno,
                             f"expected header {','.join(MATCH_HEADER)}")
        rows = _numbers(path, fh, [("ids", np.int64, 3), ("pixels", float, 4)],
                        skip=1, delimiter=",")
        if not len(rows):
            raise ParseError(path, lineno, "no match lines after the header")
        t0, t1, cams = rows["ids"].T
        starts = np.flatnonzero((t0[1:] != t0[:-1]) | (t1[1:] != t1[:-1])) + 1
        back = starts[t0[starts] <= t0[starts - 1]]
        if back.size:
            i = back[0]
            raise ParseError(path, _line_at(fh, 1 + i),
                             f"frame pair ({t0[i]}, {t1[i]}) after "
                             f"({t0[i - 1]}, {t1[i - 1]}): t0 must increase")
    quads = rows["pixels"]
    return [FramePairRecord(int(t0[a]), int(t1[a]), {
        cam: tuple(np.hsplit(quads[a:b][cams[a:b] == cam], 2))
        for cam in dict.fromkeys(cams[a:b].tolist())})
        for a, b in zip([0, *starts], [*starts, len(rows)])]


def write_matches(records, path):
    _write_rows(path, chain([MATCH_HEADER], (
        (rec.t0, rec.t1, cam, *quad) for rec in records
        for cam in sorted(rec.pixels)
        for quad in np.hstack(rec.pixels[cam], dtype=float).tolist())), ",")


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
    _write_rows(path, (pose.matrix34().ravel().tolist()
                       for pose in trajectory.poses))


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
    with open(path, encoding="utf-8") as fh:
        poses = []
        for i, mat in enumerate(
                _numbers(path, fh, [("pose", float, 12)])["pose"]
                .reshape(-1, 3, 4)):
            try:
                poses.append(Pose(_rotation_on_load(mat[:, :3]), mat[:, 3]))
            except ValueError as exc:
                raise ParseError(path, _line_at(fh, i), str(exc))
    if not poses:
        raise ParseError(path, 0, "empty trajectory file")
    return TrajectoryRecord(tuple(poses))


def load_scale(path):
    """Per-frame-pair arc lengths, one real per line."""
    with open(path, encoding="utf-8") as fh:
        return _numbers(path, fh, [("arc", float)])["arc"].tolist()


def write_scale(values, path):
    _write_rows(path, ([float(v)] for v in values))


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
        for lineno, text in _lines(fh):
            key, eq, val = text.partition("=")
            if not eq:
                raise ParseError(path, lineno, "expected key = value")
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
