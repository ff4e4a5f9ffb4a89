"""File formats: rig calibration, match CSV, KITTI-style trajectories,
per-frame scale files and declarative simulation scenarios. In every file
'#' starts a comment and blank lines are skipped; a malformed file is a
ParseError naming its line."""

from __future__ import annotations

import io
import os
import warnings
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .geometry import (ORTHONORMALITY_TOL, GenericCamera, PinholeCamera,
                       PinholeIntrinsics, Pose, check_image_size,
                       orthonormality_error)
from .manifold import CameraRig, MotionParams, RigCamera
from .simulate import NoiseSpec, SceneSpec

MATCH_HEADER = ["t0", "t1", "camera_id", "u0", "v0", "u1", "v1"]
MATCH_ROW = [("ids", np.int64, 3), ("pixels", float, 4)]
# load_matches parses blocks of about this many characters (~1600 lines), so
# its peak memory is one block's rows (~90 KB), not the whole file's
MATCH_BLOCK_CHARS = 1 << 17

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


def _on_line(path, line, make, *args):
    """make(*args), a ValueError from it being a ParseError on the line."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ParseError(path, line, str(exc))


def _reals(path, line, fields):
    """The fields as floats; ParseError naming the line on a field that
    is not a finite number."""
    values = _on_line(path, line, lambda: [float(v) for v in fields])
    if not np.isfinite(values).all():
        raise ParseError(path, line, "value is NaN or inf")
    return values


def _lines(fh, first_line=1):
    """(line number, text) of each line of the open file, the first being
    `first_line`, that has content once its '#' comment is stripped."""
    for lineno, line in enumerate(fh, first_line):
        text = line.split("#", 1)[0].strip()
        if text:
            yield lineno, text


def _line_at(fh, index):
    """The line number of the open file's content line `index` (from 0)."""
    fh.seek(0)
    return next(islice(_lines(fh), index, None))[0]


def _numbers(path, fh, row, skip=0, delimiter=None, first_line=1):
    """The open file's content lines after its first `skip` ones, which the
    caller has read, parsed by np.loadtxt into an array of the structured
    dtype `row`. Every value is finite; on any failure, ParseError naming
    the first bad line (the file's first is line `first_line`). np.loadtxt
    reads the handle itself first; where it fails (a bad value, no lines,
    or a whitespace-only line in a comma file), the content lines are
    parsed one by one as _lines strips them, up to the first bad one."""
    def parse(texts, comments=None):
        rows = np.loadtxt(texts, row, comments=comments, delimiter=delimiter,
                          ndmin=1)
        if not all(np.isfinite(rows[name]).all() for name in rows.dtype.names):
            raise ValueError("value is NaN or inf")
        return rows

    with warnings.catch_warnings():
        warnings.simplefilter("error")     # loadtxt warns on no lines
        try:
            return parse(fh, "#")
        except (ValueError, UserWarning):
            fh.seek(0)
    rows = [np.empty(0, row)]
    for lineno, text in islice(_lines(fh, first_line), skip, None):
        try:
            rows.append(parse([text]))
        except ValueError as exc:
            raise ParseError(path, lineno, str(exc).split(" at row")[0])
    return np.concatenate(rows)


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
    cx cy [skew], pinhole only), image_size (w h > 0, optional), table
    (path relative to the rig file, generic only), extrinsic (12 reals,
    row-major 3x4); id, model and table take one value. A key the block's
    model does not read, or one repeated in a block, is a ParseError on
    its line. Cameras naming one table file with one image_size share one
    GenericCamera."""
    blocks, last = [], None
    with open(path, encoding="utf-8") as fh:
        for lineno, text in _lines(fh):
            if lineno - 1 != last:      # a skipped line ends a block
                blocks.append({})
            last = lineno
            key, *values = text.split()
            if not values:
                raise ParseError(path, lineno, f"{key} needs a value")
            if len(values) > 1 and key in ("id", "model", "table"):
                raise ParseError(path, lineno, f"{key} takes one value")
            if key in blocks[-1]:
                raise ParseError(path, lineno, f"key {key!r} repeats line "
                                 f"{blocks[-1][key][0]}")
            blocks[-1][key] = (lineno, values)
    if not blocks:
        raise ParseError(path, 0, "rig file defines no cameras")
    cameras, tables = [], {}    # (table path, image_size) -> its camera
    for block in blocks:
        first = next(iter(block.values()))[0]
        try:        # each key is popped as read: what is left is unknown
            id_line, (cam_id,) = block.pop("id")
            model_line, (kind,) = block.pop("model")
            ext_line, ext_fields = block.pop("extrinsic")
            cam_id = int(cam_id)
        except KeyError as exc:
            raise ParseError(path, first, f"camera block missing key {exc}")
        except ValueError as exc:
            raise ParseError(path, id_line, f"bad camera id: {exc}")
        need = {"pinhole": "intrinsics", "generic": "table"}.get(kind)
        if need is None:
            raise ParseError(path, model_line,
                             f"unknown camera model {kind!r}")
        if need not in block:
            raise ParseError(path, model_line, f"{kind} camera needs {need!r}")
        need_line, need_fields = block.pop(need)
        size_line, size = block.pop("image_size", (None, None))
        for key, (lineno, _) in block.items():
            raise ParseError(path, lineno,
                             f"unknown key {key!r} for a {kind} camera")
        if any(cam.camera_id == cam_id for cam in cameras):
            raise ParseError(path, id_line, f"camera id {cam_id} repeats")
        ext_vals = _reals(path, ext_line, ext_fields)
        if len(ext_vals) != 12:
            raise ParseError(path, ext_line, "extrinsic needs 12 values")
        mat = np.array(ext_vals).reshape(3, 4)
        extrinsic = _on_line(path, ext_line, Pose, mat[:, :3], mat[:, 3])
        image_size = _on_line(path, size_line, check_image_size, size)
        if kind == "pinhole":
            vals = _reals(path, need_line, need_fields)
            if len(vals) not in (4, 5):
                raise ParseError(path, need_line,
                                 "intrinsics needs fx fy cx cy [skew]")
            intrinsics = _on_line(path, need_line, PinholeIntrinsics, *vals)
            model = PinholeCamera(intrinsics, image_size)
        else:
            key = (_beside(path, need_fields[0]), image_size)
            if key not in tables:
                tables[key] = load_bearing_table(*key)
            model = tables[key]
        cameras.append(RigCamera(cam_id, model, extrinsic))
    return CameraRig(tuple(cameras))


def write_rig(rig: CameraRig, path):
    rows = []
    for cam in rig.cameras:
        if not isinstance(cam.model, PinholeCamera):
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
    integers >= 2) then nu*nv rays (three reals per line, any non-zero
    length, such as a pinhole's z-normalized rays (K^-1 (u, v, 1))),
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
        zero = np.flatnonzero(~rays.any(axis=1))
        if len(zero):       # pixels near it would lift to 0/0 or bent rays
            raise ParseError(path, _line_at(fh, zero[0] + 1), "ray is zero")
    if len(rays) != nu * nv:
        raise ParseError(path, lineno, f"header declares {nu * nv} bearing "
                         f"rows, the file holds {len(rays)}")
    return GenericCamera(u0, v0, du, dv, rays.reshape(nv, nu, 3), image_size)


# -------------------------------------------------------------- match files

@dataclass(frozen=True, eq=False)
class FramePairRecord:
    """Pixel matches of one consecutive frame pair, keyed by camera id."""

    t0: int
    t1: int
    pixels: dict = field(default_factory=dict)  # camera_id -> (px0, px1)

    def match_count(self) -> int:
        return sum(len(p0) for p0, _ in self.pixels.values())


def _frame_pair(rows):
    t0, t1, cams = rows["ids"].T
    return FramePairRecord(int(t0[0]), int(t1[0]), {
        cam: tuple(np.hsplit(rows["pixels"][cams == cam], 2))
        for cam in dict.fromkeys(cams.tolist())})


def iter_matches(path):
    """The frame pair records of a match CSV (see load_matches), in order.
    The file is parsed in blocks of whole lines, and a pair is yielded once
    the next pair's first line or the end is parsed, so a caller that stops
    after pair k reads no block past the one that completes it."""
    with open(path, encoding="utf-8") as fh:
        lineno, text = next(_lines(fh), (1, ""))
        if [h.strip() for h in text.split(",")] != MATCH_HEADER:
            raise ParseError(path, lineno,
                             f"expected header {','.join(MATCH_HEADER)}")
        rows, done, line = np.empty(0, MATCH_ROW), 0, lineno + 1
        while block := fh.read(MATCH_BLOCK_CHARS) + fh.readline():
            rows = np.concatenate([rows, _numbers(
                path, io.StringIO(block), MATCH_ROW, delimiter=",",
                first_line=line)])
            line += block.count("\n")
            t0, t1, _ = rows["ids"].T
            starts = np.flatnonzero((t0[1:] != t0[:-1])
                                    | (t1[1:] != t1[:-1])) + 1
            back = starts[t0[starts] <= t0[starts - 1]]
            if back.size:
                i = back[0]
                raise ParseError(path, _line_at(fh, 1 + done + i),
                                 f"frame pair ({t0[i]}, {t1[i]}) after "
                                 f"({t0[i - 1]}, {t1[i - 1]}): t0 must "
                                 "increase")
            bounds = [0, *starts.tolist()]
            for a, b in zip(bounds, bounds[1:]):
                yield _frame_pair(rows[a:b])
            done, rows = done + bounds[-1], rows[bounds[-1]:]
        if not len(rows):
            raise ParseError(path, lineno, "no match lines after the header")
        yield _frame_pair(rows)


def load_matches(path):
    """Match CSV with header t0,t1,camera_id,u0,v0,u1,v1; one line per
    match. A frame pair's lines are contiguous, and pairs come in strictly
    increasing t0 order. Returns the list of frame pair records."""
    return list(iter_matches(path))


def write_matches(records, path):
    """One line per match, as _cell prints each value. A (frame pair,
    camera) block of n matches is one %-format of its 4 n floats, each
    printed by %r as repr prints it, behind the block's ids."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(MATCH_HEADER) + "\n")
        for rec in records:
            for cam in sorted(rec.pixels):
                quads = np.hstack(rec.pixels[cam], dtype=float)
                ids = ",".join(map(_cell, (rec.t0, rec.t1, cam)))
                fh.write((ids + ",%r,%r,%r,%r\n") * len(quads)
                         % tuple(quads.ravel().tolist()))


# --------------------------------------------------------- trajectory files

@dataclass(frozen=True)
class TrajectoryRecord:
    """F >= 1 poses as one stacked Pose, the first the identity."""

    poses: Pose

    def __post_init__(self):
        if self.poses.rotation.ndim != 3 or not len(self):
            raise ValueError("trajectory needs at least one pose, stacked: "
                             "rotation (F, 3, 3), translation (F, 3)")
        if not np.allclose(self.poses.matrix34()[0], np.eye(3, 4),  # [I|0]
                           rtol=0.0, atol=1e-12):
            raise ValueError("first trajectory pose must be identity")

    def __len__(self):
        return len(self.poses.rotation)


def write_trajectory(trajectory: TrajectoryRecord, path):
    """One line per frame: the 12 row-major values of [R|t], printed with
    shortest round-trip formatting."""
    _write_rows(path, trajectory.poses.matrix34().reshape(-1, 12).tolist())


def load_trajectory(path) -> TrajectoryRecord:
    """Rotations within ROTATION_PROJECTION_TOL of SO(3) are projected onto
    it; a pose that then breaks a rule is a ParseError on its line."""
    with open(path, encoding="utf-8") as fh:
        mat = _numbers(path, fh, [("pose", float, 12)])["pose"].reshape(
            -1, 3, 4)
        if not len(mat):
            raise ParseError(path, 0, "empty trajectory file")
        rot = mat[:, :, :3]
        error = orthonormality_error(rot)
        near = ((ORTHONORMALITY_TOL <= error) & (np.linalg.det(rot) > 0)
                & (error <= ROTATION_PROJECTION_TOL))
        u, _, vt = np.linalg.svd(rot[near])
        rot[near] = u @ vt
        try:
            return TrajectoryRecord(Pose(rot, mat[:, :, 3]))
        except ValueError as exc:
            # a PoseError names its pose; TrajectoryRecord checks the first
            raise ParseError(path, _line_at(fh, getattr(exc, "index", 0)),
                             str(exc))


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
    with a shared arc length per frame. ValueError unless there is a
    segment and every count is an int >= 1 and every |yaw| < pi."""

    segments: tuple   # ((count, yaw), ...)

    def __post_init__(self):
        if not (self.segments and all(
                isinstance(n, (int, np.integer)) and n >= 1
                and abs(g) < np.pi for n, g in self.segments)):
            raise ValueError("sequence.segments needs count >= 1 and "
                             "|yaw| < pi in every count:yaw")

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


def _segments(value):
    """`count:yaw, ...` -> ((count, yaw), ...); ValueError if malformed or
    a yaw is NaN or inf."""
    segments = tuple((int(count), float(yaw)) for count, yaw in
                     (item.split(":") for item in value.split(",")))
    if not np.isfinite([yaw for _, yaw in segments]).all():
        raise ValueError("value is NaN or inf")
    return segments


def load_scenario(path) -> Scenario:
    """Scenario file of `key = value` lines. Keys: rig (path, relative to
    the scenario file), seed, scene.*, noise.*, truth.*,
    sequence.segments. A value that does not parse or is out of range, or
    a key that is not one of these or repeats, is a ParseError on its
    line."""
    raw = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, text in _lines(fh):
            key, eq, val = (part.strip() for part in text.partition("="))
            if not eq:
                raise ParseError(path, lineno, "expected key = value")
            if key in raw:
                raise ParseError(path, lineno, f"key {key!r} repeats line "
                                 f"{raw[key][1]}")
            raw[key] = (val, lineno)
    unread = dict(raw)

    def take(key, default=None, cast=float, ok=None, need=""):
        if key not in raw:
            return default
        val, lineno = unread.pop(key)
        value = (_reals(path, lineno, [val])[0] if cast is float
                 else _on_line(path, lineno, cast, val))
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
        lateral_spread=take("scene.lateral_spread", 8.0, float,
                            lambda s: s >= 0, "must be >= 0"),
        seed=seed_at("scene.seed", seed))
    noise = NoiseSpec(
        pixel_sigma=take("noise.pixel_sigma", 0.0, float, lambda s: s >= 0,
                         "must be >= 0"),
        outlier_fraction=take("noise.outlier_fraction", 0.0, float,
                              lambda f: 0 <= f <= 1, "must lie in [0, 1]"),
        seed=seed_at("noise.seed", seed + 1))
    truth = MotionParams(
        yaw=take("truth.yaw", 0.0, float, lambda g: abs(g) < np.pi,
                 "must lie in (-pi, pi)"),
        arc_length=take("truth.arc_length", 1.0),
        pitch=take("truth.pitch", 0.0),
        roll=take("truth.roll", 0.0))
    sequence = take("sequence.segments", None,
                    lambda value: SequenceProfile(_segments(value)))
    rig_path = take("rig", None, str, bool, "needs a path")
    for key, (_, lineno) in unread.items():
        raise ParseError(path, lineno, f"unknown key {key!r}")
    if rig_path is None:
        raise ParseError(path, 0, "scenario needs a rig entry")
    return Scenario(scene, noise, truth, load_rig(_beside(path, rig_path)),
                    sequence)
