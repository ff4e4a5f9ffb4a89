import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionprior.geometry import (DegenerateTranslation, GenericCamera,
                                  OutOfDomain, PinholeCamera,
                                  PinholeIntrinsics, Pose, PoseError,
                                  forward_camera_extrinsic, rotation_x,
                                  rotation_y, rotation_z, skew)
from motionprior.manifold import RigCamera
from oracles import (apply, compose, essential_from_motion,
                     fundamental_from_essential, identity, inverse, isclose,
                     project, stacked, tabulate)


def random_pose(rng):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(-np.pi, np.pi)
    K = skew(axis)
    R = np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * K @ K
    return Pose(R, rng.normal(size=3))


angles = st.floats(-np.pi, np.pi)
vectors = st.tuples(*[st.floats(-10.0, 10.0)] * 3).map(np.array)
poses = st.builds(
    lambda yaw, pitch, roll, t: Pose(
        rotation_z(yaw) @ rotation_y(pitch) @ rotation_x(roll), t),
    angles, angles, angles, vectors)


def counted_pose_checks(monkeypatch) -> list:
    """Wrap Pose.__post_init__ for the test: the list it returns gains one
    entry, the number of poses checked, per Pose built."""
    checks, check = [], Pose.__post_init__

    def counted(pose):
        check(pose)
        checks.append(len(np.reshape(pose.translation, (-1, 3))))
    monkeypatch.setattr(Pose, "__post_init__", counted)
    return checks


class TestPose:
    @settings(max_examples=100, deadline=None)
    @given(poses, poses, poses, vectors)
    def test_group_laws(self, a, b, c, point):
        one = identity()
        assert isclose(compose(compose(a, b), c), compose(a, compose(b, c)),
                       atol=1e-12)
        assert isclose(compose(a, one), a, atol=1e-12)
        assert isclose(compose(one, a), a, atol=1e-12)
        assert isclose(compose(a, inverse(a)), one, atol=1e-12)
        assert np.allclose(apply(compose(a, b), point),
                           apply(a, apply(b, point)), rtol=0.0, atol=1e-12)

    def test_identity_compose(self):
        rng = np.random.Generator(np.random.PCG64(1))
        p = random_pose(rng)
        assert isclose(compose(identity(), p), p)
        assert isclose(compose(p, identity()), p)

    def test_compose_inverse_is_identity(self):
        rng = np.random.Generator(np.random.PCG64(2))
        for _ in range(50):
            p = random_pose(rng)
            assert isclose(compose(p, inverse(p)), identity(), atol=1e-12)

    def test_rotation_group(self):
        quarter = Pose(rotation_z(np.pi / 2), np.zeros(3))
        half = compose(quarter, quarter)
        assert isclose(half, Pose(rotation_z(np.pi), np.zeros(3)), atol=1e-15)

    def test_inverse_examples(self):
        assert isclose(inverse(identity()), identity())
        p = Pose(np.eye(3), [1, 2, 3])
        assert np.allclose(inverse(p).translation, [-1, -2, -3])

    def test_inverse_involution(self):
        rng = np.random.Generator(np.random.PCG64(3))
        p = random_pose(rng)
        assert isclose(inverse(inverse(p)), p, atol=1e-12)

    def test_compose_applies_right_first(self):
        rng = np.random.Generator(np.random.PCG64(4))
        a, b = random_pose(rng), random_pose(rng)
        point = rng.normal(size=3)
        assert np.allclose(apply(compose(a, b), point),
                           apply(a, apply(b, point)))

    def test_compares_and_hashes_by_identity(self):
        a, b = identity(), identity()
        assert a == a and a != b
        assert a in [b, a] and b not in [a]
        assert hash(a) == hash(a)
        assert {a: 1}[a] == 1 and len({a, b}) == 2
        # a RigCamera holds a Pose: equal ones built apart compare False
        cam = PinholeCamera(PinholeIntrinsics(700.0, 700.0, 640.0, 480.0))
        first, second = (RigCamera(0, cam, forward_camera_extrinsic(
            [2.0, 0.0, 1.0])) for _ in range(2))
        assert first == first
        assert (first == second) is False

    @pytest.mark.parametrize("rotation, translation", [
        (np.where(np.eye(3) == 1, np.nan, 0.0), np.zeros(3)),
        (np.eye(3), [0.0, np.nan, 0.0]),
        (np.eye(3), [np.inf, 0.0, 0.0]),
    ])
    def test_rejects_non_finite(self, rotation, translation):
        with pytest.raises(ValueError, match="NaN or inf"):
            Pose(rotation, translation)

    def test_rejects_bad_rotation(self):
        with pytest.raises(ValueError):
            Pose(np.eye(3) * 1.001, np.zeros(3))
        with pytest.raises(ValueError):
            Pose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))


stacks = st.lists(poses, min_size=1, max_size=6)

BAD_POSES = [
    (np.where(np.eye(3) == 1, np.nan, 0.0), np.zeros(3),
     "pose holds NaN or inf"),
    (np.eye(3), [0.0, np.inf, 0.0], "pose holds NaN or inf"),
    (np.eye(3) * 1.001, np.zeros(3), "rotation is not orthonormal"),
    (np.diag([1.0, 1.0, -1.0]), np.zeros(3),
     "rotation determinant is not +1"),
]


class TestPoseStack:
    @settings(max_examples=100, deadline=None)
    @given(stacks)
    def test_each_pose_as_if_alone_bitwise(self, singles):
        matrices = stacked(singles).matrix34()
        assert matrices.shape == (len(singles), 3, 4)
        for k, pose in enumerate(singles):
            assert matrices[k].tobytes() == pose.matrix34().tobytes()

    @pytest.mark.parametrize("rotation, translation, message", BAD_POSES)
    @pytest.mark.parametrize("index", [0, 2, 4])
    def test_bad_pose_is_named_by_its_index(self, rotation, translation,
                                            message, index):
        with pytest.raises(PoseError, match=re.escape(message)) as single:
            Pose(rotation, translation)
        assert single.value.index == 0
        rotations = np.tile(np.eye(3), (5, 1, 1))
        translations = np.zeros((5, 3))
        rotations[index], translations[index] = rotation, translation
        with pytest.raises(PoseError) as err:
            Pose(rotations, translations)
        assert str(err.value) == str(single.value)
        assert err.value.index == index

    def test_first_bad_pose_with_its_first_broken_rule(self):
        rotations = np.tile(np.eye(3), (4, 1, 1))
        translations = np.zeros((4, 3))
        rotations[1] = np.diag([1.0, 1.0, -1.0])
        rotations[2] *= 1.001
        translations[3, 0] = np.nan
        with pytest.raises(PoseError, match="determinant is not") as err:
            Pose(rotations, translations)
        assert err.value.index == 1
        rotations[1] *= 1.001           # breaks both matrix rules
        with pytest.raises(PoseError, match="not orthonormal") as err:
            Pose(rotations, translations)
        assert err.value.index == 1

    @pytest.mark.parametrize("rotation, translation", [
        (np.eye(3).ravel(), np.zeros(3)),
        (np.eye(3), np.zeros((3, 1))),
        (np.eye(3)[:, :2], np.zeros(3)),
        (np.tile(np.eye(3), (2, 2, 1, 1)), np.zeros((2, 2, 3))),
        (np.tile(np.eye(3), (3, 1, 1)), np.zeros(3)),
        (np.tile(np.eye(3), (3, 1, 1)), np.zeros((2, 3))),
        (np.eye(3), np.zeros((1, 3))),
    ], ids=["flat", "column", "3x2", "4-d", "stack-one-t", "stack-short-t",
            "one-stacked-t"])
    def test_other_shapes_rejected(self, rotation, translation):
        with pytest.raises(ValueError, match="are not"):
            Pose(rotation, translation)

    def test_stack_is_read_only(self):
        pose = stacked([identity()] * 2)
        assert pose.rotation.shape == (2, 3, 3)
        assert not pose.rotation.flags.writeable
        assert not pose.translation.flags.writeable


class TestSkew:
    def test_cross_product_definition(self):
        expected = np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float)
        assert np.array_equal(skew([1, 0, 0]), expected)
        assert np.array_equal(skew([0, 0, 0]), np.zeros((3, 3)))

    def test_matches_cross(self):
        rng = np.random.Generator(np.random.PCG64(5))
        t, v = rng.normal(size=3), rng.normal(size=3)
        assert np.allclose(skew(t) @ v, np.cross(t, v))
        assert np.array_equal(skew(t).T, -skew(t))
        assert np.allclose(skew(t) @ t, 0.0)


class TestEssential:
    def test_identity_rotation(self):
        m = Pose(np.eye(3), [1, 0, 0])
        assert np.array_equal(essential_from_motion(m), skew([1, 0, 0]))

    def test_degenerate_translation(self):
        with pytest.raises(DegenerateTranslation):
            essential_from_motion(Pose(np.eye(3), np.zeros(3)))

    def test_epipolar_constraint_noise_free(self):
        # oracle: raw projection pipeline, no camera model involved
        rng = np.random.Generator(np.random.PCG64(6))
        worst = 0.0
        for _ in range(20):
            m = random_pose(rng)
            scale = rng.uniform(0.1, 10.0)
            m = Pose(m.rotation, m.translation / np.linalg.norm(m.translation)
                     * scale)
            points = rng.uniform(-10, 10, size=(50, 3)) + [0, 0, 20]
            b0 = points / np.linalg.norm(points, axis=1, keepdims=True)
            moved = apply(m, points)
            b1 = moved / np.linalg.norm(moved, axis=1, keepdims=True)
            e = essential_from_motion(m)
            worst = max(worst, np.abs(np.einsum("ij,jk,ik->i", b1, e, b0)).max())
        assert worst < 1e-10

    def test_rank_and_singular_values(self):
        rng = np.random.Generator(np.random.PCG64(7))
        for _ in range(50):
            m = random_pose(rng)
            s = np.linalg.svd(essential_from_motion(m), compute_uv=False)
            assert s[2] < 1e-9 * s[0]
            assert abs(s[0] - s[1]) < 1e-9 * s[0]


class TestFundamental:
    def test_identity_intrinsics(self):
        e = skew([1.0, 2.0, 3.0]) @ rotation_z(0.3)
        k = PinholeIntrinsics(1.0, 1.0, 0.0, 0.0)
        assert np.allclose(fundamental_from_essential(e, k, k), e)

    def test_diagonal_intrinsics_elementwise(self):
        e = skew([1.0, 0.0, 0.0])
        k = PinholeIntrinsics(100.0, 100.0, 0.0, 0.0)
        d = np.diag([0.01, 0.01, 1.0])
        assert np.allclose(fundamental_from_essential(e, k, k), d.T @ e @ d)

    def test_pixel_constraint_from_projection(self):
        k = PinholeIntrinsics(700.0, 700.0, 640.0, 480.0)
        cam = PinholeCamera(k)
        rng = np.random.Generator(np.random.PCG64(8))
        m = Pose(rotation_z(0.05), [0.2, 0.0, 1.0])
        points = rng.uniform(-5, 5, size=(100, 3)) + [0, 0, 20]
        px0 = project(cam, points)
        px1 = project(cam, apply(m, points))
        f = fundamental_from_essential(essential_from_motion(m), k, k)
        h0 = np.hstack([px0, np.ones((100, 1))])
        h1 = np.hstack([px1, np.ones((100, 1))])
        assert np.abs(np.einsum("ij,jk,ik->i", h1, f, h0)).max() < 1e-8


class TestPinholeCamera:
    @pytest.mark.parametrize("field, value", [
        ("fx", np.inf), ("fy", np.nan), ("cx", np.nan), ("cy", -np.inf),
        ("skew", np.nan)])
    def test_non_finite_intrinsics_rejected(self, field, value):
        values = dict(fx=700.0, fy=700.0, cx=640.0, cy=480.0, skew=0.0)
        values[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            PinholeIntrinsics(**values)

    def test_inverse_intrinsics_computed_once(self):
        k = PinholeIntrinsics(700.0, 710.0, 640.0, 480.0, 0.5)
        assert k.matrix_inv is k.matrix_inv
        assert not k.matrix_inv.flags.writeable
        assert np.allclose(k.matrix_inv @ k.matrix, np.eye(3), rtol=0.0,
                           atol=1e-15)
        assert k == PinholeIntrinsics(700.0, 710.0, 640.0, 480.0, 0.5)

    def test_principal_point(self):
        cam = PinholeCamera(PinholeIntrinsics(1, 1, 0, 0))
        assert np.allclose(cam.pixel_to_bearing([[0.0, 0.0]]), [[0, 0, 1]])

    def test_45_degree_ray(self):
        cam = PinholeCamera(PinholeIntrinsics(100, 100, 0, 0))
        expected = np.array([1.0, 0.0, 1.0]) / np.sqrt(2)
        assert np.allclose(cam.pixel_to_bearing([[100.0, 0.0]]), [expected])

    def test_project_examples(self):
        cam = PinholeCamera(PinholeIntrinsics(1, 1, 0, 0))
        assert np.allclose(project(cam, [[0.0, 0.0, 5.0]]), [[0, 0]])
        cam2 = PinholeCamera(PinholeIntrinsics(100, 100, 50, 50))
        assert np.allclose(project(cam2, [[1.0, 1.0, 1.0]]), [[150, 150]])

    def test_round_trip_direction(self):
        cam = PinholeCamera(PinholeIntrinsics(700, 720, 640, 480, skew=0.5))
        rng = np.random.Generator(np.random.PCG64(9))
        points = rng.uniform(-5, 5, size=(200, 3)) + [0, 0, 12]
        bearings = cam.pixel_to_bearing(project(cam, points))
        directions = points / np.linalg.norm(points, axis=1, keepdims=True)
        # sine of the angle, numerically stable near zero
        sines = np.linalg.norm(np.cross(bearings, directions), axis=1)
        assert sines.max() < 1e-9

    def test_pixel_round_trip(self):
        cam = PinholeCamera(PinholeIntrinsics(700, 700, 640, 480))
        rng = np.random.Generator(np.random.PCG64(10))
        pix = rng.uniform(0, 1000, size=(50, 2))
        bearings = cam.pixel_to_bearing(pix)
        assert np.abs(project(cam, bearings * 5.0) - pix).max() < 1e-6


class TestGenericCamera:
    def build(self):
        pin = PinholeCamera(PinholeIntrinsics(700, 700, 640, 480))
        return pin, tabulate(pin, 1280, 960, step=8.0)

    def test_matches_tabulated_pinhole(self):
        pin, gen = self.build()
        rng = np.random.Generator(np.random.PCG64(11))
        pix = rng.uniform(0, [1280, 960], size=(100, 2))
        assert np.abs(gen.pixel_to_bearing(pix)
                      - pin.pixel_to_bearing(pix)).max() < 1e-9

    def test_out_of_domain(self):
        _, gen = self.build()
        with pytest.raises(OutOfDomain):
            gen.pixel_to_bearing([[5000.0, 0.0]])

    @pytest.mark.parametrize("pixel", [[np.nan, 10.0], [10.0, np.nan],
                                       [np.inf, 10.0], [10.0, -np.inf]],
                             ids=["nan-u", "nan-v", "inf-u", "inf-v"])
    def test_non_finite_pixel_is_out_of_domain(self, pixel):
        _, gen = self.build()
        with pytest.raises(OutOfDomain):
            gen.pixel_to_bearing([[100.0, 100.0], pixel])

    def bordered(self):
        """A pinhole and its z-normalized table over the image plus a 16 px
        border, as the benchmark writes one: nodes at -16, -8, ..., 1296."""
        pin = PinholeCamera(PinholeIntrinsics(700, 710, 640, 480, skew=0.5))
        us, vs = np.arange(-16.0, 1297.0, 8.0), np.arange(-16.0, 977.0, 8.0)
        uu, vv = np.meshgrid(us, vs)
        rays = pin.pixel_to_bearing(np.stack([uu.ravel(), vv.ravel()], 1))
        table = (rays / rays[:, 2:3]).reshape(len(vs), len(us), 3)
        return pin, GenericCamera(-16.0, -16.0, 8.0, 8.0, table)

    @pytest.mark.parametrize("side", ["left", "right", "top", "bottom"])
    def test_edges_lift_to_the_edge_node(self, side):
        _, gen = self.bordered()
        nv, nu = gen.table.shape[:2]
        # a node on the side (right: the last node), the outward direction
        (j, i), outward = {"left": ((0, 7), [-1.0, 0.0]),
                           "right": ((nu - 1, nv - 1), [1.0, 0.0]),
                           "top": ((9, 0), [0.0, -1.0]),
                           "bottom": ((9, nv - 1), [0.0, 1.0])}[side]
        node = np.array([-16.0 + 8.0 * j, -16.0 + 8.0 * i])
        ray = gen.table[i, j] / np.linalg.norm(gen.table[i, j])
        for offset in (0.0, 5e-10):
            lifted = gen.pixel_to_bearing([node + offset * np.array(outward)])
            assert np.abs(lifted[0] - ray).max() < 1e-15
        with pytest.raises(OutOfDomain):
            gen.pixel_to_bearing([node + 2e-9 * np.array(outward)])

    def test_interior_lifts_equal_the_pinhole_rays(self):
        pin, gen = self.bordered()
        rng = np.random.Generator(np.random.PCG64(12))
        pix = rng.uniform([-16.0, -16.0], [1296.0, 976.0], size=(500, 2))
        assert np.abs(gen.pixel_to_bearing(pix)
                      - pin.pixel_to_bearing(pix)).max() < 1e-12


# one check for both models, and for the rig reader
@pytest.mark.parametrize("size", [
    (0, -5), (1280, 0), (-1, 960), (np.inf, 960), (1280, np.nan), (1280,),
    (1280, 960, 3)],
    ids=["zero-negative", "zero-height", "negative-width", "inf", "nan",
         "one-value", "three-values"])
@pytest.mark.parametrize("model", ["pinhole", "generic"])
def test_image_size_needs_two_positive_finite_values(model, size):
    intrinsics = PinholeIntrinsics(700.0, 700.0, 640.0, 480.0)
    make = {"pinhole": lambda s: PinholeCamera(intrinsics, s),
            "generic": lambda s: GenericCamera(0.0, 0.0, 1.0, 1.0,
                                               np.ones((2, 2, 3)), s)}[model]
    assert make(None).image_size is None
    assert make((1280, 960)).image_size == (1280.0, 960.0)
    with pytest.raises(ValueError, match="needs two finite values > 0"):
        make(size)


def test_forward_camera_extrinsic_axes():
    ext = forward_camera_extrinsic([0.0, 0.0, 0.0])
    # camera z (optical axis) points along the vehicle's forward x
    assert np.allclose(ext.rotation @ [0, 0, 1], [1, 0, 0])
    # camera x (image right) points along vehicle -y (right side)
    assert np.allclose(ext.rotation @ [1, 0, 0], [0, -1, 0])
    # camera y (image down) points along vehicle -z
    assert np.allclose(ext.rotation @ [0, 1, 0], [0, 0, -1])

