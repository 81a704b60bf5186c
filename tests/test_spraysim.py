import threading

import numpy as np
import pytest

from sprayseg import parallel, spraysim, synthdata
from sprayseg.geometry import TriMesh
from sprayseg.objective import LossWeights
from sprayseg.spraysim import (
    SprayGunModel,
    _visible,
    coverage_threshold,
    deposit,
    paint_coverage,
    pose_chamfer,
)

from conftest import MALFORMED, malformed_rows

W = LossWeights(alpha=0.5, orientation_weight=0.25)
GUN = SprayGunModel(cone_half_angle=np.deg2rad(30.0), max_range=2.0, flux=1.0)


def plane_mesh(half=1.0, grid=8, z=0.0, center=(0.0, 0.0)):
    """Square grid in the z-plane, triangulated."""
    xs = np.linspace(center[0] - half, center[0] + half, grid + 1)
    ys = np.linspace(center[1] - half, center[1] + half, grid + 1)
    verts = [[x, y, z] for x in xs for y in ys]
    faces = []
    for i in range(grid):
        for j in range(grid):
            a = i * (grid + 1) + j
            b = a + grid + 1
            faces.append([a, b, b + 1])
            faces.append([a, b + 1, a + 1])
    return TriMesh(np.array(verts), np.array(faces))


def merge_meshes(a, b):
    verts = np.concatenate([a.vertices, b.vertices])
    faces = np.concatenate([a.faces, b.faces + len(a.vertices)])
    return TriMesh(verts, faces)


def pose_stroke(*poses):
    return [np.array(poses, dtype=float)]


DOWN_POSE = [0.0, 0.0, 1.0, 0.0, 0.0, -1.0]


def _visible_reference(origins, targets, dists, tris):
    """Plain vectorised Möller–Trumbore over every (ray, face) pair: the oracle."""
    v0 = tris[:, 0]
    e1 = tris[:, 1] - v0
    e2 = tris[:, 2] - v0
    out = np.ones(len(targets), dtype=bool)
    step = max(1, int(200_000 / max(len(tris), 1)))
    for lo in range(0, len(targets), step):
        hi = lo + step
        dirs = (targets[lo:hi] - origins[lo:hi]) / dists[lo:hi, None]
        pvec = np.cross(dirs[:, None, :], e2[None, :, :])
        det = (pvec * e1[None, :, :]).sum(-1)
        valid = np.abs(det) > 1e-12
        inv = np.where(valid, 1.0 / np.where(valid, det, 1.0), 0.0)
        tvec = origins[lo:hi, None, :] - v0[None, :, :]
        u = (tvec * pvec).sum(-1) * inv
        qvec = np.cross(tvec, e1[None, :, :])
        v = (dirs[:, None, :] * qvec).sum(-1) * inv
        t = (qvec * e2[None, :, :]).sum(-1) * inv
        hit = (valid & (u >= -1e-12) & (v >= -1e-12) & (u + v <= 1.0 + 1e-12)
               & (t > 1e-9) & (t < dists[lo:hi, None] * (1.0 - 1e-6)))
        out[lo:hi] = ~hit.any(axis=1)
    return out


def assert_same_visibility(origins, targets, tris):
    dists = np.linalg.norm(targets - origins, axis=1)
    got = _visible(origins, targets, dists, tris)
    want = _visible_reference(origins, targets, dists, tris)
    assert got.dtype == bool and got.shape == (len(targets),)
    assert np.array_equal(got, want)
    return want


class TestVisibleKernel:
    """The staged kernel against the plain vectorised test, flag for flag."""

    def test_random_triangle_soups(self):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            tris = rng.uniform(-1.0, 1.0, size=(150, 3, 3))
            origins = rng.uniform(-1.5, 1.5, size=(400, 3))
            targets = rng.uniform(-1.5, 1.5, size=(400, 3))
            want = assert_same_visibility(origins, targets, tris)
            assert 0 < want.sum() < len(want)

    def test_degenerate_faces(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(-1, 1, size=(40, 3))
        b = rng.uniform(-1, 1, size=(40, 3))
        collinear = np.stack([a, b, 0.5 * (a + b)], axis=1)
        repeated = np.stack([a, a, b], axis=1)
        point = np.stack([a, a, a], axis=1)
        # edges of 1e-6 put det near the 1e-12 validity cut
        tiny = a[:, None, :] + rng.uniform(-1e-6, 1e-6, size=(40, 3, 3))
        tris = np.concatenate([collinear, repeated, point, tiny])
        origins = rng.uniform(-1.5, 1.5, size=(300, 3))
        targets = np.concatenate([a, b, rng.uniform(-1.5, 1.5, size=(220, 3))])
        assert_same_visibility(origins, targets, tris)

    def test_rays_through_shared_edges_and_vertices(self):
        occluder = plane_mesh(half=0.5, grid=4, z=0.5)
        tris = occluder.triangles
        verts = occluder.vertices
        edge_mids = 0.5 * (tris[:, [0, 1, 2]] + tris[:, [1, 2, 0]]).reshape(-1, 3)
        aims = np.concatenate([verts, edge_mids])
        rng = np.random.default_rng(6)
        origins = np.concatenate([np.tile([0.0, 0.0, 1.5], (len(aims), 1)),
                                  rng.uniform(-0.7, 0.7, size=(len(aims), 3))
                                  + [0.0, 0.0, 1.5]])
        aims = np.concatenate([aims, aims])
        targets = origins + 2.0 * (aims - origins)   # each ray crosses its aim at t = d/2
        want = assert_same_visibility(origins, targets, tris)
        assert not want.all()

    def test_targets_on_faces(self):
        mesh = plane_mesh(half=1.0, grid=6)
        tris = mesh.triangles
        rng = np.random.default_rng(7)
        w = rng.dirichlet([1.0, 1.0, 1.0], size=len(tris))
        on_face = np.einsum("fk,fkd->fd", w, tris)
        targets = np.concatenate([on_face, mesh.vertices])
        origins = targets + rng.uniform(-0.5, 0.5, size=targets.shape) + [0.0, 0.0, 1.0]
        want = assert_same_visibility(origins, targets, tris)
        assert want.all()   # a ray is not blocked by the face its target lies on

    def test_pair_just_outside_the_u_bound(self):
        # barycentrics u = 1 + 1.5e-12, v = -0.8e-12: u alone exceeds 1 + 1e-12,
        # but u + v does not, so the full test counts the pair as a hit
        tris = np.array([[[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]]])
        crossing = np.array([1.0 + 1.5e-12, -0.8e-12, 0.0])
        origins = np.array([[0.3, 0.2, 1.0]])
        targets = origins + 2.0 * (crossing - origins)
        want = assert_same_visibility(origins, targets, tris)
        assert not want[0]

    def test_rays_on_the_epsilon_boundaries(self):
        # per face, aim points a rounding error away from the cuts u = -1e-12,
        # v = -1e-12 and u + v = 1 + 1e-12, with targets beyond the face or where
        # t meets d * (1 - 1e-6): a change in operation order flips some flags
        rng = np.random.default_rng(10)
        flags = []
        for tri in rng.uniform(-1.0, 1.0, size=(400, 1, 3, 3)):
            v0, e1, e2 = tri[0, 0], tri[0, 1] - tri[0, 0], tri[0, 2] - tri[0, 0]
            w = rng.uniform(0.1, 0.8)
            bary = np.array([[-1e-12, w], [w, -1e-12], [w, 1.0 + 1e-12 - w]])
            aims = v0 + bary[:, :1] * e1 + bary[:, 1:] * e2
            normal = np.cross(e1, e2)
            origins = aims + rng.uniform(0.2, 1.0) * normal / np.linalg.norm(normal)
            targets = np.concatenate([origins + 2.0 * (aims - origins),
                                      origins + (aims - origins) / (1.0 - 1e-6)])
            flags.append(assert_same_visibility(np.tile(origins, (2, 1)), targets, tri))
        assert 0.2 < np.mean(flags) < 0.8

    def test_zero_faces_and_zero_rays(self):
        rng = np.random.default_rng(8)
        origins = rng.uniform(-1, 1, size=(5, 3))
        targets = rng.uniform(-1, 1, size=(5, 3))
        assert assert_same_visibility(origins, targets, np.zeros((0, 3, 3))).all()
        tris = rng.uniform(-1, 1, size=(10, 3, 3))
        assert len(assert_same_visibility(np.zeros((0, 3)), np.zeros((0, 3)), tris)) == 0

    def test_rays_span_several_chunks(self):
        # 2000 faces leave a few dozen rays per chunk, so 900 rays cross many
        # chunk boundaries
        rng = np.random.default_rng(9)
        centers = rng.uniform(-1.0, 1.0, size=(2000, 1, 3)) * [1.0, 1.0, 0.5]
        tris = centers + rng.uniform(-0.02, 0.02, size=(2000, 3, 3))
        origins = np.hstack([rng.uniform(-1, 1, size=(900, 2)), np.full((900, 1), 1.0)])
        targets = np.hstack([rng.uniform(-1, 1, size=(900, 2)), np.full((900, 1), -1.0)])
        want = assert_same_visibility(origins, targets, tris)
        assert 0 < want.sum() < len(want)


def unit(x):
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def in_runs(rng, n):
    """Row indices 0, 0, 1, 1, 1, 2, ... for n rays: runs of 1-5 rays that
    share an origin, as deposit passes each pose's rays."""
    return np.repeat(np.arange(n), rng.integers(1, 6, n))[:n]


def assert_same_flags_both_ways(origins, targets, tris):
    """The oracle match, with both occluded and visible rays present."""
    want = assert_same_visibility(origins, targets, tris)
    assert 0 < want.sum() < len(want)


# the cut has to keep every pair the exact test can call a hit at any size
SCALES = [1e-2, 1e-1, 1.0, 10.0]


class TestVisibleCut:
    """Rays built to sit where the plane-crossing cut could drop a hit: each
    fails on the cut without its near-plane rule or with a tighter cut."""

    @pytest.mark.parametrize("scale", SCALES)
    def test_grazing_rays_from_on_or_next_to_the_plane(self, scale):
        # origins on a small face, on its plane or 1e-12 to 1e-9 off it; rays
        # leave 1e-14 to 1e-2 rad off the plane, so the exact test's t is
        # rounding, which can land inside the face
        rng = np.random.default_rng(20)
        centers = rng.uniform(-1.0, 1.0, size=(100, 1, 3))
        tris = centers + rng.uniform(-0.1, 0.1, size=(100, 3, 3))
        normal = unit(np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]))
        face = np.repeat(np.arange(100), 12)
        w = rng.dirichlet([1.0, 1.0, 1.0], size=len(face))
        off = (rng.choice([0.0, 1.0], size=len(face))
               * 10.0 ** rng.uniform(-12, -9, size=len(face)) * rng.choice([-1, 1], size=len(face)))
        on_face = np.einsum("rk,rkd->rd", w, tris[face]) + off[:, None] * normal[face]
        rows = in_runs(rng, len(face))
        origins, face = on_face[rows], face[rows]
        along = unit(np.cross(normal[face], rng.normal(size=(len(face), 3))))
        angle = 10.0 ** rng.uniform(-14, -2, size=len(face)) * rng.choice([-1, 1], size=len(face))
        dirs = np.cos(angle)[:, None] * along + np.sin(angle)[:, None] * normal[face]
        targets = origins + rng.uniform(0.05, 0.4, size=(len(face), 1)) * dirs
        assert_same_flags_both_ways(scale * origins, scale * targets, scale * tris)

    @pytest.mark.parametrize("scale", SCALES)
    def test_targets_on_axis_aligned_panels(self, scale):
        # a floor z = 0 and a wall x = 0: every target is coplanar with one
        # panel's 72 faces, and origins sit on, next to or off the planes
        floor = plane_mesh(half=1.0, grid=6)
        wall = TriMesh(floor.vertices[:, ::-1].copy(), floor.faces)
        mesh = merge_meshes(floor, wall)
        rng = np.random.default_rng(21)
        targets = mesh.vertices[rng.integers(0, len(mesh.vertices), 500)]
        height = (rng.choice([0.0, 1e-12, 1e-11, 1e-10, 1e-9, 0.3], size=500)
                  * rng.choice([-1, 1], size=500))
        spot = rng.uniform(-1.0, 1.0, size=(500, 2))
        origins = np.where(rng.integers(0, 2, size=(500, 1)) == 0,
                           np.c_[spot, height], np.c_[height, spot])
        origins = origins[in_runs(rng, 500)]
        assert_same_flags_both_ways(scale * origins, scale * targets, scale * mesh.triangles)

    @pytest.mark.parametrize("scale", SCALES)
    def test_crossing_fractions_at_the_cut_margins(self, scale):
        # per face, one origin and six targets: the segment crosses the face at
        # 1 - 1e-6 -+ 5e-7 and 1 - 1e-6 of its length (the exact test's t cut)
        # and at 1 - 1e-9, 1 and 1 + 1e-9 (the plane cut's neighbourhood)
        rng = np.random.default_rng(22)
        fractions = np.array([1 - 1.5e-6, 1 - 1e-6, 1 - 0.5e-6, 1 - 1e-9, 1.0, 1 + 1e-9])
        flags = []
        for tri in rng.uniform(-1.0, 1.0, size=(150, 1, 3, 3)):
            v0, e1, e2 = tri[0, 0], tri[0, 1] - tri[0, 0], tri[0, 2] - tri[0, 0]
            w = rng.dirichlet([1.0, 1.0, 1.0])
            aim = v0 + w[1] * e1 + w[2] * e2
            lean = unit(np.cross(e1, e2)) + 0.5 * unit(rng.normal(size=3))
            origin = aim + rng.uniform(0.05, 1.0) * rng.choice([-1, 1]) * lean
            origins = np.tile(origin, (len(fractions), 1))
            targets = origin + (aim - origin) / fractions[:, None]
            flags.append(assert_same_visibility(scale * origins, scale * targets, scale * tri))
        flags = np.array(flags)
        assert not flags[:, 0].any() and flags[:, 3:].all()

    @pytest.mark.parametrize("scale", SCALES)
    def test_sliver_faces(self, scale):
        # faces 1e-9 to 1e-3 wide across their long edge: |e1 x e2| is far
        # below |e1| |e2|; rays cross them at a slant, or start 1e-10 off them
        rng = np.random.default_rng(23)
        v0 = rng.uniform(-1.0, 1.0, size=(150, 3))
        long = unit(rng.normal(size=(150, 3))) * rng.uniform(0.2, 1.0, size=(150, 1))
        across = unit(np.cross(long, rng.normal(size=(150, 3))))
        width = 10.0 ** rng.uniform(-9, -3, size=(150, 1))
        tris = np.stack([v0, v0 + long,
                         v0 + rng.uniform(0.2, 0.8, size=(150, 1)) * long + width * across], axis=1)
        normal = unit(np.cross(long, across))
        aims = np.einsum("rk,rkd->rd", rng.dirichlet([1.0, 1.0, 1.0], size=150), tris)
        slant = unit(normal + 0.3 * rng.normal(size=(150, 3)))
        origins = np.concatenate([aims + rng.uniform(0.1, 1.0, size=(150, 1)) * slant,
                                  aims + 1e-10 * normal])
        aims = np.concatenate([aims, aims + 1e-3 * rng.normal(size=(150, 3))])
        targets = origins + 2.0 * (aims - origins)
        assert_same_flags_both_ways(scale * origins, scale * targets, scale * tris)


def runs_scene():
    """500 faces and 700 rays from 100 origins, in runs of 7: chunks of 100
    rays end inside runs."""
    rng = np.random.default_rng(24)
    centers = rng.uniform(-1.0, 1.0, size=(500, 1, 3)) * [1.0, 1.0, 0.3]
    tris = centers + rng.uniform(-0.1, 0.1, size=(500, 3, 3))
    origins = np.repeat(rng.uniform(-1.0, 1.0, size=(100, 3)) + [0.0, 0.0, 1.0], 7, axis=0)
    targets = np.hstack([rng.uniform(-1.0, 1.0, size=(700, 2)), np.full((700, 1), -0.5)])
    return origins, targets, tris


class TestVisibleRayOrder:
    """Any ray order gives the same flags, whether or not equal origins are adjacent."""

    def test_run_spans_a_chunk_boundary(self):
        origins, targets, tris = runs_scene()
        assert np.array_equal(origins[99], origins[100])   # chunk 0 ends mid-run
        assert_same_flags_both_ways(origins, targets, tris)

    def test_permuted_rays(self):
        origins, targets, tris = runs_scene()
        dists = np.linalg.norm(targets - origins, axis=1)
        flags = _visible(origins, targets, dists, tris)
        order = np.random.default_rng(25).permutation(len(targets))
        shuffled = _visible(origins[order], targets[order], dists[order], tris)
        assert np.array_equal(shuffled, flags[order])
        assert np.array_equal(flags, _visible_reference(origins, targets, dists, tris))
        assert 0 < flags.sum() < len(flags)


def test_fifteen_chunks_match_reference():
    """Seeded soup of 500 faces and 1500 rays: 100 rays per chunk, 15 chunks."""
    rng = np.random.default_rng(11)
    tris = rng.uniform(-1.0, 1.0, size=(500, 3, 3))
    origins = rng.uniform(-1.5, 1.5, size=(1500, 3))
    targets = rng.uniform(-1.5, 1.5, size=(1500, 3))
    dists = np.linalg.norm(targets - origins, axis=1)
    want = _visible_reference(origins, targets, dists, tris)
    assert np.array_equal(_visible(origins, targets, dists, tris), want)
    assert 0 < want.sum() < len(want)


def test_deposit_starts_no_thread(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a thread was started")

    # four workers: `parallel.spread` would split here
    monkeypatch.setattr(parallel, "WORKERS", 4)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    rec = synthdata.generate_object("cuboids", seed=0, face_grid=3)
    gun = SprayGunModel(cone_half_angle=np.deg2rad(45.0), max_range=0.5, flux=1.0)
    # one stroke: 5148 rays against 64 faces, so 7 chunks of 781 rays
    assert deposit(rec.mesh, rec.strokes[:1], gun).max() > 0


@pytest.mark.parametrize("category", synthdata.CATEGORIES)
def test_deposit_field_identical_to_reference_kernel(category, monkeypatch):
    rec = synthdata.generate_object(category, seed=0, face_grid=3)
    gun = SprayGunModel(cone_half_angle=np.deg2rad(45.0), max_range=0.5, flux=1.0)
    field = deposit(rec.mesh, rec.strokes, gun)
    monkeypatch.setattr(spraysim, "_visible", _visible_reference)
    reference = deposit(rec.mesh, rec.strokes, gun)
    assert reference.max() > 0
    assert np.array_equal(field, reference)


class TestDeposit:
    def test_empty_strokes(self):
        mesh = plane_mesh()
        assert np.abs(deposit(mesh, [], GUN)).max() == 0.0

    def test_cone_geometry(self):
        mesh = plane_mesh(half=1.0, grid=10)
        field = deposit(mesh, pose_stroke(DOWN_POSE), GUN)
        rho = np.linalg.norm(mesh.vertices[:, :2], axis=1)
        cone_radius = np.tan(GUN.cone_half_angle)
        assert np.all(field[rho <= cone_radius - 1e-9] > 0.0)
        assert np.all(field[rho > cone_radius + 1e-9] == 0.0)

    def test_rotation_about_approach_axis(self):
        mesh = plane_mesh(half=1.0, grid=10)
        base = deposit(mesh, pose_stroke(DOWN_POSE), GUN)
        pose = np.array(DOWN_POSE)
        axis = pose[3:]
        for theta in (0.3, 1.2, 2.5):
            k = axis / np.linalg.norm(axis)
            kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
            rot = np.eye(3) + np.sin(theta) * kx + (1 - np.cos(theta)) * (kx @ kx)
            rotated = pose.copy()
            rotated[3:] = rot @ pose[3:]
            field = deposit(mesh, pose_stroke(rotated), GUN)
            assert np.abs(field - base).max() < 1e-9

    def test_additivity_disjoint(self):
        near = plane_mesh(half=0.5, grid=4)
        far = plane_mesh(half=0.5, grid=4, center=(100.0, 0.0))
        mesh = merge_meshes(near, far)
        a = pose_stroke(DOWN_POSE)
        b = pose_stroke([100.0, 0, 1, 0, 0, -1])
        combined = deposit(mesh, a + b, GUN)
        assert np.array_equal(combined, deposit(mesh, a, GUN) + deposit(mesh, b, GUN))

    def test_monotonic_in_poses(self):
        mesh = plane_mesh(half=1.0, grid=6)
        rng = np.random.default_rng(0)
        poses = np.hstack([rng.uniform(-0.5, 0.5, size=(6, 2)),
                           rng.uniform(0.8, 1.2, size=(6, 1)),
                           np.tile([0.0, 0, -1], (6, 1))])
        partial = deposit(mesh, [poses[:3]], GUN)
        full = deposit(mesh, [poses[:3], poses[3:]], GUN)
        assert np.all(full >= partial)

    def test_occlusion_two_planes(self):
        rear = plane_mesh(half=1.0, grid=10, z=0.0)
        front = plane_mesh(half=0.2, grid=2, z=0.5)
        mesh = merge_meshes(rear, front)
        field = deposit(mesh, pose_stroke(DOWN_POSE), GUN)
        rear_xy = rear.vertices[:, :2]
        rear_field = field[: len(rear.vertices)]
        # rays to vertices under the front plane pass through it: shadowed
        shadow = np.abs(rear_xy).max(axis=1) < 0.2 / 0.5 - 1e-9
        lit = ((np.abs(rear_xy).max(axis=1) > 0.2 / 0.5 + 1e-2)
               & (np.linalg.norm(rear_xy, axis=1) < np.tan(GUN.cone_half_angle) - 1e-2))
        assert np.all(rear_field[shadow] == 0.0)
        assert np.all(rear_field[lit] > 0.0)
        assert np.all(field[len(rear.vertices):] > 0.0)  # the occluder itself is painted

    def test_range_cutoff(self):
        mesh = plane_mesh(half=0.2, grid=2)
        gun = SprayGunModel(cone_half_angle=np.deg2rad(30), max_range=0.5, flux=1.0)
        field = deposit(mesh, pose_stroke(DOWN_POSE), gun)
        assert np.abs(field).max() == 0.0

    def test_rejects_non_unit_orientation(self):
        mesh = plane_mesh(half=0.2, grid=2)
        with pytest.raises(ValueError):
            deposit(mesh, [np.array([[0.0, 0, 1, 0, 0, -2.0]])], GUN)

    def test_rejects_nan_position(self):
        mesh = plane_mesh(half=0.2, grid=2)
        with pytest.raises(ValueError, match="finite"):
            deposit(mesh, [np.array([DOWN_POSE, [np.nan, 0, 1, 0, 0, -1]])], GUN)

    def test_rejects_nan_orientation(self):
        mesh = plane_mesh(half=0.2, grid=2)
        with pytest.raises(ValueError, match="finite"):
            deposit(mesh, [np.array([DOWN_POSE, [0.0, 0, 1, 0, np.nan, -1]])], GUN)

    def test_gun_validation(self):
        with pytest.raises(ValueError):
            SprayGunModel(cone_half_angle=2.0)
        with pytest.raises(ValueError):
            SprayGunModel(max_range=0.0)
        with pytest.raises(ValueError):
            SprayGunModel(flux=-1.0)


@pytest.mark.parametrize("excess, accepted", [(5e-7, True), (2e-6, False)])
def test_one_unit_tolerance_for_every_pose_check(excess, accepted, tmp_path):
    stroke = np.array([[0.0, 0, 1, 0, 0, -1.0 - excess], [0.1, 0, 1, 0, 0, -1.0]])
    synthdata.save_strokes([stroke], tmp_path / "strokes.txt")
    checks = (lambda: synthdata.load_strokes(tmp_path / "strokes.txt"),
              lambda: deposit(plane_mesh(grid=2), [stroke], GUN))
    for check in checks:
        if accepted:
            check()
        else:
            with pytest.raises(ValueError, match="unit vectors"):
                check()


class TestThicknessFile:
    def test_rejects_non_finite_naming_the_file(self, tmp_path):
        path = tmp_path / "gt_thickness.txt"
        path.write_text("0.5\nnan\n")
        with pytest.raises(ValueError, match=path.name):
            spraysim.load_thickness(path)

    @pytest.mark.parametrize("case", MALFORMED)
    def test_rejects_malformed_naming_the_file(self, tmp_path, case):
        path = tmp_path / "gt_thickness.txt"
        path.write_text(malformed_rows("0.5")[case])
        with pytest.raises(ValueError, match=path.name):
            spraysim.load_thickness(path)


class TestCoverageThreshold:
    def test_linear_interpolation(self):
        assert coverage_threshold(np.arange(1.0, 11.0)) == pytest.approx(1.9)

    def test_constant(self):
        assert coverage_threshold(np.full(7, 3.5)) == pytest.approx(3.5)

    def test_zeros_excluded(self):
        assert coverage_threshold(np.array([0.0, 0.0, 5.0])) == pytest.approx(5.0)

    def test_all_zero_raises(self):
        with pytest.raises(ValueError):
            coverage_threshold(np.zeros(4))


class TestPaintCoverage:
    def test_identical_fields(self):
        rng = np.random.default_rng(1)
        gt = rng.uniform(0.0, 2.0, size=50)
        gt[:10] = 0.0
        report = paint_coverage(gt, gt)
        assert report.pc == 100.0
        assert report.pred_covered_of_gt == report.gt_covered

    def test_all_zero_prediction(self):
        gt = np.concatenate([np.zeros(5), np.ones(10)])
        report = paint_coverage(np.zeros(15), gt)
        assert report.pc == 0.0

    def test_half_covered(self):
        gt = np.concatenate([np.zeros(5), np.full(10, 10.0)])
        pred = np.zeros(15)
        pred[5:10] = 10.0
        report = paint_coverage(pred, gt)
        assert report.pc == pytest.approx(50.0)
        assert report.gt_covered == 10
        assert report.pred_covered_of_gt == 5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            paint_coverage(np.ones(3), np.ones(4))


class TestPoseChamfer:
    def test_identical_sets(self):
        rng = np.random.default_rng(2)
        poses = np.hstack([rng.normal(size=(20, 3)), np.tile([0.0, 0, 1], (20, 1))])
        assert pose_chamfer(poses, poses, W) == 0.0

    def test_singleton_offset(self):
        a = np.array([[0.0, 0, 0, 0, 0, 1]])
        b = np.array([[1.0, 0, 0, 0, 0, 1]])
        assert pose_chamfer(a, b, W) == pytest.approx(2.0)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        a = np.hstack([rng.normal(size=(15, 3)), np.tile([0.0, 0, 1], (15, 1))])
        b = np.hstack([rng.normal(size=(9, 3)), np.tile([0.0, 0, 1], (9, 1))])
        base = pose_chamfer(a, b, W)
        perm = rng.permutation(15)
        assert pose_chamfer(a[perm], b, W) == pytest.approx(base, rel=1e-12)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            pose_chamfer(np.zeros((0, 6)), np.zeros((1, 6)), W)
