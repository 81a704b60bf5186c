import sys

import numpy as np
import pytest

from sprayseg import spraysim, synthdata
from sprayseg.geometry import TriMesh
from sprayseg.objective import LossWeights
from sprayseg.spraysim import (
    CoverageReport,
    SprayGunModel,
    _visible,
    coverage_threshold,
    deposit,
    paint_coverage,
    pose_chamfer,
)

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
    step = max(1, int(2_000_000 / max(len(tris), 1)))
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


def threaded_soup():
    """Seeded soup of 500 faces and 1500 rays: 100 rays per chunk, 15 chunks."""
    rng = np.random.default_rng(11)
    tris = rng.uniform(-1.0, 1.0, size=(500, 3, 3))
    origins = rng.uniform(-1.5, 1.5, size=(1500, 3))
    targets = rng.uniform(-1.5, 1.5, size=(1500, 3))
    return origins, targets, np.linalg.norm(targets - origins, axis=1), tris


class TestVisibleThreads:
    """Chunks spread over threads: the flags do not depend on the worker count."""

    # 3 workers is more threads than cores on a 2-core machine and interleaves
    # 15 chunks unevenly
    @pytest.mark.parametrize("workers, helper_chunks", [(1, 0), (2, 7), (3, 10)])
    def test_worker_counts_match_reference(self, workers, helper_chunks, monkeypatch):
        submitted = []

        class CountingPool(spraysim.ThreadPoolExecutor):
            def submit(self, fn, *args):
                submitted.append(args)
                return super().submit(fn, *args)

        monkeypatch.setattr(spraysim, "_WORKERS", workers)
        monkeypatch.setattr(spraysim, "ThreadPoolExecutor", CountingPool)
        soup = threaded_soup()
        want = _visible_reference(*soup)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)   # switch threads as often as possible
        try:
            got = _visible(*soup)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got, want)
        assert 0 < want.sum() < len(want)
        # the calling thread takes chunks 0, workers, 2 * workers, ...
        assert len(submitted) == helper_chunks

    def test_one_worker_or_one_chunk_starts_no_thread(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(spraysim, "ThreadPoolExecutor", refuse)
        origins, targets, dists, tris = threaded_soup()
        monkeypatch.setattr(spraysim, "_WORKERS", 1)
        assert np.array_equal(_visible(origins, targets, dists, tris),
                              _visible_reference(origins, targets, dists, tris))
        monkeypatch.setattr(spraysim, "_WORKERS", 2)
        few = slice(0, 100)   # exactly one chunk
        assert np.array_equal(_visible(origins[few], targets[few], dists[few], tris),
                              _visible_reference(origins[few], targets[few], dists[few], tris))

    def test_helper_exception_reaches_caller(self, monkeypatch):
        class FailingPool(spraysim.ThreadPoolExecutor):
            def submit(self, fn, *args):
                def fail(*_):
                    raise RuntimeError("helper chunk failed")
                return super().submit(fail, *args)

        monkeypatch.setattr(spraysim, "_WORKERS", 2)
        monkeypatch.setattr(spraysim, "ThreadPoolExecutor", FailingPool)
        with pytest.raises(RuntimeError, match="helper chunk failed"):
            _visible(*threaded_soup())


@pytest.mark.parametrize("category", synthdata.CATEGORIES)
def test_deposit_field_identical_to_reference_kernel(category, monkeypatch):
    rec = synthdata.generate_object(category, seed=0,
                                    params=synthdata.GeneratorConfig(face_grid=3))
    gun = SprayGunModel(cone_half_angle=np.deg2rad(45.0), max_range=0.5, flux=1.0)
    fields = []
    for workers in (spraysim._WORKERS, 1):   # the default count, then serial
        monkeypatch.setattr(spraysim, "_WORKERS", workers)
        fields.append(deposit(rec.mesh, rec.strokes, gun))
    monkeypatch.setattr(spraysim, "_visible", _visible_reference)
    reference = deposit(rec.mesh, rec.strokes, gun)
    assert reference.max() > 0
    for field in fields:
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

    def test_report_validation(self):
        with pytest.raises(ValueError):
            CoverageReport(threshold=1.0, gt_covered=2, pred_covered_of_gt=3, pc=150.0)


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
