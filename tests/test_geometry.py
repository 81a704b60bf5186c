import numpy as np
import pytest

from sprayseg import geometry
from sprayseg.geometry import MeshError

from conftest import CUBE_MESH_TEXT


def barycentric_residual(point, tri):
    """Distance of `point` from the best barycentric fit on triangle `tri`."""
    a, b, c = tri
    e1, e2 = b - a, c - a
    d = point - a
    m = np.array([[e1 @ e1, e1 @ e2], [e1 @ e2, e2 @ e2]])
    rhs = np.array([d @ e1, d @ e2])
    u, v = np.linalg.solve(m, rhs)
    recon = a + u * e1 + v * e2
    residual = np.linalg.norm(point - recon)
    inside = (u >= -1e-9) and (v >= -1e-9) and (u + v <= 1 + 1e-9)
    return residual, inside


class TestLoadMesh:
    def test_unit_cube(self, cube_mesh_path):
        mesh, dropped = geometry.load_mesh(cube_mesh_path)
        assert len(mesh.vertices) == 8
        assert len(mesh.faces) == 12
        assert dropped == 0

    def test_degenerate_face_dropped(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(CUBE_MESH_TEXT + "f 1 1 2\n")
        mesh, dropped = geometry.load_mesh(path)
        assert len(mesh.faces) == 12
        assert dropped == 1

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "trunc.txt"
        path.write_text("v 0 0 0\nv 1 0\n")
        with pytest.raises(MeshError):
            geometry.load_mesh(path)

    def test_empty_mesh(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(MeshError):
            geometry.load_mesh(path)

    def test_face_index_out_of_range(self, tmp_path):
        path = tmp_path / "oob.txt"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n")
        with pytest.raises(MeshError):
            geometry.load_mesh(path)

    @pytest.mark.parametrize("text", [CUBE_MESH_TEXT.replace("v 1 1 0", "v nan 1 0"),
                                      "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n"],
                             ids=["non_finite_vertex", "face_index_out_of_range"])
    def test_invariant_errors_name_the_file(self, tmp_path, text):
        path = tmp_path / "named_mesh.txt"
        path.write_text(text)
        with pytest.raises(MeshError, match="named_mesh.txt"):
            geometry.load_mesh(path)

    def test_save_load_roundtrip(self, cube_mesh_path, tmp_path):
        mesh, _ = geometry.load_mesh(cube_mesh_path)
        out = tmp_path / "copy.txt"
        geometry.save_mesh(mesh, out)
        again, _ = geometry.load_mesh(out)
        assert np.array_equal(mesh.vertices, again.vertices)
        assert np.array_equal(mesh.faces, again.faces)


class TestLoadPointCloud:
    def test_rejects_non_finite_naming_the_file(self, tmp_path):
        path = tmp_path / "cloud.txt"
        path.write_text("0 0 0\nnan nan nan\n1 1 1\n")
        with pytest.raises(ValueError, match="cloud.txt"):
            geometry.load_point_cloud(path)


class TestSamplePointCloud:
    def test_counts_and_on_surface(self, cube_mesh_path):
        mesh, _ = geometry.load_mesh(cube_mesh_path)
        points, fidx = geometry.sample_point_cloud(mesh, 5120, seed=0, return_faces=True)
        assert points.shape == (5120, 3)
        tris = mesh.triangles
        for i in range(0, 5120, 37):
            residual, inside = barycentric_residual(points[i], tris[fidx[i]])
            assert residual < 1e-9
            assert inside

    def test_determinism(self, cube_mesh_path):
        mesh, _ = geometry.load_mesh(cube_mesh_path)
        a = geometry.sample_point_cloud(mesh, 600, seed=42)
        b = geometry.sample_point_cloud(mesh, 600, seed=42)
        assert np.array_equal(a, b)
        c = geometry.sample_point_cloud(mesh, 600, seed=43)
        assert not np.array_equal(a, c)

    def test_single_triangle_single_point(self):
        mesh = geometry.TriMesh(np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]]),
                                np.array([[0, 1, 2]]))
        points = geometry.sample_point_cloud(mesh, 1, seed=5)
        assert points.shape == (1, 3)
        residual, inside = barycentric_residual(points[0], mesh.triangles[0])
        assert residual < 1e-9
        assert inside

    def test_bad_count(self, cube_mesh_path):
        mesh, _ = geometry.load_mesh(cube_mesh_path)
        with pytest.raises(ValueError):
            geometry.sample_point_cloud(mesh, 0, seed=0)

    def test_area_proportional_share(self, cube_mesh_path):
        # per cube side (two triangles each), the sample share should approach
        # the area share of 1/6 within 20% relative at n = 10000
        mesh, _ = geometry.load_mesh(cube_mesh_path)
        _, fidx = geometry.sample_point_cloud(mesh, 10000, seed=3, return_faces=True)
        side_counts = np.bincount(fidx // 2, minlength=6)
        expected = 10000 / 6
        assert np.all(np.abs(side_counts - expected) / expected < 0.2)


class TestNormalize:
    def test_zero_mean_and_scale(self):
        rng = np.random.default_rng(0)
        cloud = rng.normal(size=(50, 3)) + np.array([1.0, 2.0, 3.0])
        stroke = np.hstack([rng.normal(size=(10, 3)), np.tile([0.0, 0, 1], (10, 1))])
        out_cloud, out_strokes, tf = geometry.normalize(cloud, [stroke], scale=2.0)
        assert np.abs(out_cloud.mean(axis=0)).max() < 1e-9
        assert np.allclose(out_strokes[0][:, :3], (stroke[:, :3] - tf.centroid) / 2.0)
        assert np.array_equal(out_strokes[0][:, 3:], stroke[:, 3:])

    def test_pairwise_distances_scale(self):
        rng = np.random.default_rng(1)
        cloud = rng.normal(size=(30, 3))
        out_cloud, _, _ = geometry.normalize(cloud, [], scale=4.0)
        before = np.linalg.norm(cloud[:, None] - cloud[None], axis=-1)
        after = np.linalg.norm(out_cloud[:, None] - out_cloud[None], axis=-1)
        assert np.abs(after - before / 4.0).max() < 1e-9

    def test_roundtrip(self):
        rng = np.random.default_rng(2)
        cloud = rng.normal(size=(40, 3)) * 3 + 5
        stroke = np.hstack([rng.normal(size=(12, 3)), np.tile([1.0, 0, 0], (12, 1))])
        n_cloud, n_strokes, tf = geometry.normalize(cloud, [stroke], scale=2.5)
        back_cloud, *back_strokes = geometry.denormalize([n_cloud, *n_strokes], tf)
        assert np.abs(back_cloud - cloud).max() < 1e-9
        assert np.abs(back_strokes[0] - stroke).max() < 1e-9

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            geometry.normalize(np.zeros((3, 3)), [], scale=0.0)
