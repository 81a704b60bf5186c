import numpy as np
import pytest

from sprayseg import geometry, synthdata
from sprayseg.kvio import read_keyvalues
from sprayseg.synthdata import (
    decompose_segments,
    downsample_strokes,
    generate_object,
    output_slot_count,
    split_dataset,
)

from conftest import MALFORMED, malformed_rows

POSE = "0 0 0 1 0 0 -1"  # stroke 0, one pose
# stroke index columns that do not start at 0 or step by other than 0 or 1
BAD_INDEX = {f"index_{name}": "".join(f"{k} 0 0 {i} 0 0 -1\n" for i, k in enumerate(ks.split()))
             for name, ks in [("from_1", "1 1 2"), ("skips", "0 0 2"), ("decreases", "0 1 0"),
                              ("not_integer", "0 0.5 1")]}


def _box_panels_reference(center, size, cell):
    """Per-vertex box panel construction, the oracle for `synthdata._box_panels`."""
    center = np.asarray(center, dtype=np.float64)
    half = np.asarray(size, dtype=np.float64) / 2.0
    verts, faces = [], []
    for axis in range(3):
        ua, va = (axis + 1) % 3, (axis + 2) % 3
        gu = max(1, int(round(size[ua] / cell)))
        gv = max(1, int(round(size[va] / cell)))
        for sign in (1.0, -1.0):
            base = len(verts)
            for u in np.linspace(-half[ua], half[ua], gu + 1):
                for v in np.linspace(-half[va], half[va], gv + 1):
                    p = center.copy()
                    p[axis] += sign * half[axis]
                    p[ua] += u
                    p[va] += v
                    verts.append(p)
            for i in range(gu):
                for j in range(gv):
                    a = base + i * (gv + 1) + j
                    b = a + gv + 1
                    faces.append([a, b, b + 1])
                    faces.append([a, b + 1, a + 1])
    return np.array(verts), np.array(faces)


def assert_valid_strokes(strokes):
    """Each stroke: valid poses, at least 2 of them, and a move at every step."""
    for s in strokes:
        s = geometry.check_poses(s)
        assert len(s) >= 2
        assert (np.linalg.norm(np.diff(s[:, :3], axis=0), axis=1) > 0).all()


def record_equal(a, b):
    return (np.array_equal(a.mesh.vertices, b.mesh.vertices)
            and np.array_equal(a.mesh.faces, b.mesh.faces)
            and len(a.strokes) == len(b.strokes)
            and all(np.array_equal(x, y) for x, y in zip(a.strokes, b.strokes))
            and a.category == b.category and a.seed == b.seed)


class TestGenerateObject:
    def test_cuboids_structure(self):
        rec = generate_object("cuboids", seed=0)
        assert len(rec.strokes) == 6
        assert all(len(s) == 333 for s in rec.strokes)
        assert_valid_strokes(rec.strokes)

    def test_determinism(self):
        for cat in synthdata.CATEGORIES:
            assert record_equal(generate_object(cat, seed=11), generate_object(cat, seed=11))

    def test_invalid_category(self):
        with pytest.raises(ValueError):
            generate_object("teapots", seed=0)

    def test_container_spiral_wraps_walls(self):
        rec = generate_object("containers", seed=7)
        assert len(rec.strokes) >= 1
        wrapped = 0
        for s in rec.strokes:
            angles = np.unwrap(np.arctan2(s[:, 1], s[:, 0]))
            if np.abs(angles[-1] - angles[0]) >= 2 * np.pi:
                wrapped += 1
        assert wrapped >= 1

    @pytest.mark.parametrize("category", synthdata.CATEGORIES)
    def test_orientations_point_at_surface(self, category):
        rec = generate_object(category, seed=4)
        assert_valid_strokes(rec.strokes)
        verts = rec.mesh.vertices
        for s in rec.strokes:
            for pose in s[:: max(1, len(s) // 25)]:
                d = verts - pose[:3]
                nearest = d[np.argmin((d * d).sum(axis=1))]
                gap = np.linalg.norm(nearest)
                assert gap > 0.02, "stroke must keep a positive stand-off"
                assert pose[3:] @ nearest > 0, "orientation must face the surface"


class TestBoxPanels:
    @pytest.mark.parametrize("center, size, cell", [
        ((0.1, -0.2, 0.3), (0.4, 0.07, 0.25), 0.04),
        ((0.0, 0.0, 0.0), (0.33, 0.41, 0.29), 0.41 / 6),
        ((-1.5, 2.0, 0.7), (0.02, 0.9, 0.03), 0.3),  # one quad across the thin sides
    ])
    def test_matches_reference_bitwise(self, center, size, cell):
        verts, faces = synthdata._box_panels(center, np.array(size), cell)
        ref_verts, ref_faces = _box_panels_reference(center, np.array(size), cell)
        assert verts.tobytes() == ref_verts.tobytes()
        assert faces.dtype == ref_faces.dtype and faces.tobytes() == ref_faces.tobytes()


class TestDownsample:
    @staticmethod
    def make_stroke(n, seed=0):
        rng = np.random.default_rng(seed)
        pos = np.cumsum(rng.uniform(0.01, 0.1, size=(n, 3)), axis=0)
        ori = np.tile([0.0, 0.0, 1.0], (n, 1))
        return np.hstack([pos, ori])

    def test_cuboid_budget(self):
        strokes = [self.make_stroke(333, seed=i) for i in range(6)]
        out = downsample_strokes(strokes, 2000)
        counts = [len(s) for s in out]
        assert all(c in (333, 334) for c in counts)
        assert abs(sum(counts) - 2000) <= 6
        for before, after in zip(strokes, out):
            assert np.array_equal(after[0], before[0])
            assert np.array_equal(after[-1], before[-1])

    def test_identity_when_within_budget(self):
        stroke = self.make_stroke(100)
        out = downsample_strokes([stroke], 100)
        assert np.array_equal(out[0], stroke)

    def test_uniform_stride(self):
        stroke = self.make_stroke(100)
        out = downsample_strokes([stroke], 50)
        expected_idx = np.linspace(0, 99, 50).astype(int)
        assert np.array_equal(out[0], stroke[expected_idx])

    def test_proportional_allocation(self):
        strokes = [self.make_stroke(n, seed=n) for n in (300, 150, 50)]
        out = downsample_strokes(strokes, 250)
        counts = np.array([len(s) for s in out])
        assert abs(counts.sum() - 250) <= 3
        shares = counts / counts.sum()
        assert np.abs(shares - np.array([0.6, 0.3, 0.1])).max() < 0.02
        for before, after in zip(strokes, out):
            assert np.array_equal(after[-1], before[-1])

    def test_budget_too_small(self):
        with pytest.raises(ValueError):
            downsample_strokes([self.make_stroke(10)] * 3, 5)

    def test_counts_sum_exactly_to_budget(self):
        rng = np.random.default_rng(0)
        surplus_cases = 0   # flooring then raising short strokes to 2 overshot the budget
        for _ in range(400):
            lengths = rng.integers(1, 80, size=rng.integers(1, 12))
            budget = int(rng.integers(2 * len(lengths), lengths.sum() + 3))
            out = downsample_strokes([self.make_stroke(n) for n in lengths], budget)
            counts = [len(s) for s in out]
            if lengths.sum() <= budget:
                assert counts == lengths.tolist()
                continue
            assert sum(counts) == budget
            assert min(counts) >= 2
            quota = budget * lengths / lengths.sum()
            surplus_cases += np.maximum(np.floor(quota), 2).sum() > budget
        assert surplus_cases > 0


class TestDecompose:
    def test_sliding_window_example(self):
        stroke = TestDownsample.make_stroke(10)
        segs = decompose_segments([stroke], lam=4, overlap=1)
        assert len(segs) == 3
        assert np.array_equal(segs[0], stroke[0:4])
        assert np.array_equal(segs[1], stroke[3:7])
        assert np.array_equal(segs[2], stroke[6:10])

    def test_single_window(self):
        stroke = TestDownsample.make_stroke(4)
        segs = decompose_segments([stroke], lam=4, overlap=1)
        assert len(segs) == 1

    def test_cuboid_segment_count(self):
        strokes = [TestDownsample.make_stroke(333, seed=i) for i in range(6)]
        segs = decompose_segments(strokes, lam=4, overlap=1)
        assert len(segs) == 6 * ((333 - 4) // 3 + 1) == 660

    def test_stroke_too_short(self):
        with pytest.raises(ValueError):
            decompose_segments([TestDownsample.make_stroke(3)], lam=4, overlap=1)

    def test_formula_matches_enumeration_exhaustively(self):
        for lam in range(2, 11):
            for overlap in range(1, lam):
                stride = lam - overlap
                for n in range(lam, 51):
                    enumerated = len(range(0, n - lam + 1, stride))
                    assert output_slot_count(n, lam, overlap) == enumerated

    def test_roundtrip_reassembly_bitwise(self):
        rng = np.random.default_rng(9)
        for cat in synthdata.CATEGORIES:
            rec = generate_object(cat, seed=13)
            lam = int(rng.integers(2, 7))
            overlap = int(rng.integers(1, lam))
            stride = lam - overlap
            for stroke in rec.strokes:
                segs = decompose_segments([stroke], lam, overlap)
                parts = [segs[0]] + [s[overlap:] for s in segs[1:]]
                rebuilt = np.concatenate(parts, axis=0)
                covered = (len(segs) - 1) * stride + lam
                assert np.array_equal(rebuilt, stroke[:covered])


class TestSlotCount:
    def test_examples(self):
        assert output_slot_count(2000, 4, 1) == 666
        assert output_slot_count(4, 4, 1) == 1
        assert output_slot_count(20, 4, 1) == 6

    def test_upper_bounds_decomposition(self):
        strokes = [TestDownsample.make_stroke(10, seed=1), TestDownsample.make_stroke(10, seed=2)]
        segs = decompose_segments(strokes, lam=4, overlap=1)
        assert output_slot_count(20, 4, 1) >= len(segs) == 6

    def test_random_decompositions_never_exceed_slots(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            lam = int(rng.integers(2, 8))
            overlap = int(rng.integers(0, lam))
            lengths = rng.integers(lam, 60, size=rng.integers(1, 6))
            k = sum(output_slot_count(int(n), lam, overlap) for n in lengths)
            assert k <= output_slot_count(int(lengths.sum()), lam, overlap)


class TestSplit:
    def test_proportions(self):
        train, test = split_dataset(list(range(100)), seed=0)
        assert (len(train), len(test)) == (80, 20)
        train, test = split_dataset(list(range(5)), seed=0)
        assert (len(train), len(test)) == (4, 1)

    def test_deterministic_and_disjoint(self):
        a = split_dataset(list(range(40)), seed=3)
        b = split_dataset(list(range(40)), seed=3)
        assert a == b
        assert not set(a[0]) & set(a[1])
        assert sorted(a[0] + a[1]) == list(range(40))

    def test_too_few(self):
        with pytest.raises(ValueError):
            split_dataset([1, 2, 3], seed=0)


class TestSerialization:
    def test_sample_roundtrip(self, tmp_path):
        rec = generate_object("windows", seed=21)
        synthdata.save_sample(rec, tmp_path / "s0")
        mesh, _ = geometry.load_mesh(tmp_path / "s0" / "mesh.txt")
        meta = read_keyvalues(tmp_path / "s0" / "meta.txt")
        strokes = synthdata.load_strokes(tmp_path / "s0" / "strokes.txt")
        again = synthdata.SampleRecord(mesh=mesh, strokes=strokes,
                                       category=meta["category"], seed=int(meta["seed"]))
        assert record_equal(rec, again)

    def test_strokes_roundtrip_in_order(self, tmp_path):
        # more than 1000 sets, so order must not depend on how wide an index is written
        strokes = [np.array([[k, 0, 1, 0, 0, -1]] * (1 + k % 3), dtype=np.float64)
                   for k in range(1001)]
        synthdata.save_strokes(strokes, tmp_path / "strokes.txt")
        again = synthdata.load_strokes(tmp_path / "strokes.txt")
        assert len(again) == len(strokes)
        assert all(np.array_equal(a, b) for a, b in zip(again, strokes))

    def test_load_strokes_rejects_non_finite_naming_the_file(self, tmp_path):
        path = tmp_path / "strokes.txt"
        synthdata.save_strokes([np.array([[0.0, 0, 1, 0, 0, -1]] * 3)], path)
        path.write_text(path.read_text() + "0 0 0 inf 0 0 -1\n")
        with pytest.raises(ValueError, match=path.name):
            synthdata.load_strokes(path)

    @pytest.mark.parametrize("case", MALFORMED + tuple(BAD_INDEX))
    def test_load_strokes_rejects_malformed_naming_the_file(self, tmp_path, case):
        path = tmp_path / "strokes.txt"
        path.write_text({**malformed_rows(POSE), **BAD_INDEX}[case])
        with pytest.raises(ValueError, match=path.name):
            synthdata.load_strokes(path)

    def test_segment_set_invariants(self):
        with pytest.raises(ValueError):
            decompose_segments([np.zeros((4, 6))], lam=4, overlap=4)
        with pytest.raises(ValueError):
            decompose_segments([np.zeros((3, 5))], lam=3, overlap=1)
