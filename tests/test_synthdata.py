import numpy as np
import pytest

from sprayseg import synthdata
from sprayseg.synthdata import (
    decompose_segments,
    downsample_strokes,
    generate_object,
    output_slot_count,
    split_dataset,
    validate_strokes,
)


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
        validate_strokes(rec.strokes)

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
        validate_strokes(rec.strokes)
        verts = rec.mesh.vertices
        for s in rec.strokes:
            for pose in s[:: max(1, len(s) // 25)]:
                d = verts - pose[:3]
                nearest = d[np.argmin((d * d).sum(axis=1))]
                gap = np.linalg.norm(nearest)
                assert gap > 0.02, "stroke must keep a positive stand-off"
                assert pose[3:] @ nearest > 0, "orientation must face the surface"


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
        again = synthdata.load_sample(tmp_path / "s0")
        assert record_equal(rec, again)

    def test_load_strokes_rejects_non_finite_naming_the_file(self, tmp_path):
        synthdata.save_strokes([np.array([[0.0, 0, 1, 0, 0, -1]] * 3)], tmp_path)
        path = sorted(tmp_path.glob("stroke_*.txt"))[0]
        path.write_text(path.read_text() + "0 0 inf 0 0 -1\n")
        with pytest.raises(ValueError, match=path.name):
            synthdata.load_strokes(tmp_path)

    def test_segment_set_invariants(self):
        with pytest.raises(ValueError):
            decompose_segments([np.zeros((4, 6))], lam=4, overlap=4)
        with pytest.raises(ValueError):
            decompose_segments([np.zeros((3, 5))], lam=3, overlap=1)
