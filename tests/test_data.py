import numpy as np
import pytest
from scipy import sparse

from netconsensus import data


class TestLoadSparseText:
    def test_single_line(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("+1 3:0.5 7:1.0\n")
        ds = data.load_sparse_text(path)
        assert ds.n_examples == 1
        assert ds.X.nnz == 2
        assert ds.y.tolist() == [1]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        ds = data.load_sparse_text(path)
        assert ds.n_examples == 0
        assert ds.d == 0

    def test_ten_line_fixture_reconstruction(self, tmp_path):
        rows = []
        rng = np.random.default_rng(3)
        for i in range(10):
            label = "+1" if i % 2 == 0 else "-1"
            feats = {int(j): round(float(rng.random()), 6) for j in rng.choice(12, size=3, replace=False)}
            rows.append((label, feats))
        lines = [
            f"{label} " + " ".join(f"{j}:{v}" for j, v in sorted(feats.items()))
            for label, feats in rows
        ]
        path = tmp_path / "fixture.txt"
        path.write_text("\n".join(lines) + "\n")
        ds = data.load_sparse_text(path)
        assert ds.n_examples == 10
        dense = ds.X.toarray()
        for i, (label, feats) in enumerate(rows):
            assert ds.y[i] == (1 if label == "+1" else -1)
            for j, v in feats.items():
                assert dense[i, j] == pytest.approx(v, abs=0)
            assert np.count_nonzero(dense[i]) == len(feats)

    def test_zero_one_labels_remapped(self, tmp_path):
        path = tmp_path / "zo.txt"
        path.write_text("0 0:1.0\n1 1:2.0\n")
        ds = data.load_sparse_text(path)
        assert ds.y.tolist() == [-1, 1]

    def test_multiclass_rejected_without_target(self, tmp_path):
        path = tmp_path / "mc.txt"
        path.write_text("3 0:1.0\n8 1:2.0\n1 2:0.5\n")
        with pytest.raises(data.DatasetFormatError, match=r"mc\.txt: labels \[1\.0, 3\.0, 8\.0\] are not binary; "
                                                           r"want -1/\+1 or 0/1$"):
            data.load_sparse_text(path)

    def test_nan_token_rejected(self, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("+1 0:nan\n")
        with pytest.raises(data.DatasetFormatError, match="non-finite"):
            data.load_sparse_text(path)

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("+1 0:1.0\n-1 oops\n")
        with pytest.raises(data.DatasetFormatError, match=":2:"):
            data.load_sparse_text(path)

    def test_repeated_index_rejected(self, tmp_path):
        path = tmp_path / "rep.txt"
        path.write_text("-1 0:1.0\n+1 3:1.0 3:2.0\n")
        with pytest.raises(data.DatasetFormatError, match=r"rep\.txt:2: repeated feature index 3"):
            data.load_sparse_text(path)

    def test_index_base_autodetect(self, tmp_path):
        zero_based = tmp_path / "zb.txt"
        zero_based.write_text("+1 0:1.0 4:2.0\n")
        assert data.load_sparse_text(zero_based).d == 5
        one_based = tmp_path / "ob.txt"
        one_based.write_text("+1 1:1.0 5:2.0\n")
        assert data.load_sparse_text(one_based).d == 5


class TestSaveRoundTrip:
    def test_full_precision_roundtrip(self, tmp_path):
        ds = data.make_blobs(50, 7, margin=1.5, seed=9)
        path = tmp_path / "out.txt"
        dense = np.asarray(ds.X)
        with path.open("w") as fh:
            for label, row in zip(ds.y, dense):
                feats = " ".join(f"{j + 1}:{float(v)!r}" for j, v in enumerate(row) if v != 0.0)
                fh.write(f"{label:+d} {feats}\n")
        back = data.load_sparse_text(path)
        assert back.n_examples == ds.n_examples
        assert np.array_equal(back.y, ds.y)
        assert np.array_equal(back.X.toarray(), dense)


class TestPartition:
    def test_exact_fit(self):
        ds = data.make_blobs(100, 3, margin=1.0, seed=0)
        shards = data.partition_equal(ds, 100, seed=1)
        assert all(len(s) == 1 for s in shards)

    def test_one_extra_example(self):
        ds = data.make_blobs(101, 3, margin=1.0, seed=0)
        shards = data.partition_equal(ds, 100, seed=1)
        lengths = sorted(len(s) for s in shards)
        assert lengths == [1] * 99 + [2]

    @pytest.mark.parametrize("n_nodes,seed", [(7, 0), (13, 5), (100, 2)])
    def test_disjoint_cover(self, n_nodes, seed):
        ds = data.make_blobs(500, 4, margin=1.0, seed=3)
        joined = np.concatenate(data.partition_equal(ds, n_nodes, seed=seed))
        assert len(joined) == 500
        assert len(np.unique(joined)) == 500

    def test_fewer_examples_than_nodes_flagged(self):
        ds = data.make_blobs(5, 2, margin=1.0, seed=0)
        shards = data.partition_equal(ds, 10, seed=0)
        assert sorted(len(s) for s in shards) == [0] * 5 + [1] * 5

    def test_class_balance_per_shard(self):
        ds = data.make_blobs(10_000, 5, margin=1.0, seed=4)
        for shard in data.partition_equal(ds, 100, seed=8):
            positive = float(np.mean(ds.y[shard] == 1))
            assert 0.3 <= positive <= 0.7

    def test_deterministic(self):
        ds = data.make_blobs(200, 3, margin=1.0, seed=0)
        a = data.partition_equal(ds, 9, seed=5)
        b = data.partition_equal(ds, 9, seed=5)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa, sb)


class TestMakeBlobs:
    def test_deterministic(self):
        a = data.make_blobs(60, 4, margin=2.0, seed=11)
        b = data.make_blobs(60, 4, margin=2.0, seed=11)
        assert np.array_equal(np.asarray(a.X), np.asarray(b.X))
        assert np.array_equal(a.y, b.y)

    def test_two_dimensional_separability_by_exhaustive_search(self):
        # exhaustive sweep of hyperplanes through the origin in 2-D
        ds = data.make_blobs(40, 2, margin=6.0, seed=2)
        points = np.asarray(ds.X)
        separable = False
        for theta in np.linspace(0.0, np.pi, 3600, endpoint=False):
            normal = np.array([np.cos(theta), np.sin(theta)])
            scores = ds.y * (points @ normal)
            if np.all(scores > 0) or np.all(scores < 0):
                separable = True
                break
        assert separable

    def test_margin_required_positive(self):
        with pytest.raises(ValueError):
            data.make_blobs(10, 2, margin=0.0, seed=0)

    @pytest.mark.parametrize("args, message", [
        ((-4, 2, 2.0, 0), "n_examples must be >= 0, got -4"),
        ((400, -1, 2.0, 0), "d must be >= 0, got -1"),
        ((400, 2, float("nan"), 0), "margin must be > 0 and finite, got nan"),
        ((400, 2, float("inf"), 0), "margin must be > 0 and finite, got inf"),
        ((400, 2, -2.0, 0), "margin must be > 0 and finite, got -2.0"),
        ((400, 2, 2.0, -4), "seed must be >= 0, got -4"),
    ], ids=["negative-n", "negative-d", "nan-margin", "infinite-margin", "negative-margin", "negative-seed"])
    def test_bad_argument_named(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            data.make_blobs(*args)

    def test_labels_are_pm_one(self):
        ds = data.make_blobs(30, 3, margin=1.0, seed=1)
        assert set(np.unique(ds.y)) <= {-1, 1}

    def test_features_are_the_dense_draw(self):
        ds = data.make_blobs(30, 3, margin=1.0, seed=1)
        assert type(ds.X) is np.ndarray
        assert ds.X.dtype == np.float64 and ds.X.shape == (30, 3)
        assert ds.X.flags.c_contiguous


class TestLabeledDataset:
    @pytest.mark.parametrize("form", [np.asarray, sparse.csr_matrix], ids=["dense", "csr"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_feature_rejected(self, form, bad):
        X = np.array([[1.0, 0.0], [0.5, 2.0]])
        X[1, 1] = bad
        with pytest.raises(ValueError, match="^features contain NaN/Inf$"):
            data.LabeledDataset(form(X), np.array([1, -1]))


class TestTrainTestSplit:
    def test_disjoint_cover(self):
        ds = data.make_blobs(100, 3, margin=1.0, seed=0)
        train, test = data.train_test_split(ds, 0.25, seed=3)
        assert train.n_examples + test.n_examples == 100
        assert test.n_examples == 25
