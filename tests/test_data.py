"""Dataset generation, loading, splitting, standardization, outlier injection.

Oracles: a hand-stepped scalar bounce simulation, chi-distribution moments,
and recomputation of standardization statistics from raw rows.
"""

import numpy as np
import pytest

from structvi import data
from structvi.errors import ContractError, ParseError


class TestDataset:
    @pytest.mark.parametrize("seq_len", [0, -3])
    def test_nonpositive_seq_len_is_contract_error(self, seq_len):
        with pytest.raises(ContractError, match="seq_len must be at least 1"):
            data.Dataset(rows=np.zeros((9, 2)), seq_len=seq_len)


class TestPinwheel:
    def test_shape_and_counts(self):
        ds = data.pinwheel(n_per_arm=100, seed=0)
        assert ds.rows.shape == (500, 2)
        assert ds.labels.shape == (500,)
        for j in range(5):
            assert np.sum(ds.labels == j) == 100

    def test_default_size_matches_paper_scale(self):
        ds = data.pinwheel(seed=0)
        assert ds.rows.shape == (5000, 2)

    def test_determinism(self):
        a = data.pinwheel(n_per_arm=50, seed=3)
        b = data.pinwheel(n_per_arm=50, seed=3)
        np.testing.assert_array_equal(a.rows, b.rows)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_rate_zero_gives_straight_arms(self):
        """With no spiraling each arm hugs a fixed direction."""
        ds = data.pinwheel(n_per_arm=200, rate=0.0, seed=1)
        base = 2 * np.pi * np.arange(5) / 5
        for j in range(5):
            pts = ds.rows[ds.labels == j]
            c, s = np.cos(-base[j]), np.sin(-base[j])
            back = pts @ np.array([[c, -s], [s, c]]).T
            assert np.mean(np.abs(back[:, 1])) < 0.1
            assert np.mean(back[:, 0]) == pytest.approx(1.0, abs=0.1)

    def test_arms_separable_by_knn(self):
        """Leave-one-out 5-NN label agreement above 0.9 at default noise."""
        ds = data.pinwheel(n_per_arm=100, seed=2)
        d2 = np.sum((ds.rows[:, None, :] - ds.rows[None, :, :]) ** 2, axis=-1)
        np.fill_diagonal(d2, np.inf)
        order = np.argsort(d2, axis=1)[:, :5]
        votes = ds.labels[order]
        pred = np.array(
            [np.bincount(v, minlength=5).argmax() for v in votes]
        )
        assert np.mean(pred == ds.labels) > 0.9


class TestDotSequences:
    def test_shapes(self):
        ds = data.dot_sequences(n_seq=4, t_len=10, width_d=20, seed=0)
        assert ds.rows.shape == (40, 20)
        assert ds.seq_len == 10
        assert ds.n_seqs == 4
        assert ds.sequences().shape == (4, 10, 20)

    def test_rows_normalized(self):
        ds = data.dot_sequences(n_seq=3, t_len=8, width_d=15, seed=1)
        np.testing.assert_allclose(ds.rows.sum(axis=1), 1.0, atol=1e-6)

    def test_speed_zero_frames_identical(self):
        ds = data.dot_sequences(n_seq=2, t_len=6, width_d=12, speed=0.0, seed=2)
        seqs = ds.sequences()
        for s in seqs:
            np.testing.assert_array_equal(s, np.broadcast_to(s[0], s.shape))

    def test_bounce_against_scalar_simulation(self):
        """Closed-form fold vs an explicit step-and-reflect loop."""
        length = 9.0
        for p0, v in [(0.5, 1.3), (8.7, -2.1), (4.0, 0.7), (0.0, 3.9)]:
            t = np.arange(60)
            closed = data.bounce_positions(p0, v, t, length)
            p, vel = p0, v
            for step in range(60):
                assert closed[step] == pytest.approx(p, abs=1e-9)
                p += vel
                while p > length or p < 0.0:
                    if p > length:
                        p = 2 * length - p
                    else:
                        p = -p
                    vel = -vel

    def test_determinism(self):
        a = data.dot_sequences(n_seq=2, t_len=5, width_d=10, seed=9)
        b = data.dot_sequences(n_seq=2, t_len=5, width_d=10, seed=9)
        np.testing.assert_array_equal(a.rows, b.rows)


class TestLoadAndExport:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "small.txt"
        path.write_text("a b label\n1.5 2.0 0\n-0.5 3.25 1\n0.125 -7.0 0\n")
        ds = data.load_delimited(path, has_labels=True, label_column=2)
        np.testing.assert_array_equal(
            ds.rows, [[1.5, 2.0], [-0.5, 3.25], [0.125, -7.0]]
        )
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])
        out = tmp_path / "echo.txt"
        data.export(ds, out)
        back = data.load_delimited(out, has_labels=True, label_column=2)
        np.testing.assert_array_equal(back.rows, ds.rows)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_comma_delimited(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        ds = data.load_delimited(path)
        np.testing.assert_array_equal(ds.rows, [[1.0, 2.0], [3.0, 4.0]])

    def test_label_header_read_alike_for_either_delimiter(self, tmp_path):
        table = [["x0", "x1", "label"], ["1.5", "2.0", "0"], ["-0.5", "3.25", "1"]]
        for name, sep in (("w.txt", " "), ("c.csv", ","), ("cs.csv", ", ")):
            path = tmp_path / name
            path.write_text("".join(sep.join(line) + "\n" for line in table))
            ds = data.load_delimited(path, has_labels=None)
            np.testing.assert_array_equal(ds.rows, [[1.5, 2.0], [-0.5, 3.25]])
            np.testing.assert_array_equal(ds.labels, [0, 1])

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            data.load_delimited(tmp_path / "nope.txt")

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 2.0\n3.0\n")
        with pytest.raises(ParseError, match="line 2"):
            data.load_delimited(path)

    def test_non_numeric_cell_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 2.0\n3.0 4.0\nx 6.0\n")
        with pytest.raises(ParseError, match="line 3"):
            data.load_delimited(path)

    def test_provenance_records_hash(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("1.0 2.0\n")
        ds = data.load_delimited(path)
        assert "sha256" in ds.provenance
        assert len(ds.provenance["sha256"]) == 64


class TestSplit:
    def test_counts_exact(self):
        ds = data.pinwheel(n_per_arm=1000, seed=0)
        ds = data.split(ds, seed=1)
        assert ds.train_idx.size == 3500
        assert ds.val_idx.size == 750
        assert ds.test_idx.size == 750

    def test_partition(self):
        ds = data.split(data.pinwheel(n_per_arm=20, seed=0), seed=1)
        merged = np.concatenate([ds.train_idx, ds.val_idx, ds.test_idx])
        np.testing.assert_array_equal(np.sort(merged), np.arange(100))

    def test_determinism(self):
        base = data.pinwheel(n_per_arm=20, seed=0)
        a = data.split(base, seed=5)
        b = data.split(base, seed=5)
        np.testing.assert_array_equal(a.train_idx, b.train_idx)

    def test_sequences_stay_whole(self):
        ds = data.dot_sequences(n_seq=10, t_len=4, width_d=8, seed=0)
        ds = data.split(ds, seed=2)
        for idx in (ds.train_idx, ds.val_idx, ds.test_idx):
            seqs = np.unique(idx // 4)
            np.testing.assert_array_equal(
                np.sort(idx), np.sort((seqs[:, None] * 4 + np.arange(4)).ravel())
            )


class TestStandardize:
    def test_train_stats_only(self):
        rng = np.random.default_rng(0)
        ds = data.Dataset(rows=rng.normal(3.0, 2.5, size=(200, 4)))
        ds = data.split(ds, seed=1)
        std_ds, mean, scale = data.standardize(ds)
        train = std_ds.rows[std_ds.train_idx]
        assert np.all(np.abs(train.mean(axis=0)) < 1e-12)
        np.testing.assert_allclose(train.var(axis=0), 1.0, atol=1e-10)
        # held-out rows transformed with the training statistics, not their own
        raw_train = ds.rows[ds.train_idx]
        np.testing.assert_allclose(mean, raw_train.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(scale, raw_train.std(axis=0), rtol=1e-12)
        np.testing.assert_allclose(
            std_ds.rows[ds.test_idx], (ds.rows[ds.test_idx] - mean) / scale, rtol=1e-12
        )

    def test_requires_split(self):
        ds = data.Dataset(rows=np.ones((5, 2)))
        with pytest.raises(Exception):
            data.standardize(ds)


class TestInjectOutliers:
    def test_fraction_zero_identity(self):
        ds = data.pinwheel(n_per_arm=20, seed=0)
        out = data.inject_outliers(ds, fraction=0.0, outlier_std=10.0, seed=1)
        np.testing.assert_array_equal(out.rows, ds.rows)
        assert out.outlier_flags.sum() == 0

    def test_replaces_exact_count(self):
        ds = data.pinwheel(n_per_arm=97, seed=0)  # N = 485
        out = data.inject_outliers(ds, fraction=0.7, outlier_std=10.0, seed=1)
        assert out.outlier_flags.sum() == int(0.7 * 485)
        changed = np.any(out.rows != ds.rows, axis=1)
        np.testing.assert_array_equal(changed, out.outlier_flags)

    def test_replaced_norms_match_chi_moments(self):
        """For N(0, s^2 I_2) the squared norm averages 2 s^2."""
        rng = np.random.default_rng(3)
        ds = data.Dataset(rows=rng.standard_normal((4000, 2)))
        s = 8.0
        out = data.inject_outliers(ds, fraction=0.9, outlier_std=s, seed=4)
        norms2 = np.sum(out.rows[out.outlier_flags] ** 2, axis=1)
        n = norms2.size
        se = norms2.std() / np.sqrt(n)
        assert abs(norms2.mean() - 2 * s**2) < 4 * se

    def test_restricted_to_given_indices(self):
        ds = data.split(data.pinwheel(n_per_arm=40, seed=0), seed=1)
        out = data.inject_outliers(
            ds, fraction=0.5, outlier_std=10.0, seed=2, indices=ds.train_idx
        )
        assert out.outlier_flags.sum() == ds.train_idx.size // 2
        assert not np.any(out.outlier_flags[ds.val_idx])
        assert not np.any(out.outlier_flags[ds.test_idx])
