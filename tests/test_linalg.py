import numpy as np
import pytest

from hcntk import boundary, experiments, kernels, net, pde, train
from hcntk.errors import (
    DegenerateKernel,
    EigFailure,
    InvalidMatrix,
    ShapeError,
    UndefinedCorrelation,
)
from hcntk.linalg import (
    SymMatrix,
    average_ranks,
    cka,
    eig_sym,
    ensemble_stats,
    pairwise_cka,
    spearman,
)

from conftest import random_psd, random_sym, read_csv


class TestSymMatrix:
    def test_mirrors_upper_triangle(self):
        m = SymMatrix([[1.0, 2.0], [999.0, 3.0]])
        assert m.a[1, 0] == 2.0
        assert np.array_equal(m.a, m.a.T)

    def test_symmetric_array_held_without_copy(self):
        a = np.array([[1.0, 2.0], [2.0, 3.0]])
        assert SymMatrix(a).a is a
        b = np.array([[1.0, 2.0], [2.0 + 1e-15, 3.0]])
        assert not np.shares_memory(SymMatrix(b).a, b)

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidMatrix):
            SymMatrix(np.zeros((2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(InvalidMatrix):
            SymMatrix(np.zeros((0, 0)))


class TestEigSym:
    def test_identity(self):
        rep = eig_sym(SymMatrix(np.eye(2)))
        assert np.allclose(rep.eigenvalues, [1.0, 1.0])
        assert rep.eff_rank == pytest.approx(2.0)
        assert rep.kappa == pytest.approx(1.0)

    def test_hand_solved_2x2(self):
        # characteristic polynomial of [[2,1],[1,2]] is l^2 - 4l + 3 = (l-3)(l-1)
        rep = eig_sym(SymMatrix([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(rep.eigenvalues, [3.0, 1.0])
        assert rep.kappa == pytest.approx(3.0)
        assert rep.trace == pytest.approx(4.0)

    def test_1x1(self):
        rep = eig_sym(SymMatrix([[5.0]]))
        assert rep.eigenvalues[0] == pytest.approx(5.0)
        assert np.allclose(rep.eigenvectors, [[1.0]])

    @pytest.mark.parametrize("n", [2, 3, 10, 40, 100])
    def test_reconstruction_and_orthonormality(self, rng, n):
        for _ in range(5):
            m = SymMatrix(random_sym(rng, n))
            rep = eig_sym(m)
            rec = rep.eigenvectors @ np.diag(rep.eigenvalues) @ rep.eigenvectors.T
            assert np.linalg.norm(rec - m.a) <= 1e-7 * np.linalg.norm(m.a)
            gram = rep.eigenvectors.T @ rep.eigenvectors
            assert np.abs(gram - np.eye(n)).max() <= 1e-8

    def test_descending_order(self, rng):
        rep = eig_sym(SymMatrix(random_sym(rng, 20)))
        assert np.all(np.diff(rep.eigenvalues) <= 0)

    def test_invariants_vs_entries(self, rng):
        m = SymMatrix(random_psd(rng, 15))
        rep = eig_sym(m)
        assert rep.trace == pytest.approx(np.sum(rep.eigenvalues), rel=1e-8)
        assert rep.frob**2 == pytest.approx(np.sum(rep.eigenvalues**2), rel=1e-8)
        assert rep.eff_rank == pytest.approx(rep.trace**2 / rep.frob**2, rel=1e-10)

    def test_eff_rank_bounds_and_identity_case(self, rng):
        for n in (1, 3, 8):
            rep = eig_sym(SymMatrix(3.7 * np.eye(n)))
            assert rep.eff_rank == pytest.approx(float(n))
        rep = eig_sym(SymMatrix(random_psd(rng, 12)))
        assert 1.0 <= rep.eff_rank <= 12.0

    def test_nonfinite_rejected(self):
        a = np.eye(3)
        a[0, 1] = np.nan
        with pytest.raises(InvalidMatrix):
            eig_sym(SymMatrix(a))

    def test_lapack_failure_raises_and_surfaces_as_row(self, rng, tmp_path, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvalsh", _no_convergence)
        with pytest.raises(EigFailure):
            eig_sym(SymMatrix(random_sym(rng, 12)))
        cfg = {
            "schema_version": 1,
            "kind": "kr-spectrum",
            "benchmark": "poisson1d_sin",
            "seeds": [0],
            "network": {"hidden": [8, 8], "activation": "tanh"},
            "grid": {"n_per_axis": 12, "mode": "trimmed"},
            "families": [{"family": "power", "params": {"alpha": 1.0}}],
        }
        res = experiments.run_experiment(cfg, str(tmp_path / "out"))
        assert res.n_failures == 1
        header, (row,) = read_csv(tmp_path / "out" / "rows.csv")
        written = dict(zip(header, row))
        assert written["status"] == "eig-failure"
        assert all(np.isnan(float(written[c])) for c in experiments.SPECTRUM_COLS)

    def test_kappa_floor_for_nonpositive_lambda_min(self):
        rep = eig_sym(SymMatrix(np.diag([1.0, 0.0])))
        assert rep.kappa == pytest.approx(1e300)

    def test_eigenvector_failure_raises_on_first_read(self, rng, monkeypatch):
        rep = eig_sym(SymMatrix(random_sym(rng, 12)))
        monkeypatch.setattr(np.linalg, "eigh", _no_convergence)
        with pytest.raises(EigFailure, match="did not converge"):
            rep.eigenvectors


def _no_convergence(*args, **kwargs):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _small_kernels():
    """K_n, K_t and K_r of a small 1D network (2x16 tanh, 22 points)."""
    params = net.init_kaiming_uniform((1, 16, 16, 1), "tanh", 0)
    pair = boundary.make_pair("power", {"alpha": 1.0})
    points = train.build_grid(1, 24, "trimmed")
    problem = pde.benchmark("poisson1d_sin")
    return (kernels.assemble_kn(params, points), kernels.assemble_kt(params, pair, points),
            kernels.assemble_kr(params, problem, pair, points))


class TestValuesOnlySpectra:
    """Spectra come from the values-only solver; eigenvectors only when read."""

    def test_eigenvalues_are_eigvalsh_reversed_bitwise(self, rng):
        for m in (*_small_kernels(), SymMatrix(random_sym(rng, 30)), SymMatrix(random_psd(rng, 40, rank=5))):
            assert np.array_equal(eig_sym(m).eigenvalues, np.linalg.eigvalsh(m.a)[::-1])

    def test_lazy_eigenvectors_reconstruct_kernels(self):
        for m in _small_kernels():
            rep = eig_sym(m)
            rec = (rep.eigenvectors * rep.eigenvalues) @ rep.eigenvectors.T
            assert np.linalg.norm(rec - m.a) <= 1e-12 * np.linalg.norm(m.a)
            assert np.abs(rep.eigenvectors.T @ rep.eigenvectors - np.eye(m.n)).max() <= 1e-12

    def test_eigenvectors_computed_once_per_report(self, rng, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(a):
            calls.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        m = SymMatrix(random_sym(rng, 10))
        rep = eig_sym(m)
        assert calls == []
        first = rep.eigenvectors
        assert rep.eigenvectors is first
        assert calls == [(10, 10)]
        eig_sym(m).eigenvectors
        assert calls == [(10, 10), (10, 10)]

    @pytest.mark.parametrize("kind", ["kt-spectrum", "kr-spectrum", "kn-invariance-seed"])
    def test_sweeps_never_compute_eigenvectors(self, kind, tmp_path, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigh", _no_convergence)
        cfg = {
            "schema_version": 1,
            "kind": kind,
            "benchmark": "poisson1d_sin",
            "seeds": [0, 1],
            "network": {"hidden": [8, 8], "activation": "tanh"},
            "grid": {"n_per_axis": 12, "mode": "trimmed"},
        }
        if kind != "kn-invariance-seed":
            cfg["families"] = [{"family": "power", "params": {"alpha": a}} for a in (1.0, 2.0, 3.0)]
        res = experiments.run_experiment(cfg, str(tmp_path / "out"))
        assert res.n_failures == 0
        assert res.rows and all(row["status"] == "ok" for row in res.rows)

    def test_training_snapshot_never_computes_eigenvectors(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigh", _no_convergence)
        cfg = train.TrainConfig(
            benchmark="poisson1d_sin", family="power", params={"alpha": 1.0}, hidden=(8, 8),
            activation="tanh", seed=0, phases=(train.Phase("adam", 5, 1e-3),), grid_n=12,
            grid_mode="trimmed", snapshot_epochs=(0,), test_points=50,
        )
        rec = train.run(cfg)
        assert [p["status"] for p in rec.phase_statuses] == ["finished"]
        assert [s["epoch"] for s in rec.snapshots] == [0]
        assert all(np.isfinite(rec.snapshots[0][name]["lambda_max"]) for name in ("kn", "kt", "kr"))


def _assert_exact_decomposition(a, vals, vecs):
    ref = np.linalg.eigvalsh(a)
    lam_max = np.abs(ref).max()
    assert np.abs(np.sort(vals) - ref).max() <= 1e-10 * lam_max
    rec = vecs @ np.diag(vals) @ vecs.T
    assert np.linalg.norm(rec - a) <= 1e-10 * np.linalg.norm(a)


class TestEigSymRankDeficient:
    """Near-rank-deficient PSD kernels, as spectral collapse produces them."""

    @pytest.mark.parametrize("rank", [10, 30])
    def test_low_rank_psd_converges(self, rng, rank):
        for _ in range(9):
            m = SymMatrix(random_psd(rng, 100, rank=rank))
            rep = eig_sym(m)
            _assert_exact_decomposition(m.a, rep.eigenvalues, rep.eigenvectors)

    def test_power_boundary_kt_converges(self):
        params = net.init_kaiming_uniform((1, 64, 64, 1), "tanh", 0)
        pair = boundary.make_pair("power", {"alpha": 1.0})
        kt = kernels.assemble_kt(params, pair, train.build_grid(1, 100, "trimmed"))
        rep = eig_sym(kt)
        _assert_exact_decomposition(kt.a, rep.eigenvalues, rep.eigenvectors)


class TestCka:
    def test_self_similarity(self, rng):
        m = SymMatrix(random_psd(rng, 10))
        assert cka(m, m) == pytest.approx(1.0)

    def test_scale_invariance(self, rng):
        m = SymMatrix(random_psd(rng, 10))
        assert cka(m, SymMatrix(5.0 * m.a)) == pytest.approx(1.0)
        assert cka(SymMatrix(0.01 * m.a), m) == pytest.approx(1.0)

    def test_symmetric_and_in_range(self, rng):
        a = SymMatrix(random_psd(rng, 12))
        b = SymMatrix(random_psd(rng, 12))
        v = cka(a, b)
        assert v == pytest.approx(cka(b, a))
        assert 0.0 <= v <= 1.0 + 1e-12

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ShapeError):
            cka(SymMatrix(np.eye(3)), SymMatrix(np.eye(4)))

    def test_constant_matrix_degenerate(self):
        const = SymMatrix(np.full((5, 5), 2.0))
        with pytest.raises(DegenerateKernel):
            cka(const, SymMatrix(np.eye(5)))


def _cka_reference(a, b):
    # The textbook formula with the centering matrix H = I - (1/n) 1 1^T formed explicitly.
    h = np.eye(len(a)) - 1.0 / len(a)
    ac, bc = h @ a @ h, h @ b @ h
    return np.sum(ac * bc) / np.sqrt(np.sum(ac * ac) * np.sum(bc * bc))


class TestPairwiseCka:
    def test_matches_pair_loop_in_upper_triangle_order(self, rng):
        base = [random_psd(rng, 9) for _ in range(8)]
        arrays = base + [3.0 * base[0], 0.2 * base[1], 1e4 * base[2], base[3]]
        got = pairwise_cka([SymMatrix(a) for a in arrays])
        pairs = [(i, j) for i in range(len(arrays)) for j in range(i + 1, len(arrays))]
        ref = [_cka_reference(arrays[i], arrays[j]) for i, j in pairs]
        assert got.shape == (len(pairs),)
        assert np.abs(got - ref).max() <= 1e-14
        for orig in range(4):  # the scaled copies 8..11 of kernels 0..3
            assert got[pairs.index((orig, 8 + orig))] == pytest.approx(1.0, abs=1e-14)

    def test_constant_kernel_degenerate(self, rng):
        mats = [SymMatrix(random_psd(rng, 5)) for _ in range(3)]
        mats.insert(1, SymMatrix(np.full((5, 5), 2.0)))
        with pytest.raises(DegenerateKernel):
            pairwise_cka(mats)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ShapeError):
            pairwise_cka([SymMatrix(random_psd(rng, 4)), SymMatrix(np.eye(4)), SymMatrix(np.eye(5))])


class TestEnsembleStats:
    def test_identical_matrices(self, rng):
        m = SymMatrix(random_psd(rng, 6))
        st = ensemble_stats([m, m])
        assert np.all(st.std == 0.0)
        assert st.cv_mean == 0.0 and st.cv_max == 0.0

    def test_two_point_formula(self):
        # values {2, 4}: mean 3, population sigma 1, CV 1/3
        a = SymMatrix(np.full((2, 2), 2.0))
        b = SymMatrix(np.full((2, 2), 4.0))
        st = ensemble_stats([a, b])
        assert np.allclose(st.mean, 3.0)
        assert np.allclose(st.std, 1.0)
        assert np.allclose(st.cv, 1.0 / 3.0)

    def test_population_normalization(self, rng):
        mats = [SymMatrix(random_sym(rng, 4)) for _ in range(7)]
        st = ensemble_stats(mats)
        stack = np.stack([m.a for m in mats])
        assert np.allclose(st.std, stack.std(axis=0, ddof=0))

    def test_zero_mean_flagged_not_divided(self):
        a = SymMatrix([[1.0, -1.0], [-1.0, 1.0]])
        b = SymMatrix([[1.0, 1.0], [1.0, 1.0]])
        st = ensemble_stats([a, b])
        assert st.zero_mean_mask[0, 1]
        assert np.isnan(st.cv[0, 1])
        assert np.isfinite(st.cv_mean)

    def test_shape_errors(self, rng):
        with pytest.raises(ShapeError):
            ensemble_stats([SymMatrix(np.eye(2))])
        with pytest.raises(ShapeError):
            ensemble_stats([SymMatrix(np.eye(2)), SymMatrix(np.eye(3))])


def brute_force_ranks(x):
    # independent oracle: rank by explicit comparison counting, ties averaged
    x = np.asarray(x, dtype=float)
    out = np.empty(x.size)
    for i, v in enumerate(x):
        less = np.sum(x < v)
        equal = np.sum(x == v)
        out[i] = less + (equal + 1) / 2.0
    return out


class TestSpearman:
    def test_monotone_increasing(self):
        assert spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        assert spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_tied_ranks_vs_oracle(self):
        x = [1.0, 2.0, 2.0, 4.0]
        y = [1.0, 3.0, 3.0, 2.0]
        rx, ry = brute_force_ranks(x), brute_force_ranks(y)
        dx, dy = rx - rx.mean(), ry - ry.mean()
        expected = float(dx @ dy) / np.sqrt(float(dx @ dx) * float(dy @ dy))
        assert spearman(x, y) == pytest.approx(expected)
        assert expected == pytest.approx(1.0 / 3.0)

    def test_average_ranks_match_oracle(self, rng):
        for _ in range(20):
            x = rng.integers(0, 5, size=12).astype(float)
            if np.all(x == x[0]):
                continue
            assert np.allclose(average_ranks(x), brute_force_ranks(x))

    def test_permutation_invariance_to_monotone_map(self, rng):
        x = rng.standard_normal(30)
        y = rng.standard_normal(30)
        rho = spearman(x, y)
        assert spearman(np.exp(x), y) == pytest.approx(rho)

    def test_undefined_for_constant(self):
        with pytest.raises(UndefinedCorrelation):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_checks(self):
        with pytest.raises(ShapeError):
            spearman([1, 2], [1, 2])
        with pytest.raises(ShapeError):
            spearman([1, 2, 3], [1, 2])
