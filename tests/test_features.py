import numpy as np
import pytest

from seqlpd import cloud, features, kernels
from seqlpd.errors import InvalidParams

from oracles import feature_knn_oracle, knn_oracle, local_feature_oracle


def _random_submap(rng, n=200):
    pts = rng.uniform(-1.0, 1.0, size=(n, 3))
    return cloud.Submap(points=pts, scale=1.0)


def _stats(nb):
    """kernels.local_stats of one neighborhood: (dz_max, z_var, s2d, l2d)."""
    nb = np.asarray(nb, dtype=np.float64)
    return kernels.local_stats(nb, np.arange(nb.shape[0])[None, :])[0]


def _planar_eigen(nb):
    """Ascending eigenvalues of the 2x2 population covariance of (x, y), by numpy.linalg."""
    xy = nb[:, :2] - nb[:, :2].mean(axis=0)
    return np.sort(np.linalg.eigvalsh((xy.T @ xy) / len(nb)))


def test_z_stats_hand_case():
    nb = np.array([[0, 0, 0.0], [0, 0, 1.0], [0, 0, 2.0]])
    dz, zv = _stats(nb)[:2]
    assert dz == 2.0
    assert zv == pytest.approx(2.0 / 3.0)   # population variance of {0,1,2}


def test_z_stats_constant_height():
    nb = np.tile([1.0, 2.0, 5.0], (4, 1))
    dz, zv = _stats(nb)[:2]
    assert dz == 0.0 and zv == 0.0


def test_planar_eigen_axis_aligned():
    # x spread 2 units, y spread 1 unit, uncorrelated
    nb = np.array([[-1, 0, 0], [1, 0, 0], [0, -0.5, 0], [0, 0.5, 0.0]])
    s2d, l2d = _stats(nb)[2:]
    lam = _planar_eigen(nb)
    assert s2d == pytest.approx(lam[0] + lam[1], rel=1e-12)
    assert l2d == pytest.approx(lam[0] / lam[1], rel=1e-12)


def test_planar_eigen_matches_numpy_randomized():
    rng = np.random.default_rng(0)
    for _ in range(300):
        nb = rng.normal(size=(rng.integers(2, 30), 3))
        s2d, l2d = _stats(nb)[2:]
        lam = np.clip(_planar_eigen(nb), 0.0, None)
        assert s2d == pytest.approx(lam[0] + lam[1], rel=1e-9, abs=1e-12)
        assert l2d == pytest.approx(lam[0] / lam[1], rel=1e-9, abs=1e-12)
        assert 1.0 >= l2d >= 0.0


def test_planar_eigen_collinear_gives_zero_l2():
    t = np.linspace(0, 1, 9)
    nb = np.stack([t, 2.0 * t, np.zeros_like(t)], axis=1)
    s2d, l2d = _stats(nb)[2:]
    assert s2d > 0.0
    assert l2d == pytest.approx(0.0, abs=1e-12)


def test_local_features_match_oracle():
    rng = np.random.default_rng(5)
    sub = _random_submap(rng, n=150)
    k = 12
    got = features.local_features(sub, k=k)
    nbr = knn_oracle(sub.points, sub.points, k)
    for i in range(len(sub)):
        dz, zv, s2d, l2d = local_feature_oracle(sub.points, nbr[i])
        np.testing.assert_allclose(got[i], [dz, zv, s2d, l2d], rtol=1e-9, atol=1e-12)


def test_local_features_ranges():
    rng = np.random.default_rng(6)
    sub = _random_submap(rng, n=300)
    f = features.local_features(sub, k=20)
    assert f.shape == (300, 4)
    assert (f[:, 0] >= 0).all() and (f[:, 0] <= 2.0 + 1e-12).all()
    assert (f[:, 1] >= 0).all()
    assert (f[:, 2] >= 0).all()
    assert (f[:, 3] >= 0).all() and (f[:, 3] <= 1.0 + 1e-12).all()


def test_local_features_s2d_equals_var_sum():
    rng = np.random.default_rng(7)
    sub = _random_submap(rng, n=80)
    k = 10
    f = features.local_features(sub, k=k)
    nbr = knn_oracle(sub.points, sub.points, k)
    for i in range(len(sub)):
        nb = sub.points[nbr[i]]
        var_sum = nb[:, 0].var() + nb[:, 1].var()   # population variances
        assert f[i, 2] == pytest.approx(var_sum, rel=1e-9, abs=1e-12)


def test_local_features_duplicate_points():
    pts = np.zeros((30, 3))
    pts[10:] = [0.5, 0.5, 0.5]
    sub = cloud.Submap(points=pts, scale=1.0)
    f = features.local_features(sub, k=5)
    assert np.isfinite(f).all()
    # a neighborhood of identical points is featureless
    assert (f[0] == 0.0).all()


def test_local_features_k_saturates_small_cloud():
    rng = np.random.default_rng(8)
    sub = _random_submap(rng, n=6)
    f = features.local_features(sub, k=50)
    assert f.shape == (6, 4)


def test_local_features_rejects_tiny_k():
    rng = np.random.default_rng(9)
    sub = _random_submap(rng, n=10)
    with pytest.raises(InvalidParams):
        features.local_features(sub, k=1)


def test_feature_knn_matches_oracle_with_duplicates():
    from seqlpd import kernels
    rng = np.random.default_rng(10)
    feats = rng.normal(size=(60, 8))
    feats[20] = feats[3]
    feats[40] = feats[3]
    got = kernels.feature_knn(feats, 6)
    np.testing.assert_array_equal(got, feature_knn_oracle(feats, 6))
