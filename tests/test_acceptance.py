"""Release gate: eleven end-to-end criteria with pinned tolerances.

Each criterion is one test; every sub-check inside a test carries the
tolerance it must meet, and each test ends by printing a one-line summary
(visible with ``pytest -v -s``).  Criterion 10 is informational only: it
reports timings but never fails on them.
"""

import os
import time

import numpy as np
import pytest

from oracles import (orthogonal_to, quadruplet_oracle, random_unit,
                     retrieval_oracle, trajectory_score_oracle)
from seqlpd import cli, cluster, config, kernels, metrics, net, placemap
from seqlpd import seqmatch, synth
from seqlpd.cloud import Pose, SpatialIndex, Submap, load_kitti_bin, normalize_submap
from seqlpd.errors import FormatError
from seqlpd.features import local_features
from seqlpd.placemap import PlaceEntry, PlaceMap
from seqlpd.seqmatch import MatchParams


def _report(num, detail):
    print(f"[acceptance] criterion {num}: PASS ({detail})")


def _exhaustive_knn(pts, queries, k, exclude_self=False):
    """O(N^2) reference: full distance matrix + stable argsort (ties by index)."""
    pts = np.asarray(pts, dtype=np.float64)
    qs = np.asarray(queries, dtype=np.float64)
    n = pts.shape[0]
    kk = min(k, n - 1) if exclude_self else min(k, n)
    out = np.empty((qs.shape[0], kk), dtype=np.int64)
    block = max(1, int(4e6 // max(1, n)))
    for s in range(0, qs.shape[0], block):
        e = min(s + block, qs.shape[0])
        d2 = ((qs[s:e, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        if exclude_self:
            rows = np.arange(e - s)
            d2[rows, s + rows] = np.inf
        out[s:e] = np.argsort(d2, axis=1, kind="stable")[:, :kk]
    return out


def _unit_map(descs):
    pmap = PlaceMap()
    for i, row in enumerate(descs):
        pmap.insert(PlaceEntry(i, Pose(float(i), 0.0, 0.0, i), row))
    return pmap


def test_criterion_01_knn_oracle_equivalence():
    rng = np.random.default_rng(101)
    sizes = np.concatenate([rng.integers(100, 1500, size=90),
                            rng.integers(3000, 5001, size=10)])
    rng.shuffle(sizes)
    elapsed = 0.0
    for trial, n in enumerate(sizes):
        n = int(n)
        pts = rng.uniform(-25.0, 25.0, size=(n, 3))
        if trial % 7 == 0:
            pts[int(rng.integers(0, n))] = pts[int(rng.integers(0, n))]
        t0 = time.perf_counter()
        index = SpatialIndex(pts)
        got_spatial = index.knn_all(20)
        elapsed += time.perf_counter() - t0
        assert np.array_equal(got_spatial, _exhaustive_knn(pts, pts, 20))
        ext = rng.uniform(-30.0, 30.0, size=(3, 3))
        t0 = time.perf_counter()
        got_ext = np.stack([index.knn(q, 20) for q in ext])
        elapsed += time.perf_counter() - t0
        assert np.array_equal(got_ext, _exhaustive_knn(pts, ext, 20))

        feats = rng.normal(size=(n, 4))
        t0 = time.perf_counter()
        got_feat = kernels.feature_knn(feats, 20)
        elapsed += time.perf_counter() - t0
        assert np.array_equal(got_feat,
                              _exhaustive_knn(feats, feats, 20, exclude_self=True))
    assert elapsed < 30.0
    _report(1, f"100 clouds exact, knn time {elapsed:.2f}s < 30s")


def test_criterion_02_eigen_closed_form():
    rng = np.random.default_rng(102)
    worst = 0.0
    for trial in range(1000):
        n = int(rng.integers(3, 50))
        nb = rng.uniform(-5.0, 5.0, size=(n, 3)) * rng.uniform(1e-3, 10.0)
        if trial % 10 == 0:  # collinear: lam2 exactly zero up to round-off
            nb[:, 1] = 0.7 * nb[:, 0] + 2.0
        _, _, s2d, l2d = kernels.local_stats(nb, np.arange(n)[None, :])[0]
        xy = nb[:, :2] - nb[:, :2].mean(axis=0)
        ref = np.linalg.eigvalsh(xy.T @ xy / n)
        lam1, lam2 = ref[1], max(ref[0], 0.0)
        l2d_want = lam2 / lam1 if lam1 >= 1e-12 else 0.0
        s2d_var = nb[:, 0].var() + nb[:, 1].var()
        for got, want in ((s2d, lam1 + lam2), (l2d, l2d_want), (s2d, s2d_var)):
            err = abs(got - want) / max(1.0, abs(want))
            worst = max(worst, err)
            assert err <= 1e-9
    _report(2, f"1000 neighborhoods, worst relative error {worst:.2e} <= 1e-9")


ACC_NET = net.NetConfig(k_graph=6, vlad_clusters=8, point_mlp=(16, 16),
                        edge_mlp=(16, 24), post_mlp=(48,), tnet_mlp=(8, 12, 16),
                        tnet_fc=(12, 8), descriptor_dim=32)


def test_criterion_03_descriptor_invariants(monkeypatch, tmp_path):
    rng = np.random.default_rng(103)
    # frames of 60-160 points for the batch path, which resamples each to n_sub
    frame_rng = np.random.default_rng(1030)
    cfg = config.Config(n_sub=128, k_local=8, k_graph=ACC_NET.k_graph)
    frames = []
    for i in range(20):
        path = tmp_path / f"{i:06d}.bin"
        frame_rng.uniform(-1.0, 1.0, size=(int(frame_rng.integers(60, 160)), 4)) \
            .astype("<f4").tofile(path)
        sub = normalize_submap(load_kitti_bin(path, i), cfg.n_sub, seed=cfg.seed + i)
        frames.append((sub, local_features(sub, cfg.k_local)))
    worst_perm = worst_norm = 0.0
    for net_i in range(50):
        ws = net.random_weights(ACC_NET, seed=900 + net_i)
        items = []
        for _ in range(20):
            n = int(rng.integers(60, 160))
            sub = Submap(points=rng.uniform(-1.0, 1.0, size=(n, 3)), scale=1.0)
            items.append((sub, local_features(sub, k=8)))
        descs = [net.describe(sub, lf, ws, ACC_NET) for sub, lf in items]
        for (sub, lf), d in zip(items, descs):
            d64 = d.astype(np.float64)
            worst_norm = max(worst_norm, abs(float(np.linalg.norm(d64)) - 1.0))
            perm = rng.permutation(len(sub))
            shuffled = Submap(points=sub.points[perm], scale=1.0)
            d_perm = net.describe(shuffled, lf[perm], ws, ACC_NET).astype(np.float64)
            worst_perm = max(worst_perm, float(np.abs(d64 - d_perm).max()))
        want = [net.describe(sub, lf, ws, ACC_NET).tobytes() for sub, lf in frames]
        for threads in (1, 4):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, n=threads: set(range(n)), raising=False)
            _, _, got, _ = cli._describe_dir(tmp_path, cfg, (ws, ACC_NET))
            assert [d.tobytes() for d in got] == want
    assert worst_perm <= 1e-6
    assert worst_norm <= 1e-5
    _report(3, f"50 nets x 20 submaps: perm {worst_perm:.2e} <= 1e-6, "
               f"norm {worst_norm:.2e} <= 1e-5; 20 frames described at threads 1 and 4 "
               "bit-equal to one describe per frame")


def test_criterion_04_loss_oracle():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.choice([8, 32, 256]))
        anchor = rng.normal(size=d)
        pos = anchor + 0.1 * rng.normal(size=(2, d))
        neg = rng.normal(size=(18, d)) * rng.uniform(0.1, 2.0)
        star = rng.normal(size=d)
        got = net.lazy_quadruplet_loss(anchor, pos, neg, star, alpha=0.5, beta=0.2)
        want = quadruplet_oracle(anchor, pos, neg, star, 0.5, 0.2)
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= 1e-7
    # margin-satisfied construction: both hinges exactly zero
    anchor = np.zeros(4)
    pos = np.full((2, 4), 0.01)
    neg = np.eye(4)[:4].repeat(5, axis=0)[:18] * 2.0
    star = np.full(4, 10.0)
    assert net.lazy_quadruplet_loss(anchor, pos, neg, star, 0.5, 0.2) == 0.0
    _report(4, f"1000 batches, worst |err| {worst:.2e} <= 1e-7; satisfied case == 0")


def test_criterion_05_clustering_blobs():
    rng = np.random.default_rng(105)
    hits = 0
    for inst in range(100):
        q, _ = np.linalg.qr(rng.normal(size=(256, 4)))
        centers = (q[:, 0:1] + q[:, 1:4]).T / np.sqrt(2.0)  # unit rows, pairwise 1.0
        rows = []
        for t in range(3):
            count = int(rng.integers(15, 30))
            rows.append(centers[t] + rng.normal(0.0, 0.01, size=(count, 256)))
        x = np.vstack(rows)
        x /= np.linalg.norm(x, axis=1, keepdims=True)

        res = cluster.elbow_select(x, cluster.ClusterParams(D=10.0, K_max=8,
                                                            seed=3000 + inst))
        if res.K == 3:
            hits += 1
        runs = [res.clustering] + [cluster.kmeanspp(x, k, seed=inst) for k in (2, 4)]
        for run in runs:
            h = run.history
            for j in range(1, len(h)):
                assert h[j] <= h[j - 1] + 1e-9 * max(1.0, h[j - 1])

        pmap = _unit_map(x.astype(np.float32))
        skf = cluster.super_keyframes(pmap, res.clustering)
        desc = pmap.descriptor_matrix().astype(np.float64)
        for k in range(skf.K):
            mem = skf.members[k].tolist()
            d2 = [float(((desc[i] - res.clustering.centers[k]) ** 2).sum())
                  for i in mem]
            best = min(range(len(mem)), key=lambda j: (d2[j], mem[j]))
            assert skf.keyframes[k] == mem[best]
    assert hits >= 95
    _report(5, f"K=3 in {hits}/100 >= 95; distortion monotone; keyframes argmin")


def _enum_search(m, params):
    """Exhaustive scan over every (ref_end, velocity) pair with explicit ties."""
    rows, cols = m.shape
    vels = params.velocities()
    w = params.W
    offs = np.floor(vels[:, None] * np.arange(w)[None, :] + 0.5).astype(np.int64)
    grid = np.full((len(vels), cols), np.inf)
    for vi in range(len(vels)):
        omax = int(offs[vi].max())
        if omax >= cols:
            continue
        acc = np.zeros(cols - omax)
        for t in range(w):
            acc += m[rows - 1 - t, omax - offs[vi, t]: cols - offs[vi, t]]
        grid[vi, omax:] = acc / w
    best = None
    for ref in range(cols):
        for vi in range(len(vels)):
            s = grid[vi, ref]
            if np.isfinite(s) and (best is None or s < best[2]):
                best = (ref, float(vels[vi]), float(s))
    if best is None:
        return None
    second = np.inf
    for ref in range(cols):
        if abs(ref - best[0]) > params.exclusion_frames:
            col_best = grid[:, ref].min()
            if col_best < second:
                second = float(col_best)
    return best[0], best[1], best[2], second


def test_criterion_06_sequence_search_oracle():
    rng = np.random.default_rng(106)
    for trial in range(200):
        rows = int(rng.integers(10, 51))
        w = int(rng.integers(5, rows + 1))
        cols = int(rng.integers(1500, 2001)) if trial % 5 == 0 \
            else int(rng.integers(60, 800))
        m = rng.random((rows, cols))
        if trial % 3 == 0:
            m = np.round(m, 2)  # coarse values force heavy score ties
        params = MatchParams(W=w)
        got = seqmatch.sequence_search(m, params)
        want = _enum_search(m, params)
        assert got == want, f"trial {trial}: {got} != {want}"
        # spot-check grid cells against the independent per-trajectory oracle
        for _ in range(5):
            ref = int(rng.integers(0, cols))
            v = float(params.velocities()[int(rng.integers(0, 5))])
            direct = trajectory_score_oracle(m, ref, v, w)
            if direct is not None:
                assert seqmatch.trajectory_score(m, ref, v, w) == direct
    _report(6, "200 matrices up to 50x2000: exact equality incl. tie rule")


def test_criterion_07_coarse_to_fine_consistency():
    rng = np.random.default_rng(107)
    w = 10
    params = MatchParams(W=w)
    checked = 0
    for trial in range(50):
        n = int(rng.integers(100, 1001))
        descs = random_unit(rng, n, 32)
        pmap = _unit_map(descs)
        clustering = cluster.kmeanspp(descs.astype(np.float64),
                                      int(rng.integers(2, 9)), seed=trial)
        skf = cluster.super_keyframes(pmap, clustering)
        g = int(rng.integers(w - 1, n))
        window = descs[g - w + 1: g + 1].astype(np.float64)
        window = window + rng.normal(0.0, 0.02, size=window.shape)
        window /= np.linalg.norm(window, axis=1, keepdims=True)

        r = seqmatch.detect_loop(window, pmap, skf, params)
        full = seqmatch.sequence_search(
            seqmatch.difference_matrix(window, descs), params)
        if np.abs(skf.members[r.cluster_id] - full[0]).min() <= w:
            checked += 1
            assert r.ref_end == full[0], f"trial {trial}"
    assert checked >= 40  # the qualifying condition must not be vacuous
    _report(7, f"{checked}/50 maps qualified, ref_end equals exhaustive in all")


def test_criterion_08_end_to_end_loop(tmp_path):
    synth.generate(tmp_path, "loop", sigma=0.05, seed=8, places=60, points=1024)
    cfg = config.apply(config.Config(), {"n_sub": 512}).validate()
    mids, mposes, mdescs, _ = cli._describe_dir(str(tmp_path / "map"), cfg, None)
    qids, _, qdescs, _ = cli._describe_dir(str(tmp_path / "query"), cfg, None)
    pmap = PlaceMap()
    for fid, pose, desc in zip(mids, mposes, mdescs):
        pmap.insert(PlaceEntry(fid, pose, desc))
    res = cluster.elbow_select(np.stack(mdescs).astype(np.float64),
                               cluster.ClusterParams(D=2.0, seed=0))
    skf = cluster.super_keyframes(pmap, res.clustering)
    params = MatchParams()

    windows = good = 0
    for qi in range(params.W - 1, len(qdescs)):
        windows += 1
        r = seqmatch.detect_loop(np.stack(qdescs[qi - params.W + 1: qi + 1]),
                                 pmap, skf, params)
        if r.accepted and abs(int(mids[r.ref_end]) - int(qids[qi])) <= 1:
            good += 1
    assert windows == 51
    assert good >= 0.95 * windows

    # orthogonal-noise queries can never be accepted
    rng = np.random.default_rng(108)
    orth = orthogonal_to(np.stack(mdescs), rng, 500 * params.W)
    false_accepts = 0
    for i in range(500):
        r = seqmatch.detect_loop(orth[i * params.W:(i + 1) * params.W],
                                 pmap, skf, params)
        if r.accepted:
            false_accepts += 1
    assert false_accepts == 0
    _report(8, f"{good}/{windows} accepted within +-1 (>=95%); "
               f"0/500 orthogonal windows accepted")


def test_criterion_09_metrics_oracle():
    rng = np.random.default_rng(109)
    for trial in range(20):
        nd = int(rng.integers(20, 120))
        nq = int(rng.integers(10, 40))
        dd = random_unit(rng, nd, 16)
        dp = rng.uniform(0.0, 50.0, size=(nd, 3))
        pmap = PlaceMap()
        for i in range(nd):
            pmap.insert(PlaceEntry(i, Pose(*dp[i], frame_id=i), dd[i]))
        qd = random_unit(rng, nq, 16)
        qp = rng.uniform(0.0, 50.0, size=(nq, 3))
        qp[rng.integers(0, nq)] += 1e5  # guaranteed positive-free query
        radius = float(rng.uniform(3.0, 10.0))
        prev = -1.0
        for n in (1, 2, 5, nd + 3):
            r = metrics.recall_at_n(qd, qp, pmap, radius, n)
            pct, evaluated, skipped = retrieval_oracle(qd, qp, dd, dp, radius, n)
            assert r.percentage == pytest.approx(pct, abs=1e-9)
            assert (r.evaluated, r.skipped) == (evaluated, skipped)
            assert r.percentage >= prev  # monotone in N
            prev = r.percentage
        self_eval = metrics.recall_at_n(dd, dp, pmap, radius, 1)
        assert self_eval.percentage == 100.0
    _report(9, "20 corpora equal the oracle; self-eval 100%; monotone in N")


def test_criterion_10_timing_informational():
    rng = np.random.default_rng(110)
    sub = Submap(points=rng.uniform(-1.0, 1.0, size=(4096, 3)), scale=1.0)
    t0 = time.perf_counter()
    lf = local_features(sub, 20)
    net.baseline_descriptor(sub, lf)
    t_base = time.perf_counter() - t0

    ws = net.random_weights(net.NetConfig(), seed=0)
    t0 = time.perf_counter()
    lf = local_features(sub, 20)
    net.describe(sub, lf, ws, net.NetConfig())
    t_net = time.perf_counter() - t0

    descs = random_unit(rng, 5000, 256)
    pmap = _unit_map(descs)
    clustering = cluster.kmeanspp(descs.astype(np.float64), 10, seed=0)
    skf = cluster.super_keyframes(pmap, clustering)
    params = MatchParams()
    window = descs[4990:5000].astype(np.float64)
    window += rng.normal(0.0, 0.01, size=window.shape)
    window /= np.linalg.norm(window, axis=1, keepdims=True)
    t0 = time.perf_counter()
    for _ in range(5):
        seqmatch.detect_loop(window, pmap, skf, params)
    t_loop = (time.perf_counter() - t0) / 5.0

    per_frame = t_net + t_loop
    assert t_base > 0 and t_net > 0 and t_loop > 0
    _report(10, f"informational: describe_baseline={t_base:.3f}s "
                f"describe_net={t_net:.3f}s detect_loop(5000-frame map)={t_loop:.4f}s "
                f"per_frame={per_frame:.3f}s target<1s met={per_frame < 1.0}")


def _corrupt_checks(path, loader, tmp_path, tag):
    blob = path.read_bytes()
    cases = {
        "magic": b"XXXX" + blob[4:],
        "version": blob[:4] + b"\xff\xff\xff\xff" + blob[8:],
        "truncated": blob[:-3],
        "trailing": blob + b"\x00",
    }
    for name, bad in cases.items():
        bad_path = tmp_path / f"bad_{tag}_{name}"
        bad_path.write_bytes(bad)
        with pytest.raises(FormatError):
            loader(bad_path)


def test_criterion_11_serialization_round_trips(tmp_path):
    rng = np.random.default_rng(111)
    trips = 0

    for i in range(34):
        cfgn = net.NetConfig(k_graph=int(rng.integers(2, 8)),
                             vlad_clusters=int(rng.integers(2, 10)),
                             point_mlp=(int(rng.integers(4, 20)),),
                             edge_mlp=(int(rng.integers(4, 20)),),
                             post_mlp=(int(rng.integers(8, 40)),),
                             tnet_mlp=(4, 6, 8), tnet_fc=(6, 4),
                             descriptor_dim=int(rng.integers(4, 48)))
        ws = net.random_weights(cfgn, seed=i)
        p1, p2 = tmp_path / f"w{i}a.lpdw", tmp_path / f"w{i}b.lpdw"
        net.save_weights(ws, p1)
        loaded = net.load_weights(p1, cfgn)
        net.save_weights(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        trips += 1

    for i in range(33):
        dim = int(rng.choice([8, 64, 256]))
        n = int(rng.integers(1, 40))
        pmap = PlaceMap()
        fid = 0
        for j in range(n):
            fid += int(rng.integers(1, 5))  # strictly increasing, gappy ids
            pmap.insert(PlaceEntry(fid,
                                   Pose(*rng.uniform(-10, 10, 3), frame_id=fid),
                                   random_unit(rng, 1, dim)[0]))
        p1, p2 = tmp_path / f"m{i}a.lpdm", tmp_path / f"m{i}b.lpdm"
        placemap.save(pmap, p1)
        placemap.save(placemap.load(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()
        trips += 1

    for i in range(33):
        n = int(rng.integers(6, 30))
        k = int(rng.integers(1, 6))
        descs = random_unit(rng, n, 256)
        pmap = _unit_map(descs)
        skf = cluster.super_keyframes(
            pmap, cluster.kmeanspp(descs.astype(np.float64), k, seed=i))
        d_limit = float(rng.uniform(0.1, 3.0))
        p1, p2 = tmp_path / f"c{i}a.lpdc", tmp_path / f"c{i}b.lpdc"
        cluster.save_clusters(skf, d_limit, p1)
        skf2, d_loaded = cluster.load_clusters(p1, pmap)
        cluster.save_clusters(skf2, d_loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(skf.keyframes, skf2.keyframes)
        assert all(np.array_equal(a, b) for a, b in zip(skf.members, skf2.members))
        trips += 1

    assert trips == 100

    cfgn = net.NetConfig(k_graph=2, vlad_clusters=2, point_mlp=(4,), edge_mlp=(4,),
                         post_mlp=(8,), tnet_mlp=(4, 6, 8), tnet_fc=(6, 4),
                         descriptor_dim=8)
    wpath = tmp_path / "ok.lpdw"
    net.save_weights(net.random_weights(cfgn, seed=0), wpath)
    _corrupt_checks(wpath, net.load_weights, tmp_path, "lpdw")

    mpath = tmp_path / "ok.lpdm"
    placemap.save(_unit_map(random_unit(rng, 4, 256)), mpath)
    _corrupt_checks(mpath, placemap.load, tmp_path, "lpdm")

    cpath = tmp_path / "ok.lpdc"
    descs = random_unit(rng, 8, 256)
    pmap = _unit_map(descs)
    skf = cluster.super_keyframes(pmap,
                                  cluster.kmeanspp(descs.astype(np.float64), 2, seed=0))
    cluster.save_clusters(skf, 1.0, cpath)
    _corrupt_checks(cpath, lambda p: cluster.load_clusters(p, pmap), tmp_path, "lpdc")

    _report(11, "100 round trips byte-exact; 12 corrupt fixtures -> FormatError")
