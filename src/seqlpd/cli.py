"""Command-line front end: describe -> cluster -> match -> eval, plus synth.

Every failure exits nonzero after printing exactly one machine-parsable
line "E:<code>:<detail>" on stderr.  All commands are deterministic for a
fixed seed: rerunning produces byte-identical output files.
"""

import argparse
import dataclasses
import os
import sys
import time

import numpy as np

from . import cluster as cluster_mod
from . import config as config_mod
from . import fileio, metrics, net, placemap, seqmatch, synth
from ._accel import run_jobs, thread_count
from .cloud import (DEFAULT_TRAJECTORY_LEN, Pose, accumulate_submap, load_csv,
                    load_kitti_bin, normalize_submap)
from .errors import (EmptyInput, FormatError, InsufficientHistory, InvalidParams,
                     IoError, SeqLPDError)
from .features import local_features


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Usage(message)


def _one_line(text: str) -> str:
    return " ".join(str(text).split())


def _list_frames(input_dir) -> list:
    try:
        names = sorted(os.listdir(input_dir))
    except OSError as exc:
        raise IoError(f"{input_dir}: {exc}") from exc
    frames = [n for n in names
              if n.endswith(".bin") or (n.endswith(".csv") and n != "poses.csv")]
    if not frames:
        raise EmptyInput(f"no .bin or .csv frames in {input_dir}")
    stems = [n.rsplit(".", 1)[0] for n in frames]
    if all(stem.isdecimal() for stem in stems):
        # frame ids in numeric order, so "10.bin" follows "2.bin"
        frames = [n for _, n in sorted(zip(map(int, stems), frames))]
    return frames


def _load_poses(input_dir):
    """poses.csv as {frame_id: Pose}, or None when the file is absent."""
    path = os.path.join(input_dir, "poses.csv")
    if not os.path.exists(path):
        return None
    poses = {}
    for ln, line in enumerate(fileio.read_lines(path), start=1):
        text = line.strip()
        if not text or (ln == 1 and text.lower().startswith("frame_id")):
            continue
        parts = text.split(",")
        if len(parts) != 4:
            raise FormatError(f"{path}:{ln}: expected frame_id,x,y,z")
        try:
            fid = int(parts[0])
            x, y, z = (float(p) for p in parts[1:])
        except ValueError:
            raise FormatError(f"{path}:{ln}: malformed row") from None
        if not np.isfinite((x, y, z)).all():
            raise FormatError(f"{path}:{ln}: non-finite pose")
        if fid in poses:
            raise FormatError(f"{path}:{ln}: frame {fid} listed twice")
        poses[fid] = Pose(x, y, z, fid)
    return poses


def _describe_dir(input_dir, cfg: config_mod.Config, model):
    """Load, accumulate, normalize and describe every frame of a directory.

    ``model`` is None for the baseline descriptor, else (weights, NetConfig)
    from :func:`_load_net`.  Returns (frame_ids, poses, descriptors, stats)
    where stats holds (point_count, seconds) per frame.  Frames are jobs of
    ``run_jobs``, capped by SEQLPD_THREADS; each frame is independent, so any
    worker count yields identical descriptors.
    """
    names = _list_frames(input_dir)
    pose_table = _load_poses(input_dir)
    clouds, ids = [], []
    for i, name in enumerate(names):
        path = os.path.join(input_dir, name)
        stem = name.rsplit(".", 1)[0]
        fid = int(stem) if stem.isdecimal() else i
        pc = load_kitti_bin(path, fid) if name.endswith(".bin") else load_csv(path, fid)
        clouds.append(pc)
        ids.append(fid)
    if pose_table is not None:
        for fid in ids:
            if fid not in pose_table:
                raise FormatError(f"{input_dir}/poses.csv: missing frame {fid}")
        poses = [pose_table[fid] for fid in ids]
    else:
        poses = [Pose(0.0, 0.0, 0.0, fid) for fid in ids]

    def job(i: int):
        t0 = time.perf_counter()
        if pose_table is not None:
            pc = accumulate_submap(clouds[:i + 1], poses[:i + 1], DEFAULT_TRAJECTORY_LEN)
        else:
            pc = clouds[i]
        sub = normalize_submap(pc, cfg.n_sub, seed=cfg.seed + i)
        lf = local_features(sub, cfg.k_local)
        desc = (net.baseline_descriptor(sub, lf) if model is None
                else net.describe(sub, lf, *model))
        return desc, (len(pc), time.perf_counter() - t0)

    results = run_jobs(job, range(len(clouds)), thread_count())
    descs = [r[0] for r in results]
    stats = [r[1] for r in results]
    return ids, poses, descs, stats


def _build_config(args) -> config_mod.Config:
    """Defaults, then the --config file, then every given flag named after a config key."""
    cfg = config_mod.Config()
    if getattr(args, "config", None):
        cfg = config_mod.load(args.config, cfg)
    overrides = {f.name: getattr(args, f.name) for f in dataclasses.fields(cfg)
                 if getattr(args, f.name, None) is not None}
    return config_mod.apply(cfg, overrides).validate()


def _load_net(args, cfg: config_mod.Config):
    """(weights, NetConfig) with the widths of the weight file, or None for --baseline."""
    if args.baseline:
        return None
    ws = net.load_weights(args.weights)
    return ws, net.fit_widths(ws, cfg.net_config())


def cmd_describe(args) -> int:
    cfg = _build_config(args)
    model = _load_net(args, cfg)
    ids, poses, descs, stats = _describe_dir(args.input, cfg, model)
    pmap = placemap.PlaceMap()
    for fid, pose, desc, (npts, dt) in zip(ids, poses, descs, stats):
        pmap.insert(placemap.PlaceEntry(fid, pose, desc))
        print(f"frame={fid} points={npts} t={dt * 1000.0:.1f}ms")
    placemap.save(pmap, args.out)
    print(f"wrote {args.out} entries={len(pmap)}")
    return 0


def cmd_cluster(args) -> int:
    params = _build_config(args).cluster_params()
    pmap = placemap.load(args.map)
    if len(pmap) == 0:
        raise EmptyInput("empty place map")
    res = cluster_mod.elbow_select(pmap.descriptor_matrix(), params)
    skf = cluster_mod.super_keyframes(pmap, res.clustering)
    cluster_mod.save_clusters(skf, params.D, args.out)
    flag = "true" if res.constraint_ok else "false"
    print(f"K={res.K} distortion={res.clustering.distortion:.6f} constraint_ok={flag}")
    fids = pmap.frame_ids()
    for k in range(skf.K):
        print(f"cluster={k} size={skf.cluster_size(k)} keyframe={fids[skf.keyframes[k]]}")
    print(f"wrote {args.out}")
    return 0


def cmd_match(args) -> int:
    cfg = _build_config(args)
    params = cfg.match_params()
    model = _load_net(args, cfg)
    pmap = placemap.load(args.map)
    skf, _ = cluster_mod.load_clusters(args.clusters, pmap)
    qids, _, qdescs, _ = _describe_dir(args.query, cfg, model)
    if len(qdescs) < cfg.W:
        raise InsufficientHistory(f"{len(qdescs)} query frames, need at least W={cfg.W}")
    if args.diffmat:
        m = seqmatch.difference_matrix(np.stack(qdescs), pmap.descriptor_matrix())
        if args.diffmat.endswith(".csv"):
            seqmatch.export_csv(m, args.diffmat)
        else:
            seqmatch.export_pgm(m, args.diffmat)
    fids = pmap.frame_ids()
    for qi in range(cfg.W - 1, len(qdescs)):
        window = np.stack(qdescs[qi - cfg.W + 1:qi + 1])
        r = seqmatch.detect_loop(window, pmap, skf, params)
        ref = str(int(fids[r.ref_end])) if r.accepted else "none"
        ok = "true" if r.accepted else "false"
        print(f"frame={qids[qi]} ref={ref} v={r.velocity:.2f} "
              f"score={r.score:.6f} accepted={ok} cluster={r.cluster_id}")
    return 0


def cmd_eval(args) -> int:
    cfg = _build_config(args)
    if cfg.gt_radius is None:
        raise InvalidParams("gt_radius is required (flag --gt-radius or config key gt_radius)")
    try:
        n_list = [int(v) for v in args.n.split(",") if v.strip()]
    except ValueError:
        raise InvalidParams(f"bad N list '{args.n}'") from None
    if not n_list:
        raise InvalidParams("empty N list")
    metrics.check_n(min(n_list))
    model = _load_net(args, cfg)
    pmap = placemap.load(args.map)
    if not os.path.exists(os.path.join(args.query, "poses.csv")):
        raise InvalidParams("query poses.csv is required for evaluation")
    qids, qposes, qdescs, _ = _describe_dir(args.query, cfg, model)
    qd = np.stack(qdescs)
    qp = np.array([[p.x, p.y, p.z] for p in qposes], dtype=np.float64)
    # every recall row, Recall@1% last, from one ranking
    *recalls, r1p = metrics.recall_curve(qd, qp, pmap, cfg.gt_radius,
                                         n_list + [metrics.one_percent_n(len(pmap))])
    rows = [(f"recall_at_{r.N}", r.percentage, r.N, cfg.gt_radius, len(pmap)) for r in recalls]
    rows.append(("recall_at_1pct", r1p.percentage, r1p.N, cfg.gt_radius, len(pmap)))
    if len(qdescs) >= metrics.RUN_LEN:
        runs = [(qd[i:i + metrics.RUN_LEN], qp[i:i + metrics.RUN_LEN])
                for i in range(0, len(qdescs) - metrics.RUN_LEN + 1, metrics.RUN_LEN)]
        pct = metrics.seq_protocol(runs, pmap, cfg.gt_radius, cfg.min_successes)
        rows.append(("seq_protocol", pct, metrics.RUN_LEN, cfg.gt_radius, len(pmap)))
    for line in metrics.report_lines(rows):
        print(line)
    return 0


def cmd_synth(args) -> int:
    info = synth.generate(args.out, args.scenario, sigma=args.sigma, seed=args.seed,
                          places=args.places, points=args.points)
    print(f"scenario={info['scenario']} map_frames={info['map_frames']} "
          f"query_frames={info['query_frames']} gt_rows={info['gt_rows']}")
    return 0


def _add_describe_flags(p):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--weights", help="LPDW weight file")
    group.add_argument("--baseline", action="store_true",
                       help="use the weight-free histogram descriptor")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--n-sub", type=int, default=None, dest="n_sub")
    p.add_argument("--k-local", type=int, default=None, dest="k_local")
    p.add_argument("--k-graph", type=int, default=None, dest="k_graph")
    p.add_argument("--seed", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="seqlpd",
                     description="LiDAR loop-closure pipeline: describe, cluster, "
                                 "match, eval, synth")
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    p = sub.add_parser("describe", help="turn a frame directory into an LPDM map")
    p.add_argument("input", help="directory of .bin/.csv frames (optional poses.csv)")
    p.add_argument("-o", "--out", required=True, help="output LPDM path")
    _add_describe_flags(p)
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("cluster", help="cluster an LPDM map into an LPDC file")
    p.add_argument("map", help="LPDM map path")
    p.add_argument("-o", "--out", required=True, help="output LPDC path")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--D", type=float, default=None, dest="D",
                   help="distance ceiling (required here or in the config)")
    p.add_argument("--k-max", type=int, default=None, dest="K_max")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("match", help="loop detection of query frames against a map")
    p.add_argument("map", help="LPDM map path")
    p.add_argument("clusters", help="LPDC clusters path")
    p.add_argument("query", help="directory of query frames")
    _add_describe_flags(p)
    p.add_argument("--W", type=int, default=None, dest="W")
    p.add_argument("--v-min", type=float, default=None, dest="v_min")
    p.add_argument("--v-max", type=float, default=None, dest="v_max")
    p.add_argument("--v-step", type=float, default=None, dest="v_step")
    p.add_argument("--accept-ratio", type=float, default=None, dest="accept_ratio")
    p.add_argument("--mirror", action="store_true", default=None,
                   help="also search reversed reference runs")
    p.add_argument("--diffmat", help="export the query x map difference matrix "
                                     "(.pgm or .csv)")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("eval", help="retrieval metrics of query frames against a map")
    p.add_argument("map", help="LPDM map path")
    p.add_argument("query", help="directory of query frames with poses.csv")
    _add_describe_flags(p)
    p.add_argument("--gt-radius", type=float, default=None, dest="gt_radius")
    p.add_argument("--n", default="1", help="comma-separated N list for Recall@N")
    p.add_argument("--min-successes", type=int, default=None, dest="min_successes")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic corpus with ground truth")
    p.add_argument("out", help="output directory")
    p.add_argument("--scenario", required=True, choices=synth.SCENARIOS)
    p.add_argument("--sigma", type=float, default=0.0, help="per-point jitter std")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--places", type=int, default=60)
    p.add_argument("--points", type=int, default=1024)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _Usage as exc:
        sys.stderr.write(f"E:UsageError:{_one_line(exc)}\n")
        return 2
    except SeqLPDError as exc:
        sys.stderr.write(f"E:{exc.code}:{_one_line(exc)}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
