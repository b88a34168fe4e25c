"""Command-line interface.

Subcommands: synth, train, eval, infer, patterns-dump, grad-check, ablate,
analyze-priors, bench.  Exit codes: 0 success, 1 validation/input error or
out of memory, 2 failed numeric check (grad-check tolerance, ablate
direction) or diverged training.

Configuration merges three sources: built-in defaults, then an optional
``key = value`` config file (# comments), then explicit command-line flags.
"""

from __future__ import annotations

import argparse
import ast
import csv
import os
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .aggregation import (
    ModelParams,
    aggregate_global,
    build_global_pattern_matrix,
    forward,
    global_similarity,
    run_pipeline,
)
from .config import ABLATION_MODES, TrainConfig
from .graph import random_multiplex_graph
from .imaging import Image, ScenePair, cs_fusion, synth_scene, write_hsif, write_ppm
from .metrics import full_reference, no_reference, prior_analysis
from .patterns import generate_patterns, mask_label
from .training import (
    TrainingDiverged,
    ablation_table,
    grad_check,
    load_checkpoint,
    toy_config,
    toy_scene,
    train,
)


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def parse_config_file(path) -> dict:
    """Line-oriented ``key = value`` with # comments."""
    out = {}
    for ln, line in enumerate(Path(path).read_text().splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise CliError(f"{path}:{ln}: expected key = value")
        key, val = (part.strip() for part in body.split("=", 1))
        if not key or not val:
            raise CliError(f"{path}:{ln}: expected key = value")
        out[key] = val
    return out


def _add_config_flags(p: argparse.ArgumentParser, names):
    """``--config`` and one flag per config field in ``names``: the fields
    the command reads, so no setting it takes leaves its output unchanged."""
    p.add_argument("--config", type=str, default=None, help="key = value config file")
    for name in names:
        p.add_argument("--" + name.replace("_", "-"), type=str, default=None, dest=name)


def merge_config(args, names=None) -> TrainConfig:
    """Defaults, then ``args.config``'s keys, then the flags, over the
    config fields in ``names`` (default: every field); a file key outside
    them is refused with the file's name."""
    names = names or TrainConfig.field_names()
    given = []  # (key, raw value, the file or flag it came from)
    if getattr(args, "config", None):
        given += [(key, raw, args.config) for key, raw in parse_config_file(args.config).items()]
    for name in names:
        given.append((name, getattr(args, name, None), "--" + name.replace("_", "-")))
    updates = {}
    for key, raw, source in given:
        if key not in names:
            raise CliError(f"{source}: unknown config key {key!r}")
        if raw is not None:
            try:
                updates[key] = TrainConfig.coerce(key, raw)
            except ValueError as e:
                raise CliError(f"{source}: {e}") from None
    return TrainConfig().replace(**updates).validate()


def _check_seeds(args, *names):
    """Refuse a negative seed flag by name; numpy's own message names none."""
    for name in names:
        value = getattr(args, name)
        if value is not None and value < 0:
            raise CliError(f"--{name.replace('_', '-')} must be non-negative, got {value}")


def _scene_dirs(root) -> list:
    root = Path(root)
    if not root.is_dir():
        raise CliError(f"not a directory: {root}")
    dirs = sorted(d for d in root.iterdir() if d.is_dir() and (d / "pan.hsif").exists())
    if not dirs:
        raise CliError(f"no scene directories under {root}")
    return dirs


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    _check_seeds(args, "seed")
    if args.count < 1:
        raise CliError(f"--count must be at least 1, got {args.count}")
    out = Path(args.out)
    # save creates --out, so a size or scale that synth_scene refuses leaves nothing behind
    for i in range(args.count):
        scene = synth_scene(args.seed + i, size=args.size, scale=args.scale)
        scene.save(out / f"scene_{i:03d}")
    print(f"wrote {args.count} scene(s) of size {args.size} to {out}")
    return 0


def cmd_train(args) -> int:
    cfg = merge_config(args)
    dataset = [ScenePair.load(d, need_gt=True) for d in _scene_dirs(args.data)]

    def progress(it, bd):
        if it % 10 == 0:
            print(
                f"iter {it:6d}  l1 {bd.l1:.6f}  lcl {bd.lcl:.6f}  "
                f"total {bd.total:.6f}  lr {bd.lr:.3e}"
            )

    train(dataset, cfg, out_dir=args.out, progress=progress)
    print(f"done: checkpoints and log.csv under {args.out}")
    return 0


def _write_rows(path, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def cmd_eval(args) -> int:
    """One row per scene, then ``mean``; then ``bicubic`` and ``cs``, the
    means of the same metrics for the upsampled LR-MS and for
    :func:`imaging.cs_fusion` over the same scenes."""
    params, mcfg = load_checkpoint(args.checkpoint)
    dirs = _scene_dirs(args.data)

    def report(fused, scene):
        if args.mode == "reduced":
            return full_reference(fused, scene.gt, scale=scene.scale)
        return no_reference(fused, scene.pan, scene.lrms, scale=scene.scale)

    values, references = [], []
    for d in dirs:
        scene = ScenePair.load(d)
        if args.mode == "reduced" and scene.gt is None:
            raise CliError(f"{d} has no gt.hsif, required for reduced mode")
        rep = report(forward(scene, params, mcfg).fused, scene)
        values.append(rep.as_row())
        references.append([report(scene.lrms_up, scene).as_row(),
                           report(cs_fusion(scene), scene).as_row()])
    names = [d.name for d in dirs] + ["mean", "bicubic", "cs"]
    # means of the values, not of their printed digits
    values += [np.mean(values, axis=0), *np.mean(references, axis=0)]
    rows = [[name] + [f"{v:.6f}" for v in row] for name, row in zip(names, values)]
    header = ["scene"] + [f.name for f in fields(rep)]
    for r in [header] + rows:
        print(",".join(str(v) for v in r))
    if args.out:
        _write_rows(args.out, header, rows)
    return 0


def cmd_infer(args) -> int:
    params, mcfg = load_checkpoint(args.checkpoint)
    scene = ScenePair.load(args.scene)
    fused = forward(scene, params, mcfg).fused
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_hsif(out / "fused.hsif", fused)
    preview = Image(fused.data[:, :, (2, 1, 0)])
    write_ppm(out / "preview.ppm", preview)
    print(f"wrote {out / 'fused.hsif'} and {out / 'preview.ppm'}")
    return 0


# the config fields patterns-dump reads: the graph's geometry and the seed
# of the parameters; the branch mode and the training settings change
# nothing it prints
DUMP_FIELDS = ("patch", "stride", "d", "k", "seed")


def _refuse_given(args, owner, what, names):
    """Refuse each flag of ``names`` given beside ``owner``, which fixes
    ``what``, instead of ignoring it."""
    given = [f"--{n.replace('_', '-')}" for n in names if getattr(args, n) is not None]
    if given:
        raise CliError(f"{owner} sets {what}; drop {', '.join(given)}")


def cmd_patterns_dump(args) -> int:
    _check_seeds(args, "scene_seed")
    if args.scene:
        _refuse_given(args, "--scene", "the scene", ("scene_seed", "size"))
    if args.checkpoint:
        _refuse_given(args, "--checkpoint", "the model's config and parameters",
                      ("config", *DUMP_FIELDS))
        params, cfg = load_checkpoint(args.checkpoint)
    else:
        cfg = merge_config(args, DUMP_FIELDS)
        params = ModelParams.init(cfg)
    if args.scene:
        scene = ScenePair.load(args.scene)
    else:
        scene = synth_scene(args.scene_seed or 0, size=32 if args.size is None else args.size)
    out = run_pipeline(scene, params, cfg)
    lines = []
    for r in (1, 2, 3):
        src, dst, w = out.graph.relation(r)
        wv = ad.value(w)
        for e in range(len(src)):
            lines.append(f"{r} {src[e]} {dst[e]} {wv[e]:.6f}")
    lines.append("")
    for p in out.patterns:
        lines.append(f"pattern S={mask_label(p.mask)} nnz={p.nnz}")
        vv = ad.value(p.vals)
        for e in range(p.nnz):
            lines.append(f"{p.cols[e]} {p.rows[e]} {vv[e]:.6f}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_grad_check(args) -> int:
    for flag, v in (("--eps", args.eps), ("--tol", args.tol)):
        if not 0.0 < v < np.inf:
            raise CliError(f"{flag} must be finite and positive, got {v}")
    if args.max_coords is not None and args.max_coords < 1:
        raise CliError(f"--max-coords must be at least 1, got {args.max_coords}")
    _check_seeds(args, "scene_seed", "param_seed")
    scene = toy_scene(seed=args.scene_seed)
    cfg = toy_config(gamma=args.gamma, ablate=args.ablate)
    params = ModelParams.init(cfg, seed=args.param_seed, zero_recon=False)
    worst = grad_check(
        scene, params, cfg, eps=args.eps, max_coords=args.max_coords, seed=0
    )
    width = max(map(len, ["group", *worst]))
    print(f"{'group':<{width}} {'max_rel_err':>12}")
    ok = True
    for group, err in sorted(worst.items()):
        mark = "ok" if err <= args.tol else "FAIL"
        ok &= err <= args.tol
        print(f"{group:<{width}} {err:12.3e}  {mark}")
    print(f"tolerance {args.tol:.1e}: {'pass' if ok else 'fail'}")
    return 0 if ok else 2


def cmd_ablate(args) -> int:
    """Train every branch mode on one synthetic scene; the fused model must
    end within 5% of its best single branch."""
    if args.tail < 1:
        raise CliError("--tail must be positive")
    _check_seeds(args, "seed")
    scene = synth_scene(args.seed, size=args.size)
    rows = ablation_table([scene], TrainConfig(), iters=args.iters, tail=args.tail)
    print(f"{'mode':<12} {'final_l1':>10} {'final_total':>12}")
    for r in rows:
        print(f"{r['mode']:<12} {r['final_l1']:>10.6f} {r['final_total']:>12.6f}")
    l1 = {r["mode"]: r["final_l1"] for r in rows}
    best = min(l1["local-only"], l1["global-only"])
    gate = best * 1.05
    ok = l1["full"] <= gate
    print(
        f"full {l1['full']:.6f} vs best single branch {best:.6f} "
        f"(need <= {gate:.6f}): {'pass' if ok else 'fail'}"
    )
    return 0 if ok else 2


def cmd_analyze_priors(args) -> int:
    _check_seeds(args, "seed")
    if args.count < 1:
        raise CliError(f"--count must be at least 1, got {args.count}")
    if args.bins < 1:
        raise CliError(f"--bins must be at least 1, got {args.bins}")
    tables = [
        prior_analysis(synth_scene(args.seed + i, size=args.size), bins=args.bins)
        for i in range(args.count)
    ]  # every scene gives the same rows in the same order
    means = np.mean([[row[1:] for row in t] for t in tables], axis=0)
    names = [name for name, _, _ in tables[0]]
    rows = [[name, f"{emd:.6f}", f"{coeff:.6f}"] for name, (emd, coeff) in zip(names, means)]
    header = ["pair", "mean_emd", "mean_coefficient"]
    for r in [header] + rows:
        print(",".join(r))
    # the summary lines average the values, not their printed digits
    pan_c = np.mean([c for name, (_, c) in zip(names, means) if name.startswith("pan_vs_gt")])
    lr_c = np.mean([c for name, (_, c) in zip(names, means) if name.startswith("lrms_vs_gt")])
    print(f"mean pan-vs-gt coefficient:  {pan_c:.6f}")
    print(f"mean lrms-vs-gt coefficient: {lr_c:.6f}")
    if args.out:
        _write_rows(args.out, header, rows)
    return 0


def _time_call(fn):
    """Per-call CPU seconds of this process: adaptive repetitions, best of a
    few trials.  CPU time, not wall time, so that another process on the
    cores does not move the fitted exponents."""
    min_time, best_of = 0.1, 5
    reps = 1
    while True:
        t0 = time.process_time()
        for _ in range(reps):
            fn()
        dt = time.process_time() - t0
        if dt >= min_time:
            break
        reps = max(reps * 2, int(reps * min_time / max(dt, 1e-9)) + 1)
    best = dt / reps
    for _ in range(best_of - 1):
        t0 = time.process_time()
        for _ in range(reps):
            fn()
        best = min(best, (time.process_time() - t0) / reps)
    return best


BENCH_SIZES = (6400, 12800, 25600, 51200)  # every timed call takes milliseconds


def _time_sizes(sizes, d, seed):
    """{n: (t_patterns, t_global)}, timed largest size first, each function
    after one untimed call."""
    times = {}
    for n in sorted(set(sizes), reverse=True):
        g = random_multiplex_graph(n, density=min(1.0, 8 / n), seed=seed)
        rng = np.random.default_rng(seed + 1)
        u = rng.standard_normal((n, d))
        beta = np.ones(7)
        w_global = rng.standard_normal((d, d)) / np.sqrt(d)
        ps = generate_patterns(g)

        def run_patterns():
            generate_patterns(g)

        def run_global():
            b = build_global_pattern_matrix(ps, beta)
            aggregate_global(global_similarity(b), u, w_global)

        run_patterns()
        run_global()
        times[n] = (_time_call(run_patterns), _time_call(run_global))
    return times


def bench_scaling(sizes=BENCH_SIZES, d=32, seed=0):
    """Time pattern generation and global aggregation, in CPU seconds, on
    random multiplex graphs of expected in-degree 8 per relation; returns
    (rows, fitted log-log exponents).

    The timing runs in a fresh interpreter, so what this process ran
    before cannot move it: after a ``train`` call, for one, glibc's mmap
    threshold is fixed (:func:`training._keep_freed_heap`), and every call
    at the larger sizes would map and fault in its arrays afresh.  In
    there the largest size runs first, so glibc's dynamic threshold rises
    above every size's arrays before any call is timed."""
    call = f"{_time_sizes.__name__}({tuple(map(int, sizes))}, {int(d)}, {int(seed)})"
    probe = f"import graphpan.cli as c; print(c.{call})"
    path = os.pathsep.join(filter(None, [str(Path(__file__).resolve().parent.parent),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    if done.returncode:
        last = done.stderr.strip().splitlines()[-1:] or [f"exit code {done.returncode}"]
        raise OSError(f"the timing process failed: {last[0]}")
    times = ast.literal_eval(done.stdout)
    rows = [{"n": n, "t_patterns": times[n][0], "t_global": times[n][1]} for n in sizes]
    logn = np.log([r["n"] for r in rows])
    exps = {
        "patterns": float(np.polyfit(logn, np.log([r["t_patterns"] for r in rows]), 1)[0]),
        "global": float(np.polyfit(logn, np.log([r["t_global"] for r in rows]), 1)[0]),
    }
    return rows, exps


def cmd_bench(args) -> int:
    try:
        sizes = tuple(int(s) for s in args.sizes.split(","))
    except ValueError:
        raise CliError(f"--sizes must be comma-separated integers, got {args.sizes}") from None
    if min(sizes) < 2:
        raise CliError(f"--sizes must each be at least 2, got {args.sizes}")
    if len(set(sizes)) < 2:
        raise CliError(f"--sizes needs two distinct sizes to fit an exponent, got {args.sizes}")
    if args.d < 1:
        raise CliError(f"--d must be at least 1, got {args.d}")
    _check_seeds(args, "seed")
    rows, exps = bench_scaling(sizes=sizes, d=args.d, seed=args.seed)
    print(f"{'n':>6} {'t_patterns_s':>14} {'t_global_s':>12}")
    for r in rows:
        print(f"{r['n']:>6} {r['t_patterns']:>14.6f} {r['t_global']:>12.6f}")
    print(f"fitted exponent patterns: {exps['patterns']:.3f}")
    print(f"fitted exponent global:   {exps['global']:.3f}")
    if args.out:
        _write_rows(
            args.out,
            ["n", "t_patterns", "t_global"],
            [[r["n"], f"{r['t_patterns']:.6e}", f"{r['t_global']:.6e}"] for r in rows],
        )
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    p = _Parser(prog="graphpan", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate synthetic scenes")
    s.add_argument("--out", required=True)
    s.add_argument("--count", type=int, default=1)
    s.add_argument("--size", type=int, default=64)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--scale", type=int, default=4)
    s.set_defaults(func=cmd_synth)

    s = sub.add_parser("train", help="train on a scene directory")
    s.add_argument("--data", required=True)
    s.add_argument("--out", required=True)
    _add_config_flags(s, TrainConfig.field_names())
    s.set_defaults(func=cmd_train)

    s = sub.add_parser("eval", help="evaluate a checkpoint")
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--mode", choices=("reduced", "full"), default="reduced")
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_eval)

    s = sub.add_parser("infer", help="fuse one scene")
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--scene", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_infer)

    s = sub.add_parser("patterns-dump", help="dump relations and patterns")
    s.add_argument("--scene", default=None)
    s.add_argument("--scene-seed", type=int, default=None, help="default: 0")
    s.add_argument("--size", type=int, default=None, help="default: 32")
    s.add_argument("--checkpoint", default=None)
    s.add_argument("--out", default=None)
    _add_config_flags(s, DUMP_FIELDS)
    s.set_defaults(func=cmd_patterns_dump)

    s = sub.add_parser("grad-check", help="compare tape gradients to finite differences")
    s.add_argument("--scene-seed", type=int, default=0)
    s.add_argument("--param-seed", type=int, default=0)
    s.add_argument("--eps", type=float, default=1e-4)
    s.add_argument("--tol", type=float, default=1e-4)
    s.add_argument("--max-coords", type=int, default=None)
    s.add_argument("--gamma", type=float, default=0.01)
    s.add_argument("--ablate", choices=ABLATION_MODES, default="full")
    s.set_defaults(func=cmd_grad_check)

    s = sub.add_parser("ablate", help="train each branch mode and check the fused model's direction")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--size", type=int, default=64)
    s.add_argument("--iters", type=int, default=500)
    s.add_argument("--tail", type=int, default=25, help="iterations averaged for the final loss")
    s.set_defaults(func=cmd_ablate)

    s = sub.add_parser("analyze-priors", help="histogram-transport table over synthetic scenes")
    s.add_argument("--count", type=int, default=10)
    s.add_argument("--size", type=int, default=64)
    s.add_argument("--bins", type=int, default=64)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_analyze_priors)

    s = sub.add_parser("bench", help="scaling of patterns and global aggregation in CPU seconds")
    s.add_argument("--sizes", default=",".join(map(str, BENCH_SIZES)))
    s.add_argument("--d", type=int, default=32)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_bench)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except TrainingDiverged as e:
        print(f"diverged: {e}", file=sys.stderr)
        return 2
    except (CliError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:  # numpy's message gives the size it could not allocate
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
