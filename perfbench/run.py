"""End-to-end benchmark of graphpan training and evaluation.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-64 --seed 1 --seconds 20 --trace 0

Every workload is a closed loop with one caller that drives graphpan through
its public Python API on scenes synthesised from ``--seed``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and traced
passes and reports per-layer metrics from spans wrapped around the package's
public functions (see ``spans.py``).  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

import time

_T_START = time.perf_counter()  # setup_s counts from here

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# BLAS must be pinned before numpy loads; the package is documented as
# single-threaded, and a pool that switches on with problem size makes
# timings jump between runs.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"

WORKLOADS = {
    # n = 1,125 nodes: the tape backward dominates, the n x n work is small
    "train-64": {"kind": "train", "size": 64, "scenes": 4, "iters": 2},
    # n = 4,805 nodes: dense global pass, contrastive term and their backward
    # dominate; three iterations a pass give six timed ones in a 20 s run
    "train-128": {"kind": "train", "size": 128, "scenes": 1, "iters": 3},
    # same pipeline without tape, contrastive term or Adam; kNN dominates
    "eval-128": {"kind": "eval", "size": 128, "scenes": 4},
}
QUALITY_SCENES = 4  # psnr_db averages this many scenes, whatever the workload trains on
SETUP_SAMPLES = 3  # this process plus fresh child processes
REF_NOMINAL_S = 0.0056  # typical reference-kernel seconds on the 2-core box the bounds were tuned on
LOSS_RTOL = 1e-4  # tape-path vs plain loss, float32

END_TO_END_UNITS = {
    "setup_s": "s",
    "iter_s": "s",
    "scene_s": "s",
    "peak_rss_mb": "MiB",
    "psnr_db": "dB",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", type=int, default=None, help="override the scene size (self-test)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_graphpan():
    """Import the package from this checkout's source tree, nowhere else."""
    if not (SRC / "graphpan" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'graphpan'} not found; run from the root of a graphpan checkout")
    sys.path.insert(0, str(SRC))
    import graphpan

    if Path(graphpan.__file__).resolve().parent != (SRC / "graphpan").resolve():
        sys.exit(f"error: graphpan imported from {graphpan.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# inputs and set-up


def make_inputs(seed, size):
    """QUALITY_SCENES scenes and a parameter seed, all derived from the
    benchmark seed; a workload runs on the first ``spec["scenes"]``."""
    import numpy as np
    from graphpan import imaging

    seeds = np.random.SeedSequence(seed).generate_state(QUALITY_SCENES + 1)
    scenes = [imaging.synth_scene(int(s), size=size) for s in seeds[:-1]]
    return scenes, int(seeds[-1])


def scene_l1(fused, scene):
    """Mean absolute error of a fused image against the scene's ground truth."""
    import numpy as np

    return float(np.abs(fused.data.astype(np.float64) - scene.gt.data).mean())


class TrainWorkload:
    """One operation is one training iteration of ``training.train``."""

    def __init__(self, scenes, spec, param_seed):
        from graphpan.config import TrainConfig

        self.quality_scenes = scenes
        self.scenes = scenes[:spec["scenes"]]
        # a fixed iteration count per training.train call fixes psnr_db per seed
        self.cfg = TrainConfig(seed=param_seed, iters=spec["iters"])
        self.scenes_per_op = min(self.cfg.batch, len(self.scenes))

    def warm_up(self):
        from graphpan import training

        training.train(self.scenes, self.cfg.replace(iters=1))

    def close(self):
        pass

    def run_pass(self, clock):
        """One ``training.train`` call; every iteration's tape loss is
        checked against the plain-valued ``scene_loss`` between iterations."""
        from graphpan import training

        passes = []
        real_backward = training.backward

        def recording_backward(scene, params, cfg):
            bd, grads = real_backward(scene, params, cfg)
            passes.append((scene, params.copy(), bd.total))
            return bd, grads

        def progress(it, bd):
            clock.end_op()
            ok = len(passes) == self.scenes_per_op and bool(
                abs(sum(p[2] for p in passes) / len(passes) - bd.total) <= LOSS_RTOL * abs(bd.total)
            )
            for scene, params, total in passes:
                plain = training.scene_loss(scene, params, self.cfg)[2]
                ok = ok and bool(abs(plain - total) <= LOSS_RTOL * abs(plain))
            passes.clear()
            self.l1_trace.append(bd.l1)
            clock.record(ok)
            clock.start_op()

        self.l1_trace = []
        training.backward = recording_backward
        clock.start_op()
        try:
            self.params, _ = training.train(self.scenes, self.cfg, progress=progress)
        except training.TrainingDiverged:
            clock.end_op()
            clock.record(False)
        else:
            clock.cancel_op()
        finally:
            training.backward = real_backward
        return tuple(self.l1_trace)

    def quality(self):
        """(mean L1, mean PSNR) of the trained model's fused output on the
        quality scenes."""
        import numpy as np
        from graphpan import aggregation, metrics

        rows = []
        for s in self.quality_scenes:
            fused = aggregation.forward(s, self.params, self.cfg).fused
            rows.append((scene_l1(fused, s), metrics.psnr(fused, s.gt)))
        return tuple(float(x) for x in np.mean(rows, axis=0))


class EvalWorkload:
    """Mirrors ``graphpan eval --mode reduced``: one pass loads the
    checkpoint, then one operation per scene runs ``aggregation.forward`` and
    ``metrics.full_reference``."""

    def __init__(self, scenes, spec, param_seed):
        from graphpan import training
        from graphpan.aggregation import ModelParams
        from graphpan.config import TrainConfig

        self.scenes = scenes[:spec["scenes"]]
        self.scenes_per_op = 1
        cfg = TrainConfig()
        WORK.mkdir(exist_ok=True)
        self.ckpt = WORK / f"model-{os.getpid()}.hssn"
        training.save_checkpoint(self.ckpt, ModelParams.init(cfg, seed=param_seed, zero_recon=False), cfg)

    def close(self):
        self.ckpt.unlink(missing_ok=True)

    def _evaluate(self, scene, params, cfg):
        from graphpan import aggregation, metrics

        fused = aggregation.forward(scene, params, cfg).fused
        return fused, metrics.full_reference(fused, scene.gt, scale=scene.scale)

    def warm_up(self):
        from graphpan import training

        params, cfg = training.load_checkpoint(self.ckpt)
        self._evaluate(self.scenes[0], params, cfg)

    def run_pass(self, clock):
        import numpy as np
        from graphpan import training

        results = []
        clock.start_op()
        params, cfg = training.load_checkpoint(self.ckpt)
        for scene in self.scenes:
            fused, rep = self._evaluate(scene, params, cfg)
            clock.end_op()
            v = fused.data
            row = rep.as_row()
            ok = bool(np.isfinite(v).all() and v.min() >= 0.0 and v.max() <= 1.0)
            ok = ok and bool(np.isfinite(row).all())
            results.append((scene_l1(fused, scene), rep.psnr))
            clock.record(ok)
            clock.start_op()
        clock.cancel_op()
        self.results = results
        return tuple(results)

    def quality(self):
        l1, psnr = zip(*self.results)
        return float(sum(l1) / len(l1)), float(sum(psnr) / len(psnr))


def set_up(spec, seed, size, t_import):
    """Synthesise inputs, build the workload and warm it up.  Returns the
    workload and this set-up's wall and normalised seconds (imports
    included), the latter against reference runs made right after it."""
    t0 = time.perf_counter()
    scenes, param_seed = make_inputs(seed, size)
    kind = TrainWorkload if spec["kind"] == "train" else EvalWorkload
    work = kind(scenes, spec, param_seed)
    work.warm_up()
    wall_s = t_import + time.perf_counter() - t0
    reference_s(1)  # the first run pays for BLAS start-up
    ref_s = reference_s(15)
    return work, wall_s, wall_s * REF_NOMINAL_S / ref_s


def child_setup_s(args):
    """Normalised set-up seconds of a fresh process on the same inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    if args.size is not None:
        cmd += ["--size", str(args.size)]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=170)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


# ---------------------------------------------------------------------------
# timing

_REF_MATRIX = None


def reference_s(runs=5):
    """Median seconds of ``runs`` runs of a fixed CPU-bound kernel that uses
    no graphpan code: a pure-Python loop and small BLAS matrix products, the
    interpreter and dense work that graphpan's time goes to.

    The shared host's speed drifts by up to 1.7x over tens of seconds, and
    this kernel slows in step with graphpan; timings are normalised by it
    (see README.md).  The median keeps one preempted run from setting it."""
    global _REF_MATRIX
    import numpy as np

    if _REF_MATRIX is None:
        _REF_MATRIX = np.linspace(0.0, 1.0, 192 * 192).reshape(192, 192)
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        acc = 0
        for i in range(40_000):
            acc += i * i
        for _ in range(5):
            _REF_MATRIX @ _REF_MATRIX
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Clock:
    """Closed-loop operation timer; output checks run between ``end_op`` and
    the next ``start_op`` and stay out of the operation time.  Each
    operation is bracketed by two measurements of the reference kernel, also
    outside its time; ``ref_s`` holds their mean."""

    def __init__(self):
        self.tracer = None  # set to a spans.Tracer for traced passes
        self.op_s = []
        self.ref_s = []
        self.ok = []
        self._t0 = None
        self._ref0 = None

    def start_op(self):
        self._ref0 = reference_s()
        if self.tracer is not None:
            self.tracer.op = len(self.op_s)
            self.tracer.recording = True
        self._t0 = time.perf_counter()

    def end_op(self):
        wall = time.perf_counter() - self._t0
        if self.tracer is not None:
            self.tracer.recording = False
        self.op_s.append(wall)
        self.ref_s.append((self._ref0 + reference_s()) / 2)

    def cancel_op(self):
        if self.tracer is not None:
            self.tracer.recording = False

    def record(self, ok):
        self.ok.append(bool(ok))


# ---------------------------------------------------------------------------
# environment stamp


def blas_threads_in_use():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    import ctypes
    import glob

    import numpy as np

    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import numpy as np
    import scipy

    rev = None
    if (ROOT / ".git").exists():  # a plain export has no revision; never ask a parent repo
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                 cwd=ROOT, timeout=10).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "graphpan").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_revision": rev,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})",
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_in_use": blas_threads_in_use(),
        "nproc": os.cpu_count(),
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / (1 << 20),
    }


# ---------------------------------------------------------------------------


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def main(argv=None):
    args = parse_args(argv)
    spec = WORKLOADS[args.workload]
    size = args.size or spec["size"]
    import_graphpan()
    from graphpan import aggregation, metrics, training  # noqa: F401  (their import counts in setup_s)

    t_import = time.perf_counter() - _T_START
    if args.setup_only:
        work, _, setup_s = set_up(spec, args.seed, size, t_import)
        work.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    setups = [] if args.trace else [child_setup_s(args) for _ in range(SETUP_SAMPLES - 1)]
    t_setup = time.perf_counter()
    work, own_setup_wall_s, own_setup_s = set_up(spec, args.seed, size, t_import)
    setups.append(own_setup_s)

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    clock = Clock()
    untraced, traced_s = [], {}
    outputs = []
    deadline = time.perf_counter() + args.seconds
    try:
        while not outputs or time.perf_counter() < deadline or (args.trace and not traced_s):
            traced = bool(args.trace) and len(outputs) % 2 == 1
            first = len(clock.op_s)
            if traced:
                clock.tracer = tracer
                tracer.install()
            try:
                outputs.append(work.run_pass(clock))
            finally:
                if traced:
                    tracer.uninstall()
                    clock.tracer = None
            new = range(first, len(clock.op_s))
            if traced:
                traced_s.update((i, clock.op_s[i]) for i in new)
            else:
                untraced.extend(new)
        if not args.trace:
            l1_end, psnr_db = work.quality()
    finally:
        work.close()

    deterministic = all(o == outputs[0] for o in outputs)
    attempted, failed = len(clock.ok), clock.ok.count(False)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "size": size,
        "setup_samples_s": setups,
        "own_setup_wall_s": own_setup_wall_s,
        "ops": attempted,
        "op_s": clock.op_s,
        "ref_s": clock.ref_s,
        "fail_frac": failed / max(attempted, 1),
        "deterministic": deterministic,
        "wall_s": time.perf_counter() - t_setup,
    }
    if args.trace:
        values = tracer.per_layer(traced_s, [clock.op_s[i] for i in untraced])
        units = spans.per_layer_units()
        out = {k: metric(values[k], units[k]) for k in units}
        WORK.mkdir(exist_ok=True)
        trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"detail": detail, "per_layer": values, **tracer.dump()}))
        detail["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        wall_med = statistics.median(clock.op_s[i] for i in untraced)
        op_med = wall_med * REF_NOMINAL_S / statistics.median(clock.ref_s[i] for i in untraced)
        detail["iter_wall_s"] = wall_med
        values = {
            "setup_s": statistics.median(setups),
            "iter_s": op_med,
            "scene_s": op_med / work.scenes_per_op,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "psnr_db": psnr_db,
        }
        out = {k: metric(values[k], END_TO_END_UNITS[k]) for k in END_TO_END_UNITS}
        # scene content moves L1 by 7-12% between seeds, too much for a bound
        detail["l1_end"] = l1_end
    print(json.dumps({"env": environment(), "detail": detail}))
    print(json.dumps({
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
