"""Seeded benchmark of skeinrep: construction, certification and rewriting.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md): construct_verify, certify_torus, certify_sphere
and rewrite, which BENCHMARK.json lists, and certify_torus_n5 and
certify_sphere_n5, which record criterion 7's N = 5 costs by hand.  Everything runs in this one
process and thread; the only other processes are the set-up probes, started
one at a time and waited for.

--trace 0 measures the end-to-end metrics.  It repeats passes over the
workload's fixed list of operations while another pass still fits in
--seconds (always at least one).  It times set-up as the median of several
fresh processes that import skeinrep and set the workload up, half of them
before the passes and half after.  Operation times are
scaled to a fixed machine speed by the reference kernel in speed.py, probed
between operations; the raw times are printed beside them.

--trace 1 reports the per-layer metrics.  It runs every operation once
untraced and once under the outside-in tracer (tracer.py); the tracing
overhead is the difference of the two sides' summed times.

Every operation is checked; failures are counted, never fatal.  Artifacts
written through the CLI must be byte-identical across passes, between the
untraced and traced pass, and across runs of the same seed, benchmark and
source tree.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from time import perf_counter

from speed import REFERENCE_S, Speed

# one BLAS thread: the benchmark runs single-threaded
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("construct_verify", "certify_torus", "certify_sphere", "rewrite", "certify_torus_n5",
             "certify_sphere_n5")
SETUP_PROBES = 8  # half before the timed passes, half after
P90_MIN_SAMPLES = 100  # at least ten samples beyond the 90th percentile

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("pass_ratio", "ratio"),
    ("headroom_bits_min", "bits"),
    ("peak_rss_mb", "MB"),
]

_PROBE = ("import sys\n"
          "sys.path[:0] = sys.argv[1:3]\n"
          "import workloads\n"
          "workloads.setup(sys.argv[3], int(sys.argv[4]), sys.argv[5])\n"
          "print('ready', flush=True)\n")


def setup_times(workload, seed, out_dir, probes):
    """Times from starting a fresh interpreter to the workload being set up.

    Not scaled by the speed kernel: set-up is mostly imports, whose time
    follows the machine's load less closely than the kernel's does.
    """
    times = []
    for _ in range(probes):
        start = perf_counter()
        with subprocess.Popen([sys.executable, "-c", _PROBE, SRC, BENCH, workload, str(seed),
                               out_dir], stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - start)
            proc.stdout.read()
            status = proc.wait(timeout=120)
        if status != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited with status {status}")
    return times


def run_op(op):
    """(latency, ok, headroom bits, digest) of one checked operation."""
    from skeinrep.errors import SkeinError

    start = perf_counter()
    try:
        ok, bits, digest = op()
    except SkeinError:
        ok, bits, digest = False, math.inf, None
    return perf_counter() - start, ok, bits, digest


def run_pass(ops, speed):
    """Per-operation results of one pass, each with its start time.

    ``speed`` is probed between operations, at most once per ``speed.GAP_S``.
    """
    results = []
    for op in ops:
        start = perf_counter()
        results.append((start, *run_op(op)))
        speed.maybe_probe()
    return results


class Tally:
    """Failures, headroom and artifact digests over every pass of a run.

    The first pass's digests are the reference; a later pass whose artifact
    differs fails that operation.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.headroom = math.inf
        self.latencies = []
        self.digests = None
        self.first_ok = None

    def add(self, results):
        if self.digests is None:
            self.digests = [d for _, _, _, d in results]
            self.first_ok = [ok for _, ok, _, _ in results]
        for (latency, ok, bits, digest), ref in zip(results, self.digests):
            self.attempted += 1
            self.failed += not ok or digest != ref
            self.headroom = min(self.headroom, bits)
            self.latencies.append(latency)

    def check_stored_digests(self, key):
        """Compare artifact digests with an earlier run of the same seed, benchmark and source tree.

        A differing artifact fails its operation of the first pass, unless
        that operation had already failed.
        """
        if not any(self.digests):
            return
        path = os.path.join(OUT, "digests.json")
        try:
            with open(path) as fh:
                stored = json.load(fh)
        except (OSError, ValueError):
            stored = {}
        earlier = stored.get(key)
        if earlier is None:
            stored[key] = self.digests
            tmp = path + f".{os.getpid()}"
            with open(tmp, "w") as fh:
                json.dump(stored, fh)
            os.replace(tmp, path)
        else:
            self.failed += sum(ok and d != e for d, e, ok in zip(self.digests, earlier, self.first_ok))

    def combined_digest(self):
        return hashlib.sha256("\n".join(d or "-" for d in self.digests).encode()).hexdigest()


def source_digest(directory):
    """sha256 over the Python files of ``directory``."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout when it is a git repository, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(src_sha):
    import mpmath
    import numpy

    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "python_threads": threading.active_count(),
        "git_commit": git_commit(),
        "src_sha256": src_sha,
    }


def emit(tally, metrics, units, env):
    correct = tally.failed == 0
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"fail_ratio {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed} of {tally.attempted} operations)")
    if any(tally.digests):
        print(f"artifacts_sha256 {tally.combined_digest()}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


def timed_run(args, ops, tally, run_dir):
    setup = setup_times(args.workload, args.seed, run_dir, SETUP_PROBES // 2)
    speed = Speed()
    speed.probe()
    passes = []
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        passes.append(run_pass(ops, speed))
        now = perf_counter()
        if (now - start) + (now - pass_start) > args.seconds:  # another pass would overrun
            break
    speed.probe()
    # set-up probes on both sides of the passes see more of the machine's drift
    setup += setup_times(args.workload, args.seed, run_dir, SETUP_PROBES - SETUP_PROBES // 2)
    scaled = [[(lat * speed.scale(t0, t0 + lat), *rest) for t0, lat, *rest in results]
              for results in passes]
    for results in scaled:
        tally.add(results)
    lat = tally.latencies
    raw_lat = [r[1] for results in passes for r in results]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(sum(r[0] for r in results) for results in scaled),
        "ops_per_s": tally.attempted / sum(lat),
        "op_ms_p50": 1000 * statistics.median(lat),
        "pass_ratio": 1 - tally.failed / tally.attempted,
        "headroom_bits_min": tally.headroom,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"workload {args.workload} seed {args.seed} passes {len(passes)} "
          f"operations {len(ops)} per pass")
    print(f"times scaled to a kernel time of {1000 * REFERENCE_S:g} ms; this run's median "
          f"kernel time {speed.kernel_ms():.4g} ms over {len(speed.times)} probes")
    raw_wall = statistics.median(sum(r[1] for r in results) for results in passes)
    print(f"raw wall_s {raw_wall:.6g} s, raw op_ms_p50 {1000 * statistics.median(raw_lat):.6g} ms")
    if len(lat) >= P90_MIN_SAMPLES:
        p90 = 1000 * statistics.quantiles(lat, n=10)[-1]
        print(f"op_ms_p90 {p90:.6g} ms ({len(lat)} samples)")
    else:
        print(f"op_ms_p90 not reported ({len(lat)} samples, needs {P90_MIN_SAMPLES})")
    return metrics, dict(END_TO_END)


def traced_run(args, ops, tally):
    """Each operation once untraced and once traced, alternating which goes first.

    Interleaving per operation keeps the two sides on the same machine state,
    so their difference is the tracing overhead and not drift between passes.
    """
    import tracer

    tr = tracer.Tracer()
    untraced, traced = [], []
    for i, op in enumerate(ops):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tr.install()
            try:
                # the operation's root span groups every span it causes
                result = run_op(tr.wrap("operation", op) if with_trace else op)
            finally:
                tr.uninstall()
            (traced if with_trace else untraced).append(result)
    tally.add(untraced)
    tally.add(traced)
    untraced_wall = sum(r[0] for r in untraced)
    traced_wall = sum(r[0] for r in traced)
    metrics = tr.metrics()
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    units = {name: unit for name, unit, _ in tracer.PER_LAYER}
    units["trace.overhead_s"] = "s"
    spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json.gz")
    tr.write_spans(spans_path)
    print(f"workload {args.workload} seed {args.seed} operations {len(ops)}: "
          f"untraced wall_s {untraced_wall:.6g} s, traced wall_s {traced_wall:.6g} s")
    print("waits: none; one process and one thread, so no layer waits on another")
    print(f"spans {len(tr.spans)} written to {os.path.relpath(spans_path, ROOT)}")
    return metrics, units


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "skeinrep", "__init__.py")):
        print(f"error: no skeinrep sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCH]
    import workloads

    os.makedirs(OUT, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        ops = workloads.setup(args.workload, args.seed, run_dir)
        tally = Tally()
        if args.trace:
            metrics, units = traced_run(args, ops, tally)
        else:
            metrics, units = timed_run(args, ops, tally, run_dir)
        src_sha = source_digest(os.path.join(SRC, "skeinrep"))
        # the benchmark's own files fix which artifacts a seed produces
        tally.check_stored_digests(f"{src_sha}:{source_digest(BENCH)}:{args.workload}:{args.seed}")
        emit(tally, metrics, units, environment(src_sha))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
