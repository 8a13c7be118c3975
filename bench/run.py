"""alleewaves benchmark: seeded workloads, answer checks, end-to-end and per-layer metrics.

Run from the root of a checkout (no install needed; the package is imported
from ``src/``):

    python3 bench/run.py --workload front --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A readable run
record precedes it, and the full record (plus the spans of a traced run) is
written under ``.bench_out/``.  See bench/README.md.
"""

import os

# BLAS threads are held to one before NumPy loads; each run is one
# single-threaded process.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import time  # noqa: E402

T_START = time.perf_counter()  # the set-up clock starts before any import below

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOAD_NAMES = ("front", "profiles", "rediscover")
# Seed kept out of tuning; a later performance claim must also hold on it.
HELD_OUT_SEED = 3630
# Set-up is measured in this many fresh processes.
SETUP_PROBES = 5
# A run is a fixed number of passes, so the same seed gives the same
# operations, answers and failures.  The count is --seconds over this
# nominal pass time (at the reference speed below).
PASS_S = {"front": 6.0, "profiles": 0.155, "rediscover": 1.3}
# A shared host's cores change speed by up to 1.5x, in spells from under a
# second to minutes.  While operations run, a timer signal times the
# workload's calibration kernel (workloads.py: fixed code doing the same kind
# of work as its operations) every SAMPLE_EVERY_S; the time spent in the
# kernel is taken off the operation it interrupted.  Each operation time t
# is scaled to the speed at which the kernel takes REF_S: t * REF_S / k, with
# k the median of the kernel timings taken during the operation, or of the
# LOCAL_SAMPLES timings nearest to it in time if it had fewer.
SAMPLE_EVERY_S = 0.05
LOCAL_SAMPLES = 9
REF_S = 0.003
# Set-up is scaled the same way by the time a fresh interpreter takes to
# import the package's dependencies, NumPy and SciPy, timed right after each
# set-up probe: the median over probes of t * REF_SETUP_S / (import time).
REF_SETUP_S = 0.7
REF_IMPORT = ("import time; t0 = time.perf_counter(); import numpy, scipy.optimize;"
              " print(repr(time.perf_counter() - t0))")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="operation time to measure, at the reference speed; sets the pass count")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def tail(values):
    """(percentile, value) at the highest percentile with >= 10 samples beyond it."""
    import numpy as np
    n = len(values)
    for q in TAIL_PERCENTILES:
        if n * (1.0 - q / 100.0) >= 10:
            return q, float(np.percentile(values, q))
    return None


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def machine_info():
    import numpy
    import scipy
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


class SpeedSampler:
    """Times ``kernel`` from SIGALRM every SAMPLE_EVERY_S while it is entered."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.at, self.samples = [], []  # start and duration of each kernel timing
        self.spent = 0.0  # seconds inside the handler, to take off operation times

    def sample(self, *_):
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.at.append(t0)
        self.samples.append(t1 - t0)
        self.spent += t1 - t0

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self.previous)


def scale_passes(passes, sampler):
    """Adds each pass's scaled operation times (``op_s``) and their sum (``wall_s``)."""
    import numpy as np

    at, took = np.array(sampler.at), np.array(sampler.samples)
    for p in passes:
        p["op_s"] = []
        for (t0, t1), raw in zip(p["span_s"], p["raw_op_s"]):
            gap = np.maximum(np.maximum(t0 - at, at - t1), 0.0)
            near = took[gap == 0.0]
            if len(near) < LOCAL_SAMPLES:
                near = took[np.argsort(gap, kind="stable")[:LOCAL_SAMPLES]]
            p["op_s"].append(raw * REF_S / float(np.median(near)))
        p["wall_s"] = sum(p["op_s"])


def probe_setup(args):
    """(set-up time, reference import time) of two fresh processes, unscaled."""
    times = []
    for argv in ([str(Path(__file__).resolve()), "--workload", args.workload,
                  "--setup-probe"], ["-c", REF_IMPORT]):
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return tuple(times)


def pass_count(args):
    return max(1 if args.trace == 0 else 2, math.ceil(args.seconds / PASS_S[args.workload]))


def run_passes(wl, args, workdir, tracer, setup, sampler):
    """The closed loop: ``pass_count(args)`` whole passes, one operation after another.

    Between passes, SETUP_PROBES pairs of fresh processes measure set-up time
    and the reference import time, spread over the run so they see the same
    machine as the passes; their time is not counted.  ``sampler`` runs only
    while operations do.  With a tracer, odd passes are traced and even
    passes are not, so one run gives both the per-layer numbers and the
    tracing overhead.  Times here are unscaled.
    """
    from workloads import Raised, pass_rng

    n_passes = pass_count(args)
    probes_before = [n_passes * i // SETUP_PROBES for i in range(SETUP_PROBES)]
    passes, failures, attempted = [], [], 0
    for index in range(n_passes):
        setup += [probe_setup(args) for p in probes_before if p == index]
        traced = tracer is not None and index % 2 == 1
        ops = wl.make_pass(pass_rng(args.seed, args.workload, index), workdir)
        results, op_times, spans = [], [], []
        if traced:
            tracer.install()
        with sampler:
            for j, op in enumerate(ops):
                if traced:
                    tracer.op = attempted + j
                    span = tracer.begin(f"op.{args.workload}")
                t0, spent0 = time.perf_counter(), sampler.spent
                try:
                    res = op.run()
                except Exception as exc:  # a failed operation, reported with its cause
                    res = Raised(exc)
                t1 = time.perf_counter()
                op_times.append(t1 - t0 - (sampler.spent - spent0))
                spans.append((t0, t1))
                if traced:
                    tracer.end(span)
                results.append(res)
        if traced:
            tracer.uninstall()
        try:
            causes = wl.check(ops, results)
        except Exception as exc:  # unreadable output fails the whole pass
            causes = [f"answer check raised {type(exc).__name__}: {exc}"] * len(ops)
        for j, (op, cause) in enumerate(zip(ops, causes)):
            if cause is not None:
                failures.append({"op": attempted + j, "pass": index, "name": op.name,
                                 "cause": cause})
        attempted += len(ops)
        passes.append({"traced": traced, "raw_op_s": op_times, "span_s": spans,
                       "raw_wall_s": sum(op_times)})
    return passes, failures, attempted


def memory_pass(wl, args, workdir, tracer):
    """Pass 0 again, untimed and unchecked, with tracemalloc around sim.simulate."""
    from workloads import pass_rng

    tracer.install()
    try:
        for op in wl.make_pass(pass_rng(args.seed, args.workload, 0), workdir):
            try:
                op.run()
            except Exception:  # pass 0 was checked already; only memory is wanted
                pass
    finally:
        tracer.uninstall()


def metric(value, unit, better, samples, **extra):
    return {"value": value, "unit": unit, "better": better, "samples": samples, **extra}


def end_to_end(passes, setup, failures, attempted, quality):
    """Times are scaled to the reference speed; ``raw`` keeps the unscaled value."""
    untraced = [p for p in passes if not p["traced"]]
    walls = [p["wall_s"] for p in untraced]
    raw_walls = [p["raw_wall_s"] for p in untraced]
    ops = [t for p in untraced for t in p["op_s"]]
    raw_ops = [t for p in untraced for t in p["raw_op_s"]]
    wall_tail, op_tail = tail(walls), tail(ops)
    m = {
        "setup_s": metric(statistics.median(s * REF_SETUP_S / r for s, r in setup), "s",
                          "lower", len(setup), raw=statistics.median(s for s, _ in setup)),
        "wall_s": metric(statistics.median(walls), "s", "lower", len(walls),
                         raw=statistics.median(raw_walls),
                         tail=None if wall_tail is None else
                         {"percentile": wall_tail[0], "value": wall_tail[1]}),
        "ops_per_s": metric(len(ops) / sum(walls), "1/s", "higher", len(ops),
                            raw=len(raw_ops) / sum(raw_walls)),
        "op_ms.p50": metric(statistics.median(ops) * 1e3, "ms", "lower", len(ops),
                            raw=statistics.median(raw_ops) * 1e3),
        "op_ms.tail": metric(None if op_tail is None else op_tail[1] * 1e3, "ms", "lower",
                             len(ops), percentile=None if op_tail is None else op_tail[0]),
        "fail_ratio": metric(len(failures) / attempted, "1", "lower", attempted),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                              "MB", "lower", 1),
    }
    for name, (value, unit, better, n) in quality.items():
        m[name] = metric(value, unit, better, n)
    return m


def print_metrics(title, metrics):
    print(title)
    for name, m in metrics.items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        note = ""
        if m.get("percentile") is not None:
            note = f" (p{m['percentile']:g})"
        if m.get("tail"):
            note = f" (tail p{m['tail']['percentile']:g} = {m['tail']['value']:.6g})"
        elif "tail" in m:
            note = " (tail n/a: fewer than 11 samples)"
        if "computed" in m:
            note = f" (computed: {m['computed']})"
        if "raw" in m:
            note += f" [unscaled {m['raw']:.6g}]"
        print(f"  {name:<36} {value:>14} {m['unit']:<6} {m['better']} is better,"
              f" n={m['samples']}{note}")


def run_workload(args):
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import tracing
    import workloads

    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        wl = workloads.WORKLOADS[args.workload]()
        wl.warm_up(workdir)
        if args.setup_probe:
            print(repr(time.perf_counter() - T_START))
            return 0
        setup, sampler = [], SpeedSampler(wl.kernel)
        tracer = tracing.Tracer() if args.trace else None
        passes, failures, attempted = run_passes(wl, args, workdir, tracer, setup, sampler)
        while len(sampler.samples) < LOCAL_SAMPLES:  # a run too short for the timer
            sampler.sample()
        scale_passes(passes, sampler)
        if tracer is not None:
            memory = tracing.Tracer(memory=True)
            memory_pass(wl, args, workdir, memory)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    OUT_DIR.mkdir(exist_ok=True)
    record_path = OUT_DIR / f"record_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    record = {
        "workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds, "trace": args.trace, "machine": machine_info(),
        "sizes": {**wl.sizes(), "passes": len(passes), "ops": attempted},
        "time_scale": {"ref_s": REF_S, "kernel_s": sampler.samples,
                       "run_scale": REF_S / statistics.median(sampler.samples)},
        "setup_samples_s": [{"setup": s, "reference_import": r} for s, r in setup],
        "pass_wall_s": [p["wall_s"] for p in passes],
        "end_to_end": end_to_end(passes, setup, failures, attempted, wl.quality()),
        "failures": failures,
    }
    print_record(record, record_path)
    section = "end_to_end"
    if tracer is not None:
        section = "per_layer"
        traced = [p["wall_s"] for p in passes if p["traced"]]
        record["per_layer"] = {
            name: metric(value, *tracing.PER_LAYER[name], len(traced))
            for name, value in tracing.per_layer_metrics(tracer.spans, len(traced),
                                                         memory.spans).items()}
        for name, how in tracing.COMPUTED.items():
            record["per_layer"][name]["computed"] = how
        untraced_wall = record["end_to_end"]["wall_s"]["value"]
        record["tracing_overhead_s"] = statistics.median(traced) - untraced_wall
        span_path = OUT_DIR / f"spans_{args.workload}_seed{args.seed}.jsonl"
        tracer.write(span_path)
        print_metrics(f"per-layer (per traced pass, {len(traced)} traced passes):",
                      record["per_layer"])
        print(f"tracing overhead: {record['tracing_overhead_s']:.6g} s per pass"
              f" (traced wall_s median {statistics.median(traced):.6g} s minus"
              f" untraced {untraced_wall:.6g} s, both scaled); spans in {span_path.relative_to(ROOT)}")
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[section]]
    print(json.dumps({
        "correct": all(workloads.is_known(f["cause"]) for f in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": record[section][name]["value"],
                           "unit": record[section][name]["unit"]} for name in names},
    }))
    return 0


def print_record(record, record_path):
    print(f"alleewaves benchmark: workload={record['workload']} seed={record['seed']}"
          f" seconds={record['seconds']:g} trace={record['trace']}"
          f" (held-out seed {HELD_OUT_SEED})")
    print("machine: " + json.dumps(record["machine"]))
    print("sizes: " + json.dumps(record["sizes"]))
    print_metrics("end-to-end (untraced passes):", record["end_to_end"])
    failures = record["failures"]
    print(f"failed operations: {len(failures)} of {record['sizes']['ops']}; run record"
          f" with each one listed: {record_path.relative_to(ROOT)}")
    by_cause = {}
    for f in failures:
        by_cause.setdefault(f["cause"], []).append(f"{f['op']} ({f['name']})")
    for cause, ops in by_cause.items():
        shown = ", ".join(ops[:8]) + (f", ... {len(ops) - 8} more" if len(ops) > 8 else "")
        print(f"  {len(ops)} x {cause}: ops {shown}")


def run_all(args):
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", repr(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT)
        status = status or proc.returncode
    return status


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "alleewaves" / "__init__.py").is_file():
        print(f"error: {SRC / 'alleewaves'} not found; run from a checkout of the"
              " repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
