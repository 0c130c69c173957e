"""auxcount benchmark: run one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload mc-pps --seed 1 --seconds 15 --trace 0

Run from anywhere inside a source checkout; the library is imported from
the checkout's ``src/``.  One process, one caller, each call issued when
the previous one returns (a closed loop with ``workers=1``).

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
this process and fresh processes that only set up), ``pass_s`` (median
pass time) and ``peak_rss_mb``.  Both times are scaled to a reference
host speed by HostSpeed; the wall times are kept in the record.
``--trace 1`` first measures untraced passes, then wraps the library's
public functions (see tracing.py), sets up again and measures traced
passes, and prints the per-layer metrics.  The last line of stdout is the result object; the line before
it is the full record (machine facts, samples, failures), which is also
written to ``perfbench/out/``.  ``--smoke`` runs the same code at tiny
sizes for the benchmark's own tests.
"""

import time

_T0 = time.perf_counter()  # workload start, the origin of setup_s

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = "perfbench/out"
SETUP_PROBES = 2  # fresh set-up-only processes per run, besides this one
PROBE_REF_S = 0.028  # HostSpeed's probe, median seconds on a 2-vCPU Xeon (Sapphire Rapids) VM

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, same code path")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


class HostSpeed:
    """Times a fixed piece of work, to scale wall times to a reference speed.

    The benchmark shares a host whose speed drifts by up to ~1.9x over
    minutes, and CPU time drifts with wall time.  ``probe`` runs the same
    interpreter and numpy work each time; a pass calls it before, between
    and after its operations.  Each stretch of library work between two
    probes is scaled by ``PROBE_REF_S`` over the mean of those probes;
    set-up time by ``PROBE_REF_S`` over the median of probes run after it.
    """

    def __init__(self):
        import numpy

        self.data = numpy.random.default_rng(0).random(100_000)
        self.table: dict = {}
        self.marks: list = []  # (start, timed start, end) of each probe

    def _work(self, loops=60_000, sorts=8):
        acc, table = 0, self.table
        for i in range(loops):
            table[i & 1023] = acc
            acc += i * i
        for _ in range(sorts):
            self.data.argsort()

    def probe(self):
        """Mark a boundary.  The work is timed after a short warm-up, so
        the cache state the library left behind does not count."""
        start = time.perf_counter()
        self._work(2_048, 1)
        t0 = time.perf_counter()
        self._work()
        self.marks.append((start, t0, time.perf_counter()))

    def median(self):
        return statistics.median(end - t0 for _, t0, end in self.marks)

    def scaled(self, first=0):
        """Wall and scaled seconds between the probes from ``first`` on."""
        wall = scaled = 0.0
        marks = self.marks[first:]
        for (_, a0, a1), (b, b0, b1) in zip(marks, marks[1:]):
            dt = b - a1
            wall += dt
            scaled += dt * PROBE_REF_S / ((a1 - a0 + b1 - b0) / 2)
        return wall, scaled

    def scale_now(self, seconds, probes=3):
        """``seconds`` just measured, scaled by the median of fresh probes."""
        for _ in range(probes):
            self.probe()
        return seconds * PROBE_REF_S / self.median()


def measure(wl, tracer, seconds, workers=1):
    """Run passes until the next one would end after ``seconds``; at least one.

    Returns scaled and wall pass times, the probe, (op name, error) pairs,
    and each pass's span range.
    """
    speed = HostSpeed()
    times, walls, ops, ranges = [], [], [], []
    start = time.perf_counter()
    while True:
        first, first_probe = len(tracer.spans), len(speed.marks)
        speed.probe()
        with tracer.span("bench.pass"):
            pass_ops = wl.run_pass(tracer, workers, speed.probe)
        speed.probe()
        wall, scaled = speed.scaled(first_probe)
        times.append(scaled)
        walls.append(wall)
        ranges.append((first, len(tracer.spans)))
        wl.check(pass_ops)
        ops.extend((op.name, op.error) for op in pass_ops)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return times, walls, speed, ops, ranges


def setup_probe(args):
    """Set-up time of a fresh process that does nothing else."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return tuple(map(float, proc.stdout.split()[-2:]))


def _l3_bytes():
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                return int(size.rstrip("KM")) * {"K": 2**10, "M": 2**20}.get(size[-1], 1)
        except (OSError, ValueError):
            pass
    return 0


def machine_facts():
    import numpy
    import scipy

    facts = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": "unknown",
             "l3_bytes": _l3_bytes(), "python": platform.python_version(),
             "numpy": numpy.__version__, "scipy": scipy.__version__,
             "commit": "unknown: not a git checkout"}
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu_model"] = next(
                line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        facts["commit"] = git.stdout.strip() or facts["commit"]
    return facts


def plain_run(wl, args, setup):
    setups = [setup] + [setup_probe(args) for _ in range(1 if args.smoke else SETUP_PROBES)]
    times, walls, speed, ops, _ = measure(wl, tracing.NullTracer(), args.seconds)
    metrics = {
        "setup_s": statistics.median(scaled for scaled, _ in setups),
        "pass_s": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {"setup_s_samples": [scaled for scaled, _ in setups],
               "setup_wall_s_samples": [wall for _, wall in setups],
               "pass_s_samples": times, "pass_wall_s_samples": walls,
               "pass_wall_s": statistics.median(walls), "probe_s": speed.median()}
    return metrics, ops, samples


def traced_run(wl, args):
    half = args.seconds / 2
    plain, _, _, ops, _ = measure(wl, tracing.NullTracer(), half)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            wl.setup()
        traced, _, _, traced_ops, ranges = measure(wl, tracer, half)
    finally:
        tracer.uninstall()
    ops += traced_ops
    metrics = dict.fromkeys((name for name, _, _ in tracing.PER_LAYER), 0.0)
    metrics.update(tracing.layer_metrics(tracer.spans, ranges))
    metrics["bench.trace_overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics["cli.artifact_bytes"] = wl.artifact_bytes()
    samples = {"untraced_pass_s_samples": plain, "traced_pass_s_samples": traced,
               "untraced_targets": tracer.missing}
    if getattr(wl, "has_workers", False):
        two, _, _, two_ops, _ = measure(wl, tracing.NullTracer(), half, workers=2)
        ops += two_ops
        metrics["montecarlo.workers2_speedup"] = statistics.median(plain) / statistics.median(two)
        samples["workers2_pass_s_samples"] = two
    tracer.write(f"{OUT}/spans-{args.workload}.jsonl")  # the latest traced run only
    return metrics, ops, samples


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "auxcount" / "__init__.py").is_file():
        print(f"perfbench: no auxcount sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.chdir(ROOT)
    os.makedirs(OUT, exist_ok=True)
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    workdir = f"{OUT}/work-{args.workload}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, sizes, workdir)
    try:
        wl.setup()
        setup_wall = time.perf_counter() - _T0
        setup = (HostSpeed().scale_now(setup_wall), setup_wall)
        if args.setup_only:
            print(*setup)
            return 0
        if args.trace:
            metrics, ops, samples = traced_run(wl, args)
            units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        else:
            metrics, ops, samples = plain_run(wl, args, setup)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [error for _, error in ops if error]
    facts = machine_facts()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "seconds": args.seconds, "machine": facts,
        "frame_units": wl.frame_units, "peak_rss_mb": rss_mb,
        "peak_rss_over_l3": rss_mb * 2**20 / facts["l3_bytes"] if facts["l3_bytes"] else None,
        "attempted": len(ops), "failed": len(failures),
        "failed_frac": len(failures) / len(ops), "failures": failures[:10],
        **samples, "metrics": metrics,
    }
    with open(f"{OUT}/result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
