"""fentropy benchmark: four seeded workloads run against the package in src/.

Run from the root of a checkout:

    python3 bench/run.py --workload boundary --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --self-test

Each run is a closed loop: one client in one process starts the next job
only after the previous one has completed and been checked (the cli workload
runs one child process at a time). Jobs run in whole cycles of the
workload's job kinds, for about --seconds. The last line of stdout is
one JSON object with `correct`, `attempted`, `failed` and `metrics`; the line
before it records provenance. --trace 0 prints the end-to-end metrics,
--trace 1 the per-layer metrics of a traced run (see bench/README.md).
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3  # this process plus two fresh probe processes
IMPORT_SAMPLES = 3
MAX_FAILURE_LOGS = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["boundary", "walks", "gauges", "cli"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--max-jobs", type=int, default=0,
                    help="stop after this many jobs (self-test only)")
    ap.add_argument("--self-test", action="store_true",
                    help="run every workload briefly and check the metric names and units")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def fail(msg):
    sys.stderr.write(f"bench: {msg}\n")
    sys.exit(2)


def import_package():
    if not (SRC / "fentropy" / "__init__.py").is_file():
        fail(f"no fentropy package under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import fentropy

    if Path(fentropy.__file__).resolve().parent != (SRC / "fentropy").resolve():
        fail(f"imported fentropy from {fentropy.__file__}, not from {SRC}")
    return fentropy


# --- provenance ---------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if r.returncode != 0:
        return None
    return r.stdout.strip() or None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "fentropy").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, extra):
    from importlib import metadata

    import numpy

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": version("scipy"), "git_commit": _git_commit(),
        "src_sha256": _src_digest(), **extra,
    }


# --- running jobs -------------------------------------------------------------

def make_workload(name, seed, workdir, timing=False):
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    if name == "cli":
        return cls(seed, workdir, str(SRC), timing=timing)
    return cls(seed, workdir)


class Loop:
    """Runs jobs in whole cycles and records latency and failures."""

    def __init__(self, workload, tracer=None):
        self.wl = workload
        self.tracer = tracer
        self.latencies = []
        self.failed = 0

    def job(self, index):
        if self.tracer is not None:
            self.tracer.job = index
        t0 = time.perf_counter()
        try:
            self.wl.run(index)
        except Exception:  # a failed job is counted, logged and the loop goes on
            self.failed += 1
            if self.failed <= MAX_FAILURE_LOGS:
                sys.stderr.write(f"bench: job {index} failed\n{traceback.format_exc()}")
        self.latencies.append(time.perf_counter() - t0)

    def until(self, seconds, max_jobs=0):
        """Jobs 0, 1, ... in whole cycles, stopping at the cycle end nearest to
        `seconds` (at least one cycle); returns (jobs, wall)."""
        cycle = len(self.wl.cycle)
        t0 = time.perf_counter()
        i = 0
        while True:
            if max_jobs and i >= max_jobs:
                break
            if i and i % cycle == 0:
                elapsed = time.perf_counter() - t0
                if elapsed + elapsed / (i // cycle) / 2 >= seconds:
                    break
            self.job(i)
            i += 1
        return i, time.perf_counter() - t0

    def replay(self, jobs):
        t0 = time.perf_counter()
        for i in range(jobs):
            self.job(i)
        return time.perf_counter() - t0


def setup(args, workdir, timing=False):
    """Import is already done; make the inputs and run one warm-up job.

    Returns the workload and the number of failed warm-up jobs (0 or 1).
    """
    wl = make_workload(args.workload, args.seed, workdir, timing=timing)
    wl.setup()
    warm = Loop(wl)
    warm.job(0)
    return wl, warm.failed


def setup_probe(args):
    """Time import, input generation and one warm-up job in a fresh process."""
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as workdir:
        import_package()
        setup(args, workdir)
        print(json.dumps({"setup_s": time.perf_counter() - T_START}))


def probe_setup_times(args, n):
    times = []
    for _ in range(n):
        r = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        if r.returncode != 0:
            fail(f"setup probe failed: {r.stderr[-500:]}")
        times.append(json.loads(r.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def import_times(n):
    """Seconds to import fentropy.cli in a fresh interpreter, measured inside it."""
    code = ("import time; t = time.perf_counter(); import fentropy.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(n):
        r = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=170)
        if r.returncode != 0:
            fail(f"import probe failed: {r.stderr[-500:]}")
        out.append(float(r.stdout.strip()))
    return out


def percentile(xs, pct):
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[pct - 1]


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(args, workdir):
    wl, warm_failed = setup(args, workdir)
    own_setup = time.perf_counter() - T_START
    setup_times = [own_setup] + probe_setup_times(args, SETUP_SAMPLES - 1)
    loop = Loop(wl)
    jobs, wall = loop.until(args.seconds, args.max_jobs)
    lat = loop.latencies
    if args.workload == "cli":
        peak_kb = wl.max_child_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tail = wl.tail_pct
    if jobs * (100 - tail) < 1000:
        sys.stderr.write(f"bench: only {jobs} jobs, fewer than 10 beyond p{tail}\n")
    ok = (jobs - loop.failed) / jobs
    metrics = {
        "jobs_per_s": metric((jobs - loop.failed) / wall, "1/s"),
        "job_p50_ms": metric(statistics.median(lat) * 1e3, "ms"),
        "job_tail_ms": metric(percentile(lat, tail) * 1e3, "ms"),
        "ok_frac": metric(ok, "frac"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(peak_kb / 1024.0, "MB"),
    }
    extra = {"jobs": jobs, "cycles": jobs / len(wl.cycle), "wall_s": wall,
             "tail_percentile": tail, "setup_samples_s": setup_times}
    return jobs + 1, loop.failed + warm_failed, metrics, extra


def traced(args, workdir):
    from tracing import Instrumentation, Tracer, layer_metrics

    wl, warm_failed = setup(args, workdir, timing=True)
    if args.workload == "cli":
        wl.records.clear()
    tracer = Tracer()
    inst = Instrumentation(tracer)
    inst.install()
    loop = Loop(wl, tracer)
    tracer.enabled = True
    jobs, wall_traced = loop.until(args.seconds / 2.0, args.max_jobs)
    tracer.enabled = False
    metrics = layer_metrics(tracer, jobs)
    inst.uninstall()
    metrics.update(cli_metrics(wl))
    if args.workload == "cli":
        wl.timing = False
    wall_plain = loop.replay(jobs)
    metrics["trace.overhead_frac"] = metric(wall_traced / wall_plain - 1.0, "frac")
    extra = {"jobs_traced": jobs, "wall_traced_s": wall_traced, "wall_untraced_s": wall_plain,
             "spans": len(tracer.spans), "work_count_s": tracer.overhead_s}
    return 2 * jobs + 1, loop.failed + warm_failed, metrics, extra


def cli_metrics(wl):
    from workloads import Cli

    out = {"cli.import_s": metric(statistics.median(import_times(IMPORT_SAMPLES)), "s")}
    records = getattr(wl, "records", [])
    for kind in Cli.cycle:
        hs = [h for k, _, h, _ in records if k == kind]
        out[f"cli.handler_s.{kind}"] = metric(statistics.median(hs) if hs else 0.0, "s")
    overhead = [wall - h for _, wall, h, _ in records]
    out["cli.process_overhead_s"] = metric(
        statistics.median(overhead) if overhead else 0.0, "s")
    first = {}
    for kind, _, _, nbytes in records:
        first.setdefault(kind, nbytes)
    out["cli.report_bytes"] = metric(sum(first.values()), "bytes/cycle")
    return out


# --- self-test ----------------------------------------------------------------

def self_test():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for wl in spec["workloads"]:
        for trace in (0, 1):
            cmd = [*spec["command"], "--workload", wl["name"], "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--max-jobs", "3"]
            cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
            t0 = time.perf_counter()
            r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            label = f"{wl['name']} trace={trace}"
            try:
                result = json.loads(r.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{label}: no result line (exit {r.returncode}): "
                                f"{r.stderr[-500:]}")
                continue
            got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
            checks = [
                (r.returncode == 0, f"exit code {r.returncode}"),
                (set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys"),
                (result.get("correct") is True and result.get("failed") == 0, "failed jobs"),
                (isinstance(result.get("attempted"), int) and result["attempted"] >= 1,
                 "attempted"),
                (set(got) == set(expected[trace]),
                 f"metric names differ: {sorted(set(got) ^ set(expected[trace]))}"),
                (all(got[k] == expected[trace][k] for k in set(got) & set(expected[trace])),
                 "metric units differ"),
            ]
            bad = [msg for ok, msg in checks if not ok]
            problems.extend(f"{label}: {msg}" for msg in bad)
            print(f"{label}: {'ok' if not bad else 'FAIL'} "
                  f"({len(got)} metrics, {time.perf_counter() - t0:.1f} s)")
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if "FE_THREADS" in os.environ:
        fail("FE_THREADS is set; the load model is one thread, so unset it")
    if args.self_test:
        import_package()
        return self_test()
    if args.setup_probe:
        setup_probe(args)
        return 0
    import_package()
    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH)
    try:
        run = traced if args.trace else end_to_end
        attempted, failed, metrics, extra = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"provenance": provenance(args, extra)}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
