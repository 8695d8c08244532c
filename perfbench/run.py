"""jetcool benchmark: seeded workloads driven through ``jetcool.cli.run``.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25

One workload runs in this process; ``all`` runs every workload in a fresh
process, untraced and then traced. The client is closed-loop: one request at
a time, each issued when the previous one returns. Passes over the
workload's requests repeat for ``--seconds``; each request is timed as its
median over the passes. Set-up (importing jetcool and writing the inputs)
is timed in five fresh processes and reported as their median. Untraced
times are scaled to the reference machine speed with ``probe.py``. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics untraced (``--trace 0``),
the per-layer metrics traced (``--trace 1``). Full results and kept spans go
to ``.perfbench/results``. Exits non-zero when any output check fails.
"""

from __future__ import annotations

import os

# pin BLAS pools before numpy loads: the benchmark measures one thread
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import (contextmanager, redirect_stderr,  # noqa: E402
                        redirect_stdout)
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import probe  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
RESULTS = STATE / "results"
# the smoke-test size sets up once
SETUP_REPEATS = {"full": 5, "tiny": 1}
CHILD_TIMEOUT_S = 900


def _fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_jetcool():
    """Import jetcool from this checkout's sources, never from elsewhere."""
    if not (SRC / "jetcool" / "__init__.py").is_file():
        _fail(f"no jetcool sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import jetcool
    import jetcool.cli
    if Path(jetcool.__file__).resolve().parent != SRC / "jetcool":
        _fail(f"imported jetcool from {jetcool.__file__}, not {SRC}")
    return jetcool.cli


def machine_info() -> dict:
    import jetcool
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "jetcool": jetcool.__version__, "machine": platform.machine(),
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS}}


def metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


# ---------------------------------------------------------------------------
# set-up

def timed_setups(args, workdir: Path) -> tuple[list[float], Path]:
    """Import jetcool and write the inputs in fresh processes, timed whole."""
    times, inputs = [], None
    for k in range(SETUP_REPEATS[args.size]):
        inputs = workdir / f"inputs-{k}"
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--size", args.size, "--setup-only", str(inputs)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            _fail(f"set-up failed:\n{proc.stderr}")
    return times, inputs


# ---------------------------------------------------------------------------
# closed-loop client

class Pass(NamedTuple):
    wall: float              # summed request latency [s]
    items: int
    latencies: list[float]

class Client:
    """Issues requests one at a time and checks each one's outputs."""

    def __init__(self, cli, checker, reference: dict):
        self.cli = cli
        self.checker = checker
        self.reference = reference
        self.tracer = None
        self.probe = None
        self.by_label: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.max_rel_dev = 0.0
        self.info: dict[str, list] = {}
        self.failures: list[str] = []
        self.digests: dict[str, dict] = {}
        self.passes = 0

    def run_pass(self, requests: list[dict]) -> Pass:
        # every pass starts from the same collector state, so collections
        # fall on the same requests in every pass
        gc.collect()
        latencies, items = [], 0
        for index, request in enumerate(requests):
            latency, done = self._request(index, request)
            latencies.append(latency)
            items += done
        self.passes += 1
        return Pass(sum(latencies), items, latencies)

    def _request(self, index: int, request: dict) -> tuple[float, int]:
        tracer = self.tracer
        stdout, stderr = io.StringIO(), io.StringIO()
        probed = self.probe.spent if self.probe else 0.0
        t0 = time.perf_counter()
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                if tracer is None:
                    code = self.cli.run(request["argv"])
                else:
                    tracer.request = index
                    code = tracer.span(f"cli.{request['kind']}",
                                       self.cli.run, request["argv"])
        except SystemExit as exc:        # argparse rejected the command line
            code = exc.code
        except Exception:                # a crash is a failed request
            code = "exception\n" + traceback.format_exc(limit=-4)
        latency = time.perf_counter() - t0
        if self.probe is not None:
            latency -= self.probe.spent - probed
        self.by_label.setdefault(request["label"], []).append(latency)
        if tracer is not None:
            tracer.active = False
        try:
            outcome = self._check(index, request, code, stdout.getvalue(),
                                  stderr.getvalue())
        finally:
            if tracer is not None:
                tracer.active = True
        return latency, outcome.items

    def _check(self, index, request, code, stdout, stderr):
        outcome = self.checker.check(request, code, stdout)
        self.attempted += 1
        for key, value in outcome.info.items():
            self.info.setdefault(key, []).append(value)
        if outcome.digest:
            self.digests[str(index)] = workloads.rounded(outcome.digest)
        ref = self.reference.get(str(index))
        if ref is not None:
            dev = workloads.max_rel_dev(outcome.digest, ref)
            self.max_rel_dev = max(self.max_rel_dev, dev)
            if dev > workloads.REF_TOL:
                outcome.fail(f"deviates {dev:.2e} from the reference")
        if not outcome.ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"request {index} {request['argv']}: "
                                     f"{outcome.why} {stderr.strip()[-300:]}")
        return outcome


# ---------------------------------------------------------------------------
# one workload

@contextmanager
def work_dir(workload: str):
    """Inputs and outputs of this process, removed when it ends."""
    (STATE / "work").mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=STATE / "work"))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def measure(args, client: Client, requests: list[dict]):
    """Closed-loop passes until ``args.seconds`` have passed.

    Traced runs first time untraced passes over up to a third of the
    seconds, then patch the layers and trace the remaining passes.
    Returns (passes, untraced pass time, tracer, peak RSS in KiB).
    """
    import spans
    tracer = spans.Tracer() if args.trace else None
    deadline = time.perf_counter() + args.seconds
    untraced = None
    if tracer is not None:
        baseline, third = [], time.perf_counter() + args.seconds / 3
        while not baseline or time.perf_counter() < third:
            baseline.append(client.run_pass(requests))
        untraced = sum(request_medians(baseline))
        client.by_label.clear()
        tracer.install()
        tracer.active = True
        client.tracer = tracer
    passes = []
    try:
        while not passes or time.perf_counter() < deadline:
            passes.append(client.run_pass(requests))
            if len(passes) == 1:
                # every pass does the same work; later passes only add
                # allocator growth that a one-command process never sees
                peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        if tracer is not None:
            tracer.active = False
            tracer.uninstall()
    return passes, untraced, tracer, peak_rss


def request_medians(passes: list[Pass]) -> list[float]:
    """Each request's median latency over the passes."""
    return [statistics.median(v) for v in zip(*(p.latencies for p in passes))]


def run_workload(args, workdir: Path) -> int:
    import numpy as np
    cli = import_jetcool()
    reference = {}
    if args.size == "full":
        ref_all = json.loads((BENCH_DIR / "reference.json").read_text())
        reference = ref_all.get(args.workload, {}).get(str(args.seed), {})
    client = Client(cli, workloads.Checker(), reference)
    # untraced runs sample the machine speed from set-up to the last pass
    if not args.trace:
        client.probe = probe.SpeedProbe()
        client.probe.start()
    try:
        setup_times, inputs = timed_setups(args, workdir)
        requests = workloads.load_requests(inputs)
        passes, untraced, tracer, peak_rss = measure(args, client, requests)
    finally:
        if client.probe is not None:
            client.probe.stop()

    per_request = request_medians(passes)
    wall = sum(per_request)
    p50, p99 = np.percentile(per_request, [50, 99])
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "items_per_s": passes[0].items / wall,
        "req_p50_ms": float(p50) * 1e3,
        "req_p99_ms": float(p99) * 1e3,
        "peak_rss_mb": peak_rss / 1024.0,
    }
    specs = metric_specs()
    if tracer is None:
        # times at the reference machine speed; peak RSS is not a time
        factor = client.probe.factor()
        metrics = {k: v if k == "peak_rss_mb" else
                   v / factor if k == "items_per_s" else v * factor
                   for k, v in end_to_end.items()}
        units = specs["end_to_end"]
    else:
        metrics = tracer.layer_metrics(len(passes))
        metrics["trace.wall_s"] = end_to_end["wall_s"]
        metrics["trace.overhead_s"] = end_to_end["wall_s"] - untraced
        units = specs["per_layer"]
    if set(units) != set(metrics):
        _fail("metrics and BENCHMARK.json disagree on "
              f"{sorted(set(units) ^ set(metrics))}", 1)

    extra = {
        "measured": end_to_end,
        "probe_median_s": client.probe.median_s if client.probe else None,
        "probes": len(client.probe.times) if client.probe else 0,
        "fail_frac": client.failed / client.attempted,
        "max_rel_dev": client.max_rel_dev if reference else None,
        "fastest_pass_s": min(p.wall for p in passes),
        "latency_samples": len(per_request),
        "samples_beyond_p99": int(len(per_request) * 0.01),
        "median_ms": {label: round(statistics.median(v) * 1e3, 3)
                      for label, v in client.by_label.items()},
        "items": f"{workloads.ITEMS[args.workload]} per pass: "
                 f"{passes[0].items}",
        **workloads.summarize_info(client.info, client.passes),
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write_spans(RESULTS / f"{stem}.spans.jsonl")
        extra["spans_kept"] = len(tracer.spans)
        extra["spans_dropped"] = tracer.dropped
    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "seconds": args.seconds, "passes": len(passes),
        "pass_wall_s": [p.wall for p in passes],
        "pass_latencies_s": [p.latencies for p in passes],
        "setup_times_s": setup_times,
        "untraced_pass_s": untraced, "metrics": metrics, "extra": extra,
        "end_to_end": end_to_end, "machine": machine_info(),
        "failures": client.failures,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload={args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace} passes={len(passes)} "
          f"requests={client.attempted}")
    for name, value in metrics.items():
        print(f"  {name:<42} {value:.6g} {units[name]}")
    for name, value in extra.items():
        print(f"  {name:<42} {value}")
    print(f"  machine {json.dumps(record['machine'])}")
    for failure in client.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    correct = client.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# all workloads, each in a fresh process

def run_all(args) -> int:
    import_jetcool()
    script = str(Path(__file__).resolve())
    summary, status = {}, 0
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, script, "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--size", args.size]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                status = 1
            if not lines or not lines[-1].startswith("{"):
                status = 1
                continue
            summary.setdefault(workload, {})[f"trace{trace}"] = \
                json.loads(lines[-1])
    print(f"\n{'workload':<10} " + "  ".join(
        f"{m:>14}" for m in metric_specs()["end_to_end"])
        + f"  {'trace.overhead_s':>16}")
    for workload, runs in summary.items():
        if set(runs) != {"trace0", "trace1"}:
            continue
        values = runs["trace0"]["metrics"]
        overhead = runs["trace1"]["metrics"]["trace.overhead_s"]["value"]
        print(f"{workload:<10} " + "  ".join(
            f"{v['value']:>10.4g} {v['unit']:<3}" for v in values.values())
            + f"  {overhead:>14.4g} s")
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"all-seed{args.seed}.json").write_text(
        json.dumps({"machine": machine_info(), "runs": summary}, indent=1))
    correct = status == 0 and all(
        r["correct"] for runs in summary.values() for r in runs.values())
    print(json.dumps({"correct": correct, "workloads": sorted(summary)}))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# reference recording

def record_reference(args, workdir: Path) -> int:
    """Run one pass and store its checked outputs as the seed's reference."""
    cli = import_jetcool()
    requests = workloads.generate(args.workload, args.seed, "full", workdir)
    client = Client(cli, workloads.Checker(), {})
    client.run_pass(requests)
    if client.failed:
        _fail("outputs fail their checks:\n" + "\n".join(client.failures), 1)
    path = BENCH_DIR / "reference.json"
    ref_all = json.loads(path.read_text()) if path.exists() else {}
    ref_all.setdefault(args.workload, {})[str(args.seed)] = client.digests
    path.write_text(json.dumps(ref_all, sort_keys=True) + "\n")
    print(f"recorded {len(client.digests)} request digests for "
          f"{args.workload} seed {args.seed}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES),
                        default="full",
                        help="input size; 'tiny' is for the smoke test")
    parser.add_argument("--setup-only", metavar="DIR",
                        help="(internal) import jetcool and write inputs")
    parser.add_argument("--record-reference", action="store_true",
                        help="store this seed's outputs in reference.json")
    args = parser.parse_args(argv)
    # generated configs name their input files relative to the root
    os.chdir(ROOT)
    if args.setup_only:
        import_jetcool()
        workloads.generate(args.workload, args.seed, args.size,
                           Path(args.setup_only))
        return 0
    if args.workload == "all":
        return run_all(args)
    with work_dir(args.workload) as workdir:
        if args.record_reference:
            return record_reference(args, workdir)
        return run_workload(args, workdir)


if __name__ == "__main__":
    sys.exit(main())
