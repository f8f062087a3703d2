"""spinscape benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload landscape-sweep --seed 1 --seconds 10 --trace 0

Workloads: landscape-sweep, potential-solve, sampler, cli-readme (see the
module docstrings of wl_*.py for what each runs and why).  The job list of a
workload is repeated as many times as brings the run's job time nearest to
``--seconds`` (at least once); every figure is a median over the repeats.
With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` it holds the per-layer metrics,
taken from one traced repeat after one untraced repeat, whose difference is
the tracing overhead.
The full record (machine, inputs, jobs, checks, spans) is written to
perfbench/out/.  Run from the root of a checkout; the package is imported
from its src/ directory.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
# BLAS threads fixed before numpy loads, for this process and the ones it
# starts: at most the CPUs this process may use
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

WORKLOADS = {
    "landscape-sweep": "wl_landscape",
    "potential-solve": "wl_potential",
    "sampler": "wl_sampler",
    "cli-readme": "wl_cli",
}
# per-layer metrics that every in-process workload measures in set-up
SETUP_LAYER = {
    "landscape.enumerate_space_s": "landscape.enumerate_space",
    "landscape.move_table_s": "landscape.move_table",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit (used to repeat set-up)")
    return p.parse_args(argv)


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def child_setup(args) -> float:
    """Set-up time of a fresh process, imports included."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=170, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def run_passes(wl, ctx, tracer, seconds: float, first_pass: int = 0):
    """Repeat the workload's job list while one more repeat, as long as the
    mean so far, brings the total nearer to ``seconds`` (at least once, so
    once when ``seconds`` is 0); return the jobs and each repeat's wall time.
    A run thus overshoots ``seconds`` by about half a repeat at most, unless a
    single repeat is longer."""
    from harness import Harness

    h = Harness(tracer)
    walls = []
    while not walls or sum(walls) + statistics.mean(walls) / 2 < seconds:
        h.pass_no = first_pass + len(walls)
        first = len(h.jobs)
        wl.run_pass(h, ctx)
        walls.append(sum(j.seconds for j in h.jobs[first:]))
    return h, walls


def summarize(h, walls) -> dict:
    maxes = [max(j.seconds for j in h.jobs if j.pass_no == p) for p in range(len(walls))]
    return {
        "wall_s": (statistics.median(walls), len(walls)),
        "job_max_s": (statistics.median(maxes), len(maxes)),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spinscape" / "__init__.py").is_file():
        print(f"error: no spinscape package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import importlib

    from harness import machine_record
    from spans import Tracer

    wl = importlib.import_module(WORKLOADS[args.workload])
    setup_tr = Tracer(enabled=bool(args.trace))
    ctx = wl.setup(setup_tr, args.seed)
    setup_main = time.perf_counter() - T_START
    if args.setup_only:
        print(setup_main)
        return 0

    spec = load_spec()
    in_process = "setup_samples" not in ctx
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **machine_record(BLAS_THREADS),
        "working_sets": ctx["record"], "inputs": ctx["inputs"],
    }
    if args.trace:
        # one untraced repeat, then one traced repeat; the difference is the overhead
        plain_tr = Tracer(enabled=False)
        plain_h, plain_walls = run_passes(wl, ctx, plain_tr, 0.0)
        pass_tr = Tracer(enabled=True)
        h, walls = run_passes(wl, ctx, pass_tr, 0.0, first_pass=1)
        jobs = plain_h.jobs + h.jobs
        values = {name: 0.0 for name in spec["per_layer"]}
        values.update({k: setup_tr.totals.get(t, 0.0) for k, t in SETUP_LAYER.items()})
        values["landscape.alloc_peak_bytes_per_state"] = max(
            setup_tr.max_alloc_per("landscape.", "space_states"),
            pass_tr.max_alloc_per("landscape.", "space_states"))
        values.update(wl.layer_metrics(ctx, setup_tr, pass_tr))
        self_times = pass_tr.self_times()
        for layer in ("landscape", "potential", "dynamics", "cli", "job"):
            values[f"{layer}.self_s"] = sum(v for k, v in self_times.items() if k.startswith(layer + "."))
        values["trace.overhead_s"] = walls[0] - plain_walls[0]
        metrics = {k: (values[k], 1) for k in spec["per_layer"]}
        record["spans"] = setup_tr.dump() + pass_tr.dump()
    else:
        samples = ctx.get("setup_samples") or [setup_main] + [
            child_setup(args) for _ in range(SETUP_REPEATS - 1)]
        tr = Tracer(enabled=False)
        h, walls = run_passes(wl, ctx, tr, args.seconds)
        jobs = h.jobs
        summary = summarize(h, walls)
        metrics = {
            "setup_s": (statistics.median(samples), len(samples)),
            **summary,
            "peak_rss_mb": (peak_rss_mb(with_children=not in_process), 1),
            "work_per_s": (wl.work_rate(tr), len(walls)),
        }
        record["setup_samples_s"] = samples
        record["pass_walls_s"] = walls
        record["failed_ratio"] = sum(j.failed for j in jobs) / len(jobs)

    attempted = len(jobs)
    failed = sum(j.failed for j in jobs)
    # a known failure may raise; if it returns a value, its checks must pass
    known = getattr(wl, "KNOWN_FAILURES", frozenset())
    correct = all(not j.failed or (j.name in known and j.error is not None) for j in jobs)
    units = spec["per_layer"] if args.trace else spec["end_to_end"]
    report_lines(args, wl, record, jobs, metrics, units, failed, attempted)
    record["jobs"] = [
        {"name": j.name, "pass": j.pass_no, "seconds": j.seconds, "error": j.error,
         "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in j.checks]}
        for j in jobs]
    record["metrics"] = {k: {"value": v, "unit": units[k], "samples": n} for k, (v, n) in metrics.items()}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, default=str))
    print(f"record: {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()},
    }))
    return 0


def report_lines(args, wl, record, jobs, metrics, units, failed, attempted) -> None:
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"python={record['python']} numpy={record['numpy']} scipy={record['scipy']} "
          f"nproc={record['nproc']} blas_threads={record['blas_threads']} caches={record['caches']}")
    print(f"# cpu: {record['cpu']}")
    for name, ws in record["working_sets"].items():
        print(f"# working set {name}: {ws}")
    print(f"# inputs: {json.dumps(record['inputs'])}")
    for j in jobs:
        status = "FAIL" if j.failed else "ok"
        print(f"job {j.pass_no}:{j.name:<32} {j.seconds:9.4f} s  {status}"
              + (f"  error: {j.error}" if j.error else ""))
        for c in j.checks:
            print(f"    check {c.name:<30} {'pass' if c.ok else 'FAIL'}"
                  + ("" if c.ok else f"  {c.detail}"))
    print(f"failed_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    for k, (v, n) in metrics.items():
        extra = f" ({wl.WORK_UNIT})" if k == "work_per_s" else ""
        print(f"metric {k:<44} {v:.6g} {units[k]}{extra}  n={n}  seed={args.seed}")


if __name__ == "__main__":
    sys.exit(main())
