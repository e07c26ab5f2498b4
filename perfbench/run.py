"""Seeded benchmark of the lorentzflow package.

    python3 perfbench/run.py --workload certify|flow|ballmap|cli|all
                             --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout; the package is imported from its
``src/`` directory. With ``--trace 0`` the last line of standard output
is a JSON object with the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it carries the per-layer metrics, measured by wrapping the
package's public functions (``spans.py``). The line before it holds the
machine and provenance record and a per-workload report. Both, and the
spans of a traced run, are also written under ``.perfbench_out/``.
``--smoke`` runs every workload at toy sizes for the benchmark's test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = "1"  # a single closed-loop client; below nproc on any machine
NAMES = ("certify", "flow", "ballmap", "cli")


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        die(f"{path.name} not found at the checkout root")
    return json.loads(path.read_text())


def import_package():
    src = ROOT / "src"
    if not (src / "lorentzflow" / "__init__.py").is_file():
        die("package source src/lorentzflow not found; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import lorentzflow

    if Path(lorentzflow.__file__).resolve().parent != src / "lorentzflow":
        die(f"imported lorentzflow from {lorentzflow.__file__}, not from this checkout")
    return lorentzflow


# ------------------------------------------------------------ provenance


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, if there is one."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit():
    """HEAD of the checkout when it is a git work tree, read from .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        vendor = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "smoke": args.smoke,
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


# ------------------------------------------------------------ metrics


def per_layer_values(names, agg: dict, counters: dict, extra: dict) -> dict:
    """Per-layer metric values from the span summary ``agg`` (name ->
    calls, s, self_s), the wrappers' counters and computed ``extra``
    values. A metric of a layer the workload does not touch is 0."""
    out = {}
    for name in names:
        if name in extra:
            out[name] = extra[name]
        elif name in counters:
            out[name] = counters[name]
        elif name.endswith(".self_s"):
            module = name[: -len(".self_s")]
            out[name] = sum(v["self_s"] for k, v in agg.items() if k.startswith(module + "."))
        elif name.startswith("cli.") and name.endswith(".s"):
            out[name] = agg.get("cli.cmd_" + name[4:-2], {}).get("s", 0.0)
        else:
            span, _, field = name.rpartition(".")
            if field not in ("calls", "s"):
                out[name] = 0
            else:
                out[name] = agg.get(span, {}).get(field, 0)
    return out


def merge(summaries) -> tuple:
    agg: dict = {}
    counters: dict = {}
    for spans_, ctr in summaries:
        for k, v in spans_.items():
            row = agg.setdefault(k, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for f in row:
                row[f] += v[f]
        for k, v in ctr.items():
            counters[k] = counters.get(k, 0) + v
    return agg, counters


def latency_report(ledger) -> dict:
    out = {}
    for kind in sorted({k for k, _ in ledger.passes.values()}):
        times = ledger.times(kind)
        ms = sorted(t * 1e3 for t in times)
        out[kind] = {
            "count": len(ms),
            "median_ms": statistics.median(ms),
            "max_ms": ms[-1],
            "total_s": sum(times),
        }
    return out


# ------------------------------------------------------------ run


def run_workload(args, spec) -> tuple:
    import spans
    import workloads as W

    tracer = spans.Tracer()
    if args.trace:
        spans.install(tracer)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = W.WORKLOADS[args.workload](
            ROOT, args.seed, W.SMOKE if args.smoke else W.FULL, tracer, workdir
        )
        rounds = wl.rounds(args.seconds)
        if not args.trace:
            probe = W.SpeedProbe()
            setup = wl.setup_seconds(probe)
            wl.prepare()
            ledger = W.Ledger(tracer, probe)
            works = [wl.make_round(r) for r in range(rounds)]
            for p in range(wl.passes):
                for r, work in enumerate(works):
                    ledger.start_pass(r, p)
                    wl.run_round(work, ledger)
            values = wl.end_to_end(ledger)
            values["setup_s"] = statistics.median(setup)
            values["ops_per_s"] = ledger.rate()
            values["success_rate"] = 1.0 - ledger.failed / ledger.attempted
            wl.report["setup_runs_s"] = setup
            wl.report["speed_scales"] = {
                "count": len(probe.scales),
                "median": statistics.median(probe.scales),
                "min": min(probe.scales),
                "max": max(probe.scales),
            }
            metrics = spec["end_to_end"]
        else:
            tracer.enabled = True
            wl.setup()
            tracer.enabled = False
            wl.prepare()
            works = [wl.make_round(r) for r in range(rounds)]
            # one untraced pass, then one traced pass over the same rounds:
            # the per-layer figures come from the set-up and the traced
            # pass, and the two passes give the tracing overhead
            base, ledger = W.Ledger(tracer), W.Ledger(tracer)
            for traced, led in ((False, base), (True, ledger)):
                tracer.enabled = traced
                for r, work in enumerate(works):
                    led.start_pass(r, 0)
                    wl.run_round(work, led)
                tracer.enabled = False
            wl.end_to_end(ledger)
            probe = wl.boundary_equivariance() if hasattr(wl, "boundary_equivariance") else 0.0
            summaries = [(tracer.summary(), dict(tracer.counters))]
            summaries += [(s["spans"], s["counters"]) for s in getattr(wl, "child_summaries", [])]
            agg, counters = merge(summaries)
            escapes = agg.get("ballmap.escape_time", {}).get("calls", 0)
            lifted = counters.get("polarization.lifted_coefficients", 0)
            extra = {
                "trace.overhead": sum(ledger.times()) / sum(base.times()) - 1.0,
                "ballmap.oracle_calls": agg.get("ballmap.oracle", {}).get("calls", 0) / escapes if escapes else 0,
                "polarization.lift_ratio": lifted / counters["polarization.capped_coefficients"] if lifted else 0,
                "samples.random_interior_member.failures": counters.get("samples.random_interior_member.raised", 0),
                "ballmap.boundary_equivariance_error": probe,
                "certify.lorentzian_strict_recall": wl.report.get("lorentzian_strict_recall", 0.0),
                "certify.stable_strict_recall": wl.report.get("stable_strict_recall", 0.0),
            }
            values = per_layer_values([m["name"] for m in spec["per_layer"]], agg, counters, extra)
            wl.report["spans_by_name"] = agg
            metrics = spec["per_layer"]
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        wl.report["rounds"] = rounds
        wl.report["latency"] = latency_report(ledger)
        wl.report["op_seconds"] = {f"{r}:{key}": ts for (r, key), (_, ts) in ledger.passes.items()}
        ledgers = (ledger, base) if args.trace else (ledger,)
        attempted = sum(led.attempted for led in ledgers)
        failed = sum(led.failed for led in ledgers)
        wl.report["failures"] = [f for led in ledgers for f in led.failures]
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
        }
        return result, wl.report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> dict:
    """Every workload in its own process; metrics prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            die(f"workload {name} failed:\n{proc.stderr[-2000:]}")
        lines = proc.stdout.strip().splitlines()
        print(lines[-2])
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, for the benchmark's test")
    args = parser.parse_args(argv)
    # on SIGTERM unwind normally: children are killed and scratch removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    spec = load_spec()
    import_package()
    if args.workload == "all":
        result = run_all(args)
    else:
        t0 = time.perf_counter()
        result, report = run_workload(args, spec)
        record = {"provenance": provenance(args), "wall_s": time.perf_counter() - t0, "report": report}
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        (out_dir / name).write_text(json.dumps({"record": record, "result": result}, indent=1, default=str))
        print(json.dumps({"perfbench": record}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
