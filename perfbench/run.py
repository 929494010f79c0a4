"""hecke-sphere benchmark: fresh-process runs of one workload, checked and timed.

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --write-reference

A closed loop with a single client: each sample is a fresh interpreter
(perfbench/child.py) running every step of the workload in order; the next
starts when it has exited.  Samples repeat until ``--seconds`` have passed.
With ``--trace 1`` untraced and traced samples alternate, and the per-layer
metrics come from the traced ones.  The last line of standard output is the
JSON result; the lines before it print every metric by name and unit, and
the full result (environment, samples, failures) is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
MIN_SAMPLES = 3
#: a sample takes a few seconds; three timed-out samples still end a run in time
CHILD_TIMEOUT_S = 40
#: BLAS threads for the children: nproc, capped at the 2 cores measured on
MAX_THREADS = 2


def _git_revision():
    """HEAD of the checkout, read from .git without running git (None if absent)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "git_revision": _git_revision(),
    }


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def run_child(plan: dict, trace: bool, work: Path, env: dict) -> dict:
    """One fresh-interpreter sample; a crashed child counts every step failed."""
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    (work / "plan.json").write_text(json.dumps(plan))
    result = work / "result.json"
    spawn = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(work / "plan.json"),
             str(work / "out"), "1" if trace else "0", str(result)],
            env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        error = f"exit status {proc.returncode}: {proc.stderr[-2000:]}"
        ok = proc.returncode == 0 and result.exists()
    except subprocess.TimeoutExpired:
        ok, error = False, f"timed out after {CHILD_TIMEOUT_S} s"
    if not ok:
        return {"crashed": error, "steps": [
            {"name": workloads.step_name(s), "ok": False, "error": error}
            for s in plan["steps"]]}
    doc = json.loads(result.read_text())
    doc["setup_s"] = doc.pop("ready") - spawn
    return doc


def tail(values):
    """(percentile, value): the highest percentile with >= 10 samples beyond it."""
    if len(values) < 11:
        return None
    v = sorted(values)
    return round(100 * (len(v) - 10) / len(v), 1), v[len(v) - 11]


def measure(plan: dict, seconds: float, trace: bool, env: dict) -> dict:
    """Samples until the next one would end after ``seconds`` (minimum counts aside)."""
    plain, traced, took = [], [], []
    start = time.perf_counter()
    work = OUT / f"work-{os.getpid()}"
    while True:
        enough = len(plain) >= MIN_SAMPLES and (traced or not trace)
        now = time.perf_counter()
        if enough and now - start + statistics.median(took) > seconds:
            break
        use_trace = trace and len(traced) < len(plain)
        (traced if use_trace else plain).append(run_child(plan, use_trace, work, env))
        took.append(time.perf_counter() - now)
    shutil.rmtree(work, ignore_errors=True)
    return {"plain": plain, "traced": traced}


def summarize(plan: dict, runs: dict) -> dict:
    """Metrics, failure counts and the correctness verdict of one workload."""
    plain = [s for s in runs["plain"] if "crashed" not in s]
    traced = [s for s in runs["traced"] if "crashed" not in s]
    every = runs["plain"] + runs["traced"]
    attempted = sum(len(s["steps"]) for s in every)
    failures = [f"{st['name']}: {st['error']}" for s in every for st in s["steps"]
                if not st["ok"]]
    problems, e2e, step_s = [], {}, []
    if plain:
        for s in plain:
            s["peak_rss_mb"] = s["maxrss_kb"] / 1024
        for key in ("wall_s", "setup_s", "peak_rss_mb"):
            vals = [s[key] for s in plain]
            e2e[key] = {"value": statistics.median(vals), "tail": tail(vals),
                        "samples": len(vals), "all": vals}
        step_s = [statistics.median(s["steps"][i]["seconds"] for s in plain)
                  for i in range(len(plan["steps"]))]
    layers = {}
    if traced:
        for s in traced:
            s["layers"]["cli.artifact_bytes"] = s["artifact_bytes"]
            s["layers"]["trace.wall_s"] = s["wall_s"]
            s["layers"]["trace.unaccounted_s"] = s["wall_s"] - sum(
                v for k, v in s["layers"].items()
                if k.endswith(".self_s"))
            # self times plus cli.other must account for the traced wall time
            if abs(s["layers"]["trace.unaccounted_s"]) > 0.01 * s["wall_s"] + 1e-3:
                problems.append(f"self times miss {s['layers']['trace.unaccounted_s']:.4f} s "
                                f"of traced wall {s['wall_s']:.4f} s")
        names = {k for s in traced for k in s["layers"]}
        for name in names:
            layers[name] = statistics.median(s["layers"].get(name, 0) for s in traced)
        if plain:
            layers["trace.overhead_s"] = layers["trace.wall_s"] - e2e["wall_s"]["value"]
    ratio = len(failures) / attempted if attempted else 1.0
    return {
        "workload": plan["workload"], "seed": plan["seed"],
        "attempted": attempted, "failed": len(failures),
        "ops_failed_ratio": ratio, "failures": failures[:20],
        "problems": problems, "e2e": e2e, "layers": layers,
        "step_s": {f"{i}.{workloads.step_name(st)}": t
                   for i, (st, t) in enumerate(zip(plan["steps"], step_s))},
        "samples": {"plain": len(runs["plain"]), "traced": len(runs["traced"])},
        "correct": not failures and not problems and bool(plain),
    }


def result_line(summary: dict, spec: dict, trace: bool) -> dict:
    if trace:
        metrics = {m["name"]: {"value": summary["layers"].get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": summary["e2e"][m["name"]]["value"], "unit": m["unit"]}
                   for m in spec["end_to_end"] if m["name"] in summary["e2e"]}
    return {"correct": summary["correct"], "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": metrics}


def print_summary(summary: dict, spec: dict, trace: bool):
    w = summary["workload"]
    print(f"# {w} seed={summary['seed']} samples={summary['samples']}")
    for m in spec["end_to_end"]:
        got = summary["e2e"].get(m["name"])
        if got:
            t = got["tail"]
            extra = f"  p{t[0]}={t[1]:.6g}" if t else ""
            print(f"{w} {m['name']} {got['value']:.6g} {m['unit']} (median of "
                  f"{got['samples']}{extra})")
    print(f"{w} ops_failed_ratio {summary['ops_failed_ratio']:.6g} ratio "
          f"({summary['failed']}/{summary['attempted']} steps)")
    if trace:
        for m in spec["per_layer"]:
            print(f"{w} {m['name']} {summary['layers'].get(m['name'], 0):.6g} {m['unit']}")
    for line in summary["failures"] + summary["problems"]:
        print(f"{w} FAILED {line}")


def build() -> bool:
    """Byte-compile the package, so no sample pays for compilation."""
    return compileall.compile_dir(str(SRC), quiet=2) and compileall.compile_dir(
        str(BENCH), quiet=2, maxlevels=0)


def reference_for(workload: str, seed: int) -> dict:
    ref = json.loads(REFERENCE.read_text()).get(workload, {})
    return {step: {k: v for k, v in kinds.items()
                   if k == "seed_free" or seed == workloads.DEFAULT_SEED}
            for step, kinds in ref.items()}


def write_reference(env: dict):
    """Record the default-seed values of every workload as the reference."""
    ref = {}
    for w in workloads.WORKLOADS:
        plan = workloads.plan(w, workloads.DEFAULT_SEED)
        plan["src"] = str(SRC)
        doc = run_child(plan, False, OUT / "reference", env)
        bad = [st for st in doc["steps"] if not st["ok"]]
        if bad:
            raise SystemExit(f"{w}: not recording a reference from failing steps {bad}")
        ref[w] = doc["values"]
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(OUT / "reference", ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "hecke_sphere" / "__init__.py").is_file():
        print(f"no hecke_sphere sources under {SRC}", file=sys.stderr)
        return 2
    if not build():
        print("byte-compiling the sources failed", file=sys.stderr)
        return 2
    threads = min(len(os.sched_getaffinity(0)), MAX_THREADS)
    env = child_env(threads)
    if args.write_reference:
        write_reference(env)
        return 0
    if not args.workload:
        ap.error("--workload is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    envinfo = environment(threads)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    for name in names:
        plan = workloads.plan(name, args.seed)
        plan["src"] = str(SRC)
        plan["reference"] = reference_for(name, args.seed)
        runs = measure(plan, args.seconds, bool(args.trace), env)
        summary = summarize(plan, runs)
        summary["environment"] = envinfo
        summary["run_seconds"] = args.seconds
        OUT.mkdir(exist_ok=True)
        stem = f"{name}-seed{args.seed}-trace{args.trace}"
        (OUT / f"{stem}.json").write_text(json.dumps(summary, indent=1) + "\n")
        if runs["traced"] and "spans" in runs["traced"][-1]:
            (OUT / f"{stem}.spans.json").write_text(
                json.dumps(runs["traced"][-1]["spans"]))
        print_summary(summary, spec, bool(args.trace))
        if not summary["e2e"]:
            print(f"{name}: every sample crashed; nothing was measured", file=sys.stderr)
            return 1
        lines[name] = result_line(summary, spec, bool(args.trace))
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
