"""One run of one workload, in a fresh interpreter started by run.py.

    python3 perfbench/child.py PLAN.json OUT_DIR TRACE(0|1) RESULT.json

The import of numpy and hecke_sphere comes first, so the moment it is ready
(``ready``, on the same monotonic clock as the parent's spawn time) marks
the end of set-up.  The steps then run in order; ``wall_s`` spans the first
step's start to the last step's return.  Outputs are checked after that
window and the outcome is written to RESULT.json.
"""

import time

import numpy  # noqa: F401  (part of set-up)
import hecke_sphere
import hecke_sphere.cli

READY = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


def _run_step(step, out, tracer):
    """Returns (ok, error, library result)."""
    try:
        if "cli" in step:
            # the module attribute, so a traced run reaches the wrapper
            rc = hecke_sphere.cli.main(step["cli"] + ["--out", str(out)])
            return rc == 0, None if rc == 0 else f"exit status {rc}", None
        fn = workloads.LIBRARY[step["library"]]
        if tracer:
            return True, None, tracer.span(f"bench.{step['library']}", fn, step)
        return True, None, fn(step)
    except SystemExit as exc:  # argparse rejects the argv
        return False, f"SystemExit({exc.code})", None
    except Exception:
        return False, traceback.format_exc(limit=-3), None


def main(plan_path, out, trace, result_path):
    plan = json.loads(Path(plan_path).read_text())
    src = Path(plan["src"]).resolve()
    if src not in Path(hecke_sphere.__file__).resolve().parents:
        raise SystemExit(f"hecke_sphere imported from {hecke_sphere.__file__}, not {src}")
    out = Path(out)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    outcomes, ends = [], []
    start = time.perf_counter()
    for step in plan["steps"]:
        outcomes.append(_run_step(step, out, tracer))
        ends.append(time.perf_counter())
    wall = ends[-1] - start

    steps, values = [], {}
    reference = plan.get("reference", {})
    for step, (ok, error, result), t0, t1 in zip(plan["steps"], outcomes, [start] + ends, ends):
        name = workloads.step_name(step)
        if ok:
            try:
                vals, problems = workloads.CHECKS[name](step, out, result)
            except Exception:
                vals, problems = {}, [traceback.format_exc(limit=-3)]
            ref = reference.get(name, {})
            for kind in ("seed_free", "seeded"):
                problems += workloads.compare(vals.get(kind, {}), ref.get(kind, {}))
            values[name] = vals
            ok, error = not problems, "; ".join(problems) or None
        steps.append({"name": name, "ok": ok, "error": error, "seconds": t1 - t0})

    doc = {
        "ready": READY, "wall_s": wall, "steps": steps, "values": values,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "artifact_bytes": sum(p.stat().st_size for p in out.rglob("*") if p.is_file()),
    }
    if tracer:
        doc["layers"] = tracer.layer_stats()
        doc["spans"] = tracer.spans
    Path(result_path).write_text(json.dumps(doc))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3] == "1", sys.argv[4])
