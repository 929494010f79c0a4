"""Smoke test of the benchmark itself (about half a minute):

    python3 perfbench/selftest.py

Asserts that every named metric is emitted with its unit for every
workload, that a deliberately failing step is counted in ops_failed_ratio
rather than dropped, that the reference check rejects a perturbed value, and
that run.py refuses to run without the package sources.
"""

import json
import shutil
import subprocess
import sys

import run
import workloads


def _plan(workload, steps):
    return {"workload": workload, "seed": workloads.DEFAULT_SEED, "src": str(run.SRC),
            "steps": [{"cli": argv} for argv in steps]}


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    work = run.OUT / "selftest"
    assert run.build()
    env = run.child_env(1)

    produced = set()
    for w in workloads.WORKLOADS:
        plan = workloads.plan(w, workloads.DEFAULT_SEED)
        plan["src"] = str(run.SRC)
        plan["reference"] = run.reference_for(w, workloads.DEFAULT_SEED)
        runs = {"plain": [run.run_child(plan, False, work, env)],
                "traced": [run.run_child(plan, True, work, env)]}
        summary = run.summarize(plan, runs)
        assert summary["correct"], (w, summary["failures"], summary["problems"])
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            got = run.result_line(summary, spec, trace)["metrics"]
            want = {m["name"]: m["unit"] for m in spec[kind]}
            assert {k: v["unit"] for k, v in got.items()} == want, (w, kind)
        produced |= set(summary["layers"])
        print(f"ok: {w} emits every metric with its unit")
    missing = {m["name"] for m in spec["per_layer"]} - produced
    assert not missing, f"no workload measures {missing}"

    # modularity at n = 6, z = 0.5i is refused by design (|F(z)| too small)
    plan = _plan("exact", [["modularity", "--n-range", "4:4:2"],
                           ["modularity", "--n-range", "6:6:2", "--im", "0.5"]])
    summary = run.summarize(plan, {"plain": [run.run_child(plan, False, work, env)],
                                   "traced": []})
    assert (summary["attempted"], summary["failed"]) == (2, 1), summary
    assert summary["ops_failed_ratio"] == 0.5 and not summary["correct"]
    print("ok: a failing step is counted, not dropped")

    plan = _plan("arith", [["modularity", "--n-range", "4:8:4"]])
    ref = run.reference_for("arith", workloads.DEFAULT_SEED)["modularity"]
    plan["reference"] = {"modularity": ref}
    assert run.run_child(plan, False, work, env)["steps"][0]["ok"]
    key = next(iter(ref["seed_free"]))
    plan["reference"] = {"modularity": {"seed_free": {key: ref["seed_free"][key] + 1}}}
    assert not run.run_child(plan, False, work, env)["steps"][0]["ok"]
    rho = {"rho": 1.2345}
    assert not workloads.compare(rho, {"rho": rho["rho"] * (1 + 1e-6)})
    assert workloads.compare(rho, {"rho": rho["rho"] * (1 + 1e-5)})
    print("ok: the reference check rejects a perturbed value")

    bare = work / "bare"
    shutil.copytree(run.BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "arith",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print("ok: without the sources run.py exits nonzero and prints no result")
    shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
