"""Workload definitions, input generation and output checks.

Every workload is a list of steps run in order in one fresh interpreter, so
a step reuses what earlier steps of the same run cached (as a library user
or the test suite would) while every run starts with cold caches (as every
CLI invocation does).  A step is either a CLI argv for
``hecke_sphere.cli.main`` or a library call where no subcommand exists.
The seed only shapes the generated inputs; the program sees argv.

Why each workload exists, and which layer metric should move which
end-to-end metric on it (layer names are ``<module>.<function>.<stat>``):

``spectral`` -- the float degree sweep (moments, spectral, pretrace-check
    over n = 4, 8, 12).  Shell substitution dominates it:
    ``hecke.shell_monomial_matrix.self_s`` / ``.shell_elements`` move
    ``wall_s`` and ``peak_rss_mb``; ``hecke.hecke_matrix_float.self_s``,
    ``hecke.decompose.self_s`` (eigensolve, expected small) and
    ``hecke.decompose.retries``; ``poly.harmonic_basis.self_s``,
    ``poly.basis_values.self_s`` / ``.bytes_computed`` (also
    ``peak_rss_mb``), ``moments.moment_sweep.self_s`` and
    ``moments.pretrace_residual.self_s`` take over once the Hecke core gets
    cheaper.  The later steps reuse every cached float matrix, so
    ``hecke.shell_monomial_matrix.hit_ratio`` shows cache sharing.
``exact`` -- the same ``hecke`` layer used the other way: exact
    integer/Fraction matrices at low degree over many large shells (N up to
    49), then the theta identity on seed-drawn integral x, y whose norm
    product is a square, so the exact-rational path runs.
    ``hecke.shell_monomial_matrix.*``, ``hecke.hecke_matrix.self_s``,
    ``hecke.hecke_relations_check.self_s``, ``theta.theta_coefficient.*``
    and ``theta.spectral_coefficient.self_s`` move ``wall_s``.  A change that
    speeds the float path but slows exact extraction shows here.
``arith`` -- quat, zonal, theta and gon without poly/hecke: the control on
    which a Hecke-core change must show no change
    (``hecke.shell_monomial_matrix.self_s`` is 0 here).
    ``quat.r3_tables.builds``, ``gon.shell_class_count.self_s``,
    ``gon.dyadic_class_count.self_s``, ``gon.a_of_x.self_s``,
    ``theta.petersson_estimate.self_s``, ``theta.modularity_check.self_s`` /
    ``.K``, ``zonal.chebyshev_U_vec.self_s`` / ``.args``,
    ``quat.enumerate_shell.*`` and the library batch through
    ``gon.successive_minima`` / ``gon.lattice_point_count`` move ``wall_s``;
    the shell tables also move ``peak_rss_mb``.
All workloads: ``cli.other.self_s`` (time in steps outside every traced
layer) and ``cli.artifact_bytes`` move ``wall_s``.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

#: the seed whose seed-dependent outputs are pinned in reference.json
DEFAULT_SEED = 0
#: artifact values must match the reference to roundoff: |a-b| <= RTOL*|b| + ATOL
RTOL = 1e-6
ATOL = 1e-9

SPECTRAL_NS = "4:12:4"
EXACT_NS = "2:4:2"
ARITH_NS = "8:32:2"


def _rng(workload: str, seed: int):
    return np.random.default_rng([seed, sum(map(ord, workload))])


def _square_norm_pair(rng):
    """Integral x, y with small coordinates and nr(x) nr(y) a perfect square."""
    while True:
        x, y = (rng.integers(-3, 4, size=4).tolist() for _ in range(2))
        p = sum(c * c for c in x) * sum(c * c for c in y)
        if p and math.isqrt(p) ** 2 == p:
            return x, y


def _lattice(rng):
    """A well-conditioned integral basis and a small body (no CapacityError)."""
    while True:
        B = rng.integers(-2, 3, size=(4, 4))
        if 1 <= round(abs(np.linalg.det(B))) <= 40 and np.linalg.cond(B) < 8:
            break
    if rng.random() < 0.5:
        body = ["box", rng.integers(1, 4, size=4).tolist()]
    else:
        body = ["cylinder", int(rng.integers(1, 9)), int(2 ** rng.integers(0, 2))]
    return B, body


# Random lattices differ a lot in enumeration cost, which would make the
# batch's time depend on the seed.  So the batch is one fixed family of 50
# lattices, and each seed presents every lattice in another basis B @ U
# (U a signed permutation times one shear): the inputs change with the
# seed, the cost barely does, and the minima must not change at all.
LATTICES = [_lattice(np.random.default_rng([7, i])) for i in range(50)]


def _unimodular(rng):
    U = np.eye(4, dtype=np.int64)[rng.permutation(4)] * rng.choice([-1, 1], size=4)
    i, j = rng.choice(4, size=2, replace=False)
    U[:, j] += int(rng.choice([-1, 1])) * U[:, i]
    return U


def plan(workload: str, seed: int) -> dict:
    """The steps of one run of ``workload``, generated from ``seed``."""
    rng = _rng(workload, seed)
    if workload == "spectral":
        s = str(int(rng.integers(0, 2 ** 31)))
        steps = [
            ["moments", "--n-range", SPECTRAL_NS, "--grid", "5000", "--seed", s],
            ["spectral", "--n-range", SPECTRAL_NS, "--seed", s],
            ["pretrace-check", "--n-range", SPECTRAL_NS, "--pairs", "200",
             "--seed", s],
        ]
    elif workload == "exact":
        x, y = _square_norm_pair(rng)
        steps = [
            ["hecke-check", "--n-range", EXACT_NS, "--primes", "3,5,7"],
            ["theta-identity", "--n", "4", "--cutoff", "24",
             # "--x=" keeps argparse from reading "-1,..." as an option
             "--x=" + ",".join(map(str, x)), "--y=" + ",".join(map(str, y))],
        ]
    elif workload == "arith":
        k = 1023 - 2 * int(rng.integers(0, 16))
        steps = [
            ["counting", "--cutoff", "2048"],
            ["petersson", "--n-range", ARITH_NS],
            ["report", "--n-range", ARITH_NS],
            # not n = 6: at z = 0.5i its conditioning guard refuses the point
            ["modularity", "--n-range", "4:8:4"],
            ["shells", "--k", str(k), "--parity", "coset"],
            {"library": "gon-batch", "lattices": [
                {"basis": (B @ _unimodular(rng)).tolist(), "body": body}
                for B, body in LATTICES]},
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": seed,
            "steps": [s if isinstance(s, dict) else {"cli": s} for s in steps]}


WORKLOADS = ("spectral", "exact", "arith")


def step_name(step: dict) -> str:
    return step["library"] if "library" in step else step["cli"][0]


# ---------------------------------------------------------------------------
# library steps (no subcommand reaches these)


def _body(gon, spec):
    if spec[0] == "box":
        return gon.Box(tuple(spec[1]))
    return gon.CylinderSpec(spec[1], spec[2])


def gon_batch(step: dict):
    from hecke_sphere import gon

    out = []
    for lat in step["lattices"]:
        body = _body(gon, lat["body"])
        out.append((list(gon.successive_minima(lat["basis"], body)),
                    [float(v) for v in gon.minkowski_sandwich(lat["basis"], body)],
                    bool(gon.product_bound_check(lat["basis"], body))))
    return out


LIBRARY = {"gon-batch": gon_batch}


# ---------------------------------------------------------------------------
# checks: each returns (values, problems).  ``values`` are basis-invariant
# artifact values keyed for the reference; keys under "seed_free" do not
# depend on the seed and are compared on every seed.


def _json(out: Path, name: str):
    return json.loads((out / f"{name}.json").read_text())


def _csv(out: Path, name: str):
    with (out / f"{name}.csv").open() as fh:
        next(fh)  # schema/config comment line
        return list(csv.DictReader(fh))


def _ns(spec: str):
    a, b, step = map(int, spec.split(":"))
    return range(a, b + 1, step)


def _arg(argv, flag):
    """Value of ``flag`` in argv, given as ``flag value`` or ``flag=value``."""
    for i, a in enumerate(argv):
        if a == flag:
            return argv[i + 1]
        if a.startswith(flag + "="):
            return a[len(flag) + 1:]
    raise KeyError(flag)


def check_moments(step, out, _):
    seeded, problems = {}, []
    for n in _ns(_arg(step["cli"], "--n-range")):
        rep = _json(out, f"moments-{n}")
        if not rep["closure_error"] < 1e-7:
            problems.append(f"n={n}: closure_error {rep['closure_error']}")
        # sup_fourth / sup_individual depend on LAPACK's basis inside each
        # eigenspace; only the basis-invariant family sup is pinned.
        seeded[f"moments.sup_family.{n}"] = rep["sup_family"]
    return {"seeded": seeded}, problems


def check_spectral(step, out, _):
    free, problems = {}, []
    for n in _ns(_arg(step["cli"], "--n-range")):
        spaces = _json(out, f"spectral-{n}")["spaces"]
        total = sum(sp["multiplicity"] for sp in spaces)
        if total != (n + 1) ** 2:
            problems.append(f"n={n}: multiplicities sum to {total}")
        # eigenvalue tables in a seed-independent order (rounding breaks
        # roundoff-level ties such as T_1 = +-1e-17)
        free[f"spectral.tables.{n}"] = sorted(
            ([sp["multiplicity"]] + [sp["lams"][k] for k in sorted(sp["lams"], key=int)]
             for sp in spaces), key=lambda row: [round(v, 6) for v in row])
    return {"seed_free": free}, problems


def check_pretrace(step, out, _):
    rows = _csv(out, "pretrace-check")
    bad = [r["n"] for r in rows if r["pass"] != "True"
           or not float(r["residual"]) <= float(r["tol"])]
    return {}, [f"pretrace residual above tol at n={n}" for n in bad]


def check_hecke(step, out, _):
    free, problems = {}, []
    for n in _ns(_arg(step["cli"], "--n-range")):
        rep = _json(out, f"hecke-check-{n}")["report"]
        flags = {k: v for k, v in rep.items() if isinstance(v, bool)}
        flags.update({f"selfadjoint.{p}": v for p, v in rep["selfadjoint"].items()})
        failed = sorted(k for k, v in flags.items() if not v)
        if failed:
            problems.append(f"n={n}: failed relations {failed}")
        free[f"hecke-check.relations.{n}"] = sorted(flags)
    return {"seed_free": free}, problems


def check_theta(step, out, _):
    argv = step["cli"]
    x, y = (list(map(int, _arg(argv, f).split(","))) for f in ("--x", "--y"))
    p = sum(c * c for c in x) * sum(c * c for c in y)
    problems = [] if math.isqrt(p) ** 2 == p else [f"nr(x) nr(y) = {p} is not a square"]
    rows = _csv(out, "theta-identity")
    vals = {(r["k"], r["side"]): float(r["value"]) for r in rows}
    for k in range(1, int(_arg(argv, "--cutoff")) + 1):
        tv, sv = vals[(str(k), "theta")], vals[(str(k), "spectral")]
        if not abs(sv - tv) <= 1e-8 * (1 + abs(tv)):
            problems.append(f"k={k}: theta {tv} != spectral {sv}")
    return {"seeded": {"theta-identity.theta": [float(r["value"]) for r in rows
                                                if r["side"] == "theta"]}}, problems


def check_counting(step, out, _):
    summary = _json(out, "counting-summary")
    problems = [] if summary["constant"] <= 64 and summary["pass"] else [
        f"counting constant {summary['constant']} > 64"]
    totals = {}
    for r in _csv(out, "counting"):
        totals[r["family"]] = totals.get(r["family"], 0) + int(r["count"])
    free = {"counting.constant": summary["constant"],
            **{f"counting.total.{k}": v for k, v in sorted(totals.items())}}
    return {"seed_free": free}, problems


def check_petersson(step, out, _):
    free, problems = {}, []
    for r in _csv(out, "petersson"):
        rho, tail = float(r["rho"]), float(r["tail_ratio"])
        if not (math.isfinite(rho) and rho > 0 and math.isfinite(tail) and tail < 1e-6):
            problems.append(f"n={r['n']}: rho {rho}, tail_ratio {tail} not certified")
        free[f"petersson.rho.{r['n']}"] = rho
    return {"seed_free": free}, problems


def check_report(step, out, _):
    rep = _json(out, "report")
    free = {"report.rho_slope": rep["petersson"]["slope"],
            "report.a_of_x_slopes": [rep["a_of_x_slopes"][k]
                                     for k in sorted(rep["a_of_x_slopes"], key=int)]}
    slope = rep["petersson"]["slope"]
    return {"seed_free": free}, [] if math.isfinite(slope) else ["report slope not finite"]


def check_modularity(step, out, _):
    free, problems = {}, []
    for n in _ns(_arg(step["cli"], "--n-range")):
        r = _json(out, f"modularity-{n}")
        if not (r["residual"] <= 1e-6 and r["tail_bound"] < 1e-8):
            problems.append(f"n={n}: residual {r['residual']}, tail {r['tail_bound']}")
        free[f"modularity.K.{n}"] = r["K"]
    return {"seed_free": free}, problems


def check_shells(step, out, _):
    k = int(_arg(step["cli"], "--k"))
    rows = [tuple(map(int, r.values())) for r in _csv(out, f"shells-coset-{k}")]
    sigma = sum(d for d in range(1, k + 1) if k % d == 0)
    problems = []
    if len(rows) != 16 * sigma:  # the Hurwitz coset holds 16 sigma(k) of norm k
        problems.append(f"coset shell {k}: {len(rows)} elements, expected {16 * sigma}")
    if any(c % 2 == 0 for r in rows for c in r) or any(
            sum(c * c for c in r) != 4 * k for r in rows):
        problems.append(f"coset shell {k}: element off the shell")
    if any(a >= b for a, b in zip(rows, rows[1:])):
        problems.append(f"coset shell {k}: not strictly sorted")
    return {}, problems


def check_gon_batch(step, out, result):
    problems = []
    for i, (lams, (lower, middle, upper), bound_ok) in enumerate(result):
        if not (0 < lams[0] and all(a <= b for a, b in zip(lams, lams[1:]))):
            problems.append(f"lattice {i}: minima not ordered {lams}")
        if not (lower <= middle * (1 + 1e-9) and middle <= upper * (1 + 1e-9)):
            problems.append(f"lattice {i}: {middle} outside Minkowski sandwich")
        if not bound_ok:
            problems.append(f"lattice {i}: product bound fails")
    return {"seed_free": {"gon-batch.minima": [r[0] for r in result],
                          "gon-batch.middle": [r[1][1] for r in result]}}, problems


CHECKS = {
    "moments": check_moments, "spectral": check_spectral,
    "pretrace-check": check_pretrace, "hecke-check": check_hecke,
    "theta-identity": check_theta, "counting": check_counting,
    "petersson": check_petersson, "report": check_report,
    "modularity": check_modularity, "shells": check_shells,
    "gon-batch": check_gon_batch,
}


def compare(values, reference) -> list:
    """Mismatches of ``values`` against ``reference`` (same nesting), as text."""
    bad = []

    def walk(key, got, want):
        if isinstance(want, list):
            if not isinstance(got, list) or len(got) != len(want):
                bad.append(f"{key}: shape differs from reference")
                return
            for i, (g, w) in enumerate(zip(got, want)):
                walk(f"{key}[{i}]", g, w)
        elif isinstance(want, (bool, int, str)) or got is None:
            if got != want:
                bad.append(f"{key}: {got!r} != reference {want!r}")
        elif not abs(got - want) <= RTOL * abs(want) + ATOL:
            bad.append(f"{key}: {got!r} != reference {want!r} (rtol {RTOL})")

    for key, want in reference.items():
        walk(key, values.get(key), want)
    return bad
