"""Command-line front end: experiment subcommands with JSON/CSV artifacts.

Every output embeds the resolved configuration; CSV bodies are
deterministic for a fixed configuration.  Exit status 0 means every
assertion in the run passed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

SCHEMA = "hecke-sphere/1"


def _jsonable(v):
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    return v


def _config(args) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    return _jsonable(cfg)


def _write_json(args, name: str, payload: dict):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    doc = {"schema": SCHEMA, "config": _config(args), **_jsonable(payload)}
    path = out / f"{name}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def _write_csv(args, name: str, header, rows):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{name}.csv"
    with path.open("w", newline="") as fh:
        fh.write(f"# schema={SCHEMA} config={json.dumps(_config(args), sort_keys=True)}\n")
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return path


def _ns(args):
    if args.n_range:
        try:
            a, b, step = (int(t) for t in args.n_range.split(":"))
        except ValueError:
            raise SystemExit(f"--n-range: expected a:b:step, got {args.n_range!r}")
        if step < 1 or a > b:
            raise SystemExit(
                f"--n-range: need step >= 1 and a <= b, got {args.n_range!r}")
        return list(range(a, b + 1, step))
    if args.n is None:
        raise SystemExit("one of --n / --n-range is required")
    return [args.n]


def _primes(args):
    from .hecke import odd_primes

    try:
        return odd_primes(int(p) for p in args.primes.split(","))
    except ValueError as exc:
        raise SystemExit(f"--primes: {exc}")


def cmd_shells(args) -> int:
    from .quat import enumerate_shell

    sh = enumerate_shell(args.k, args.parity)
    _write_csv(args, f"shells-{args.parity}-{args.k}",
               ["c1", "c2", "c3", "c4"], sh.coords.tolist())
    return 0


def cmd_basis(args) -> int:
    from .poly import basis_to_json, harmonic_basis

    for n in _ns(args):
        _write_json(args, f"basis-{n}", basis_to_json(harmonic_basis(n)))
    return 0


def cmd_hecke_check(args) -> int:
    from .hecke import hecke_relations_check, selfadjoint_check

    primes = _primes(args)
    ok = True
    for n in _ns(args):
        rep = hecke_relations_check(n, primes=primes)
        rep["selfadjoint"] = {p: selfadjoint_check(n, p) for p in primes}
        rep["all_pass"] = rep["all_pass"] and all(rep["selfadjoint"].values())
        ok = ok and rep["all_pass"]
        _write_json(args, f"hecke-check-{n}", {"report": rep})
    return 0 if ok else 1


def cmd_spectral(args) -> int:
    from .hecke import decompose

    for n in _ns(args):
        dec = decompose(n, primes=_primes(args), seed=args.seed)
        payload = {
            "n": n, "seed_used": dec.seed, "group_tol": dec.group_tol,
            "group_margin": dec.group_margin, "spaces": [
                {"lams": sp.lams, "multiplicity": sp.multiplicity,
                 "t1_flag": sp.t1_flag} for sp in dec.spaces],
        }
        _write_json(args, f"spectral-{n}", payload)
    return 0


def cmd_pretrace_check(args) -> int:
    from .hecke import decompose
    from .moments import pretrace_residual, sphere_grid

    ok = True
    rows = []
    for n in _ns(args):
        dec = decompose(n, primes=_primes(args), seed=args.seed)
        xs = sphere_grid(args.pairs, seed=args.seed)
        ys = sphere_grid(args.pairs, seed=args.seed + 1)
        res = pretrace_residual(dec, xs, ys)
        tol = 1e-8 * (n + 1) ** 2
        rows.append((n, res, tol, res <= tol))
        ok = ok and res <= tol
    _write_csv(args, "pretrace-check", ["n", "residual", "tol", "pass"], rows)
    return 0 if ok else 1


def cmd_theta_identity(args) -> int:
    from .hecke import decompose
    from .theta import spectral_coefficient, theta_coefficients

    x = tuple(int(t) for t in args.x.split(","))
    y = tuple(int(t) for t in args.y.split(","))
    ks = range(1, args.cutoff + 1)
    ok = True
    rows = []
    for n in _ns(args):
        dec = decompose(n, primes=_primes(args), seed=args.seed,
                        even_extras=tuple(ks))
        for k, sv, tc in zip(ks, spectral_coefficient(n, x, y, ks, dec),
                             theta_coefficients(n, x, y, ks)):
            tv = tc.float_value
            good = abs(sv - tv) <= 1e-8 * (1 + abs(tv))
            rows.append((n, k, "theta", tv))
            rows.append((n, k, "spectral", sv))
            ok = ok and good
    _write_csv(args, "theta-identity", ["n", "k", "side", "value"], rows)
    return 0 if ok else 1


def cmd_modularity(args) -> int:
    from .theta import modularity_check

    ok = True
    for n in _ns(args):
        r = modularity_check(n, ((1, 0), (4, 1)), complex(0.0, args.im),
                             K=args.cutoff)
        _write_json(args, f"modularity-{n}", {
            "n": n, "K": r.K, "residual": r.residual,
            "tail_bound": r.tail_bound,
            "exact_coefficients": r.exact_coefficients,
            "max_exact_gap": r.max_exact_gap})
        ok = ok and r.residual <= 1e-6 and r.tail_bound < 1e-8
    return 0 if ok else 1


def cmd_petersson(args) -> int:
    from .theta import petersson_estimate

    rows = []
    for n in _ns(args):
        K = args.cutoff or 10 * n
        p = petersson_estimate(n, K, precision=args.precision)
        rows.append((n, p.K, p.rho, p.log_I1, p.log_I2, p.tail_ratio))
    _write_csv(args, "petersson",
               ["n", "K", "rho", "log_I1", "log_I2", "tail_ratio"], rows)
    return 0


def cmd_counting(args) -> int:
    from .gon import dyadic_class_count, fit_constant, shell_class_table

    Rs = [2 ** b for b in range(7)]
    counts, bounds = shell_class_table(args.cutoff, Rs)
    ratios = counts / bounds
    ks = np.repeat(np.arange(1, args.cutoff + 1), len(Rs)).tolist()
    rows = list(zip(["singlebound"] * len(ks), ks, Rs * args.cutoff,
                    counts.ravel().tolist(), bounds.ravel().tolist(),
                    ratios.ravel().tolist()))
    dyadic = [dyadic_class_count(2 ** a, 2 ** b)
              for a in range(4, 13) for b in range(7)]
    rows += [(r.family, r.params[0], r.params[1], r.count, r.bound, r.ratio)
             for r in dyadic]
    _write_csv(args, "counting",
               ["family", "p1", "R", "count", "bound", "ratio"], rows)
    C = max(float(ratios.max(initial=0.0)), fit_constant(dyadic))
    _write_json(args, "counting-summary", {"constant": C, "pass": C <= 64})
    return 0 if C <= 64 else 1


def cmd_moments(args) -> int:
    from .hecke import decompose
    from .moments import ClosureError, moment_sweep, sphere_grid

    grid = sphere_grid(args.grid, seed=args.seed)
    rows = []
    for n in _ns(args):
        dec = decompose(n, primes=_primes(args), seed=args.seed)
        try:
            rep = moment_sweep(n, dec, grid, seed=args.seed)
        except ClosureError as exc:
            print(f"hecke-sphere moments: {exc}", file=sys.stderr)
            return 1
        for stat in ("sup_family", "sup_fourth", "sup_individual"):
            rows.append((n, stat, getattr(rep, stat)))
        _write_json(args, f"moments-{n}", asdict(rep))
    _write_csv(args, "moments", ["n", "stat", "value"], rows)
    return 0


def cmd_report(args) -> int:
    from .gon import a_of_x
    from .moments import growth_fit
    from .theta import petersson_estimate

    payload = {}
    ns = _ns(args)
    rhos = [petersson_estimate(n, 10 * n).rho for n in ns]
    slope, intercept, _ = growth_fit(ns, rhos)
    payload["petersson"] = {"ns": ns, "rhos": rhos, "slope": slope,
                            "intercept": intercept}
    a_slopes = {}
    for n in (64, 128, 256):
        xs = list(range(max(n // 8, 2), n + 1, max(n // 32, 1)))
        vals = [a_of_x(n, X) for X in xs]
        s, _, _ = growth_fit(xs, vals)
        a_slopes[n] = s
    payload["a_of_x_slopes"] = a_slopes
    _write_json(args, "report", payload)
    return 0


# flag -> add_argument keywords; ``--cutoff`` is added per subcommand with
# its own default
FLAGS = {
    "n": {"type": int},
    "n-range": {"help": "a:b:step inclusive range of n"},
    "primes": {"default": "3,5"},
    "seed": {"type": int, "default": 0},
    "grid": {"type": int, "default": 5000},
    "pairs": {"type": int, "default": 100},
    "x": {"default": "1,2,2,0"},
    "y": {"default": "1,0,0,0"},
    "im": {"type": float, "default": 0.5},
    "precision": {"choices": ("double", "extended"), "default": "double"},
    "k": {"type": int, "required": True},
    "parity": {"choices": ("integral", "coset"), "default": "integral"},
}

_NS = ("n", "n-range")

# subcommand, handler, the flags it reads (besides --out), its --cutoff default
COMMANDS = (
    ("shells", cmd_shells, ("k", "parity"), None),
    ("basis", cmd_basis, _NS, None),
    ("hecke-check", cmd_hecke_check, _NS + ("primes",), None),
    ("spectral", cmd_spectral, _NS + ("primes", "seed"), None),
    ("pretrace-check", cmd_pretrace_check, _NS + ("primes", "seed", "pairs"), None),
    ("theta-identity", cmd_theta_identity, _NS + ("primes", "seed", "x", "y"), 40),
    ("modularity", cmd_modularity, _NS + ("im",), 0),
    ("petersson", cmd_petersson, _NS + ("precision",), 0),
    ("counting", cmd_counting, (), 4096),
    ("moments", cmd_moments, _NS + ("primes", "grid", "seed"), None),
    ("report", cmd_report, _NS, None),
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="hecke-sphere",
        description="Hecke eigenform experiments on the 3-sphere")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn, flags, cutoff in COMMANDS:
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(f"--{flag}", **FLAGS[flag])
        if cutoff is not None:
            p.add_argument("--cutoff", type=int, default=cutoff)
        p.add_argument("--out", default="out")
        p.set_defaults(func=fn)
    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
