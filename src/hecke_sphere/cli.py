"""Command-line front end: experiment subcommands with JSON/CSV artifacts.

Every output embeds the resolved configuration; CSV bodies are
deterministic for a fixed configuration.  Exit status 0 means every
assertion in the run passed.  A refused input, a ``ValueError`` from the
flag parsers here or from the library, is printed by ``main`` as one line
``hecke-sphere <command>: <reason>`` and exits 1; argparse's own usage
errors exit 2.  A failed check exits 1 with one line of the same form
naming its worst case and the gate it missed, after its artifacts are
written.

CSV tables are passed as columns and written a block of rows at a time,
each field as ``str(value)`` (what ``csv.writer`` writes for ints, floats,
bools and numpy scalars); no field is quoted, so one that would need
quoting is refused.  The check is made as a field is formatted
(``_field_text``), not on the written text: integer, bool and float64
array columns need none, and each distinct ``str`` value is checked once.  The argument
parser is built once per process and subcommand, with only the subparser
that the command line names.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from functools import lru_cache
from pathlib import Path

import numpy as np

from .theta import DEFAULT_X, DEFAULT_Y

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


#: rows formatted and written at a time: whole formatted columns of the
#: 14k-row counting table would cost megabytes of transient str objects
CSV_BLOCK = 4096


def _field_text(col):
    """A function from a row range [a, b) of ``col`` to its fields' text.

    An integer array whose value range is shorter than its length (shell
    coordinates, k, R) reads its text from a table of ``str(v)`` over that
    range; every other value is formatted with one ``str``.  The text of an
    integer, bool or float64 array holds no separator, so it is not
    checked; every other field is refused as it is formatted when it is
    None or its text holds ",", '"', CR or LF.  A ``str`` value is
    formatted and checked once per distinct value; other values are not
    memoised, since equal values (0.0 and -0.0, 1 and True) differ in text.
    """
    if isinstance(col, np.ndarray) and col.dtype.kind == "i" and len(col):
        lo, hi = int(col.min()), int(col.max())
        if hi - lo < len(col):
            table = np.array([str(v) for v in range(lo, hi + 1)], dtype=object)
            return lambda a, b: table[np.subtract(col[a:b], lo,
                                                  dtype=np.int64)].tolist()
    # these dtypes convert to Python scalars with the same str
    if isinstance(col, np.ndarray) and (col.dtype.kind in "iub"
                                        or col.dtype == np.float64):
        return lambda a, b: list(map(str, col[a:b].tolist()))
    memo = {}

    def field(v):
        if v is None:
            raise ValueError("CSV field is None")
        text = str(v)
        if "," in text or '"' in text or "\r" in text or "\n" in text:
            raise ValueError('CSV field holds ",", \'"\', CR or LF')
        if type(v) is str:
            memo[v] = text
        return text

    return lambda a, b: [memo[v] if type(v) is str and v in memo else field(v)
                         for v in col[a:b]]


def _csv_block(fields) -> str:
    """Rows of checked ``str`` fields (one list per column, from
    ``_field_text``) as CSV text."""
    rows = len(fields[0])
    return "\r\n".join(map(",".join, zip(*fields))) + "\r\n" if rows else ""


def _write_csv(args, name: str, header, columns):
    """Write ``columns`` (equal-length sequences or 1-D arrays) under
    ``header`` to ``<out>/<name>.csv``, CSV_BLOCK rows at a time."""
    # a lone empty field is the one unquoted value csv.writer would quote
    if len(header) < 2 or len(columns) != len(header):
        raise ValueError("need one column per header field, at least two")
    nrows = len(columns[0])
    if any(len(c) != nrows for c in columns):
        raise ValueError("CSV columns differ in length")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{name}.csv"
    texts = [_field_text(c) for c in columns]
    try:
        with path.open("w", newline="") as fh:
            fh.write(f"# schema={SCHEMA} config={json.dumps(_config(args), sort_keys=True)}\n")
            fh.write(_csv_block([[h] for h in _field_text(header)(0, len(header))]))
            for a in range(0, nrows, CSV_BLOCK):
                b = min(a + CSV_BLOCK, nrows)
                fh.write(_csv_block([t(a, b) for t in texts]))
    except ValueError:
        path.unlink()
        raise
    return path


def _ns(args):
    if args.n_range:
        try:
            a, b, step = (int(t) for t in args.n_range.split(":"))
        except ValueError:
            raise ValueError(
                f"--n-range: expected a:b:step, got {args.n_range!r}") from None
        if step < 1 or a > b:
            raise ValueError(
                f"--n-range: need step >= 1 and a <= b, got {args.n_range!r}")
        ns = list(range(a, b + 1, step))
    elif args.n is None:
        raise ValueError("one of --n / --n-range is required")
    else:
        ns = [args.n]
    if ns[0] < 0:
        raise ValueError(f"needs n >= 0, got n = {ns[0]}")
    return ns


def _even_ns(args):
    """``_ns(args)``, refused unless every n is even: the joint
    eigenspaces and the Hecke relations are built for even n."""
    ns = _ns(args)
    odd = [n for n in ns if n % 2]
    if odd:
        raise ValueError(f"needs even n, got n = {odd[0]}")
    return ns


def _at_least_one(args, flag: str) -> int:
    """The integer flag ``--<flag>``, refused with one line below 1: a
    command over no k, grid point or pair would pass vacuously or only
    fail after its first eigensolve."""
    value = getattr(args, flag)
    if value < 1:
        raise ValueError(f"needs --{flag} >= 1, got {value}")
    return value


def _quaternion(flag: str, text: str) -> tuple:
    """``--x`` / ``--y`` as four integer coordinates, not all zero."""
    try:
        q = tuple(int(t) for t in text.split(","))
    except ValueError:
        q = ()
    if len(q) != 4 or not any(q):
        raise ValueError(
            f"--{flag}: expected four integers, not all zero, got {text!r}")
    return q


def _failed(args, reason: str) -> int:
    """Exit status 1 for a failed check, with one stderr line saying why."""
    print(f"hecke-sphere {args.command}: {reason}", file=sys.stderr)
    return 1


def _primes(args):
    from .hecke import odd_primes

    try:
        return odd_primes(int(p) for p in args.primes.split(","))
    except ValueError as exc:
        raise ValueError(f"--primes: {exc}") from None


def cmd_shells(args) -> int:
    from .quat import enumerate_shell

    sh = enumerate_shell(args.k, args.parity)
    _write_csv(args, f"shells-{args.parity}-{args.k}",
               ["c1", "c2", "c3", "c4"], sh.coords.T)
    return 0


def cmd_basis(args) -> int:
    from .poly import basis_to_json, harmonic_basis

    for n in _ns(args):
        _write_json(args, f"basis-{n}", basis_to_json(harmonic_basis(n)))
    return 0


def cmd_hecke_check(args) -> int:
    from .hecke import hecke_relations_check, selfadjoint_check

    primes = _primes(args)
    failed = []
    for n in _even_ns(args):
        rep = hecke_relations_check(n, primes=primes)
        failed += [(n, name) for name, ok in rep.items()
                   if name != "all_pass" and not ok]
        rep["selfadjoint"] = {p: selfadjoint_check(n, p) for p in primes}
        rep["all_pass"] = rep["all_pass"] and all(rep["selfadjoint"].values())
        failed += [(n, f"S{p} self-adjoint")
                   for p, ok in rep["selfadjoint"].items() if not ok]
        _write_json(args, f"hecke-check-{n}", {"report": rep})
    if failed:
        # the relations are exact: a check holds or it does not
        n, name = failed[0]
        return _failed(args, f"{len(failed)} exact check(s) fail; "
                             f"first at n = {n}: {name}")
    return 0


def cmd_spectral(args) -> int:
    from .hecke import GROUP_TOL, decompose

    for n in _even_ns(args):
        dec = decompose(n, primes=_primes(args))
        payload = {
            "n": n, "group_tol": GROUP_TOL,
            "group_margin": dec.group_margin, "spaces": [
                {"lams": sp.lams, "multiplicity": sp.multiplicity,
                 "t1_flag": sp.t1_flag} for sp in dec.spaces],
        }
        _write_json(args, f"spectral-{n}", payload)
    return 0


def cmd_pretrace_check(args) -> int:
    from .hecke import decompose
    from .moments import pretrace_residual, sphere_grid

    pairs = _at_least_one(args, "pairs")
    ns, residuals, tols = _even_ns(args), [], []
    for n in ns:
        dec = decompose(n)
        xs = sphere_grid(pairs, seed=args.seed)
        ys = sphere_grid(pairs, seed=args.seed + 1)
        residuals.append(pretrace_residual(dec, xs, ys))
        tols.append(1e-8 * (n + 1) ** 2)
    passed = [r <= t for r, t in zip(residuals, tols)]
    _write_csv(args, "pretrace-check", ["n", "residual", "tol", "pass"],
               [ns, residuals, tols, passed])
    if all(passed):
        return 0
    r, t, n = max(zip(residuals, tols, ns), key=lambda c: c[0] / c[1])
    return _failed(args, f"residual {r:.3g} > tol {t:.3g} at n = {n} "
                         f"({r / t:.3g} times the tolerance)")


def cmd_theta_identity(args) -> int:
    from .hecke import decompose
    from .theta import spectral_coefficient, theta_coefficients

    x, y = _quaternion("x", args.x), _quaternion("y", args.y)
    ks = range(1, _at_least_one(args, "cutoff") + 1)
    misses = []
    n_col, k_col, sides, values = [], [], [], []
    for n in _even_ns(args):
        # theta first: its float-range refusal comes before the eigensolve
        thetas = theta_coefficients(n, x, y, ks)
        dec = decompose(n)
        for k, sv, tc in zip(ks, spectral_coefficient(x, y, ks, dec), thetas):
            tv = tc.float_value
            gate = 1e-8 * (1 + abs(tv))
            if not abs(sv - tv) <= gate:
                misses.append((abs(sv - tv) / gate, n, k, sv, tv, gate))
            n_col += [n, n]
            k_col += [k, k]
            sides += ["theta", "spectral"]
            values += [tv, sv]
    _write_csv(args, "theta-identity", ["n", "k", "side", "value"],
               [n_col, k_col, sides, values])
    if not misses:
        return 0
    _, n, k, sv, tv, gate = max(misses)
    return _failed(args, f"{len(misses)} of {len(values) // 2} coefficients "
                         f"miss the gate |spectral - theta| <= "
                         f"1e-8 (1 + |theta|); worst n = {n}, k = {k}: "
                         f"spectral {sv:.3g}, theta {tv:.3g}, gate {gate:.3g}")


def cmd_modularity(args) -> int:
    from .theta import modularity_check

    misses = []
    for n in _ns(args):
        # z = i/2 is refused for each n = 2 mod 4 from 6 on: a forced zero
        r = modularity_check(n, ((1, 0), (4, 1)), complex(0.0, args.im),
                             K=args.cutoff)
        _write_json(args, f"modularity-{n}", {
            "n": n, "K": r.K, "residual": r.residual,
            "tail_bound": r.tail_bound})
        if not r.residual <= 1e-6:
            misses.append((r.residual / 1e-6, n, r.residual))
    if not misses:
        return 0
    ratio, n, residual = max(misses)
    return _failed(args, f"n = {n}: residual {residual:.3g} > 1e-06 "
                         f"({ratio:.3g} times the gate)")


def cmd_petersson(args) -> int:
    from .theta import petersson_estimate

    ests = [petersson_estimate(n, args.cutoff) for n in _ns(args)]
    header = ["n", "K", "rho", "log_I1", "log_I2", "tail_ratio"]
    _write_csv(args, "petersson", header,
               [[getattr(p, f) for p in ests] for f in header])
    return 0


def cmd_counting(args) -> int:
    from .gon import dyadic_class_count, fit_constant, shell_class_table

    Rs = [2 ** b for b in range(7)]
    counts, bounds = shell_class_table(args.cutoff, Rs)
    ratios = counts / bounds
    dyadic = [dyadic_class_count(2 ** a, 2 ** b)
              for a in range(4, 13) for b in range(7)]
    single = (np.repeat(np.arange(1, len(counts) + 1), len(Rs)),
              np.tile(Rs, len(counts)), counts.ravel(), bounds.ravel(),
              ratios.ravel())
    dyad = zip(*[(r.params[0], r.params[1], r.count, r.bound, r.ratio)
                 for r in dyadic])
    _write_csv(args, "counting",
               ["family", "p1", "R", "count", "bound", "ratio"],
               [["singlebound"] * counts.size + [r.family for r in dyadic]]
               + [np.concatenate([s, d]) for s, d in zip(single, dyad)])
    C = max(float(ratios.max(initial=0.0)), fit_constant(dyadic))
    _write_json(args, "counting-summary", {"constant": C, "pass": C <= 64})
    if C <= 64:
        return 0
    if ratios.size and ratios.max() == C:
        k, j = np.unravel_index(ratios.argmax(), ratios.shape)
        case = f"singlebound k = {k + 1}, R = {Rs[j]}"
    else:
        r = max(dyadic, key=lambda r: r.ratio)
        case = f"{r.family} M = {r.params[0]}, R = {r.params[1]}"
    return _failed(args, f"count / bound reaches {C:.4g} > 64 at {case}")


def cmd_moments(args) -> int:
    from .hecke import decompose
    from .moments import ClosureError, moment_sweep, sphere_grid

    grid = sphere_grid(_at_least_one(args, "grid"), seed=args.seed)
    stats = ("sup_family", "sup_fourth", "sup_individual")
    reps = []
    for n in _even_ns(args):
        dec = decompose(n)
        try:
            reps.append(moment_sweep(dec, grid, seed=args.seed))
        except ClosureError as exc:
            return _failed(args, str(exc))
        _write_json(args, f"moments-{n}", asdict(reps[-1]))
    _write_csv(args, "moments", ["n", "stat", "value"],
               [[r.n for r in reps for _ in stats], list(stats) * len(reps),
                [getattr(r, s) for r in reps for s in stats]])
    return 0


def cmd_report(args) -> int:
    from .gon import a_of_x
    from .moments import growth_fit
    from .theta import petersson_estimate

    payload = {}
    ns = _ns(args)
    rhos = [petersson_estimate(n).rho for n in ns]
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
    "seed": {"type": int, "default": 0,
             "help": "grid seed (spectral accepts it and uses nothing of it)"},
    "grid": {"type": int, "default": 5000},
    "pairs": {"type": int, "default": 100},
    "x": {"default": ",".join(map(str, DEFAULT_X.int_coords))},
    "y": {"default": ",".join(map(str, DEFAULT_Y.int_coords))},
    "im": {"type": float, "default": 0.5},
    "k": {"type": int, "required": True},
    "parity": {"choices": ("integral", "coset"), "default": "integral"},
}

_NS = ("n", "n-range")

# subcommand, handler, the flags it reads (besides --out; spectral reads no
# --seed, kept so that the benchmark's argvs parse), its --cutoff default;
# --primes only where the artifact records what it selects
COMMANDS = (
    ("shells", cmd_shells, ("k", "parity"), None),
    ("basis", cmd_basis, _NS, None),
    ("hecke-check", cmd_hecke_check, _NS + ("primes",), None),
    ("spectral", cmd_spectral, _NS + ("primes", "seed"), None),
    ("pretrace-check", cmd_pretrace_check, _NS + ("seed", "pairs"), None),
    ("theta-identity", cmd_theta_identity, _NS + ("x", "y"), 40),
    ("modularity", cmd_modularity, _NS + ("im",), 0),
    ("petersson", cmd_petersson, _NS, 0),
    ("counting", cmd_counting, (), 4096),
    ("moments", cmd_moments, _NS + ("grid", "seed"), None),
    ("report", cmd_report, _NS, None),
)
NAMES = tuple(c[0] for c in COMMANDS)


@lru_cache(maxsize=None)
def _parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with every subcommand, or with ``command``'s alone.

    A parser for one subcommand names all of them in its usage line
    (``metavar``), so its usage and error text are those of the full tree;
    the full tree keeps argparse's own metavar, which also names the
    argument in its errors.
    """
    ap = argparse.ArgumentParser(
        prog="hecke-sphere",
        description="Hecke eigenform experiments on the 3-sphere")
    sub = ap.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{" + ",".join(NAMES) + "}")
    for name, fn, flags, cutoff in COMMANDS:
        if command not in (None, name):
            continue
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(f"--{flag}", **FLAGS[flag])
        if cutoff is not None:
            p.add_argument("--cutoff", type=int, default=cutoff)
        p.add_argument("--out", default="out")
        p.set_defaults(func=fn)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a known subcommand builds its subparser alone; anything else (no
    # argv, --help, an unknown name) gets the full tree and its messages
    known = argv and argv[0] in NAMES
    args = _parser(argv[0] if known else None).parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"hecke-sphere {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
