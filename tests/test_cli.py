import csv
import dataclasses
import io
import json
import math
import re
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hecke_sphere import cli, hecke, moments, theta
from hecke_sphere.cli import main


def run(tmp_path, *argv):
    return main(list(argv) + ["--out", str(tmp_path)])


def test_shells_csv(tmp_path):
    assert run(tmp_path, "shells", "--k", "1") == 0
    path = tmp_path / "shells-integral-1.csv"
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# schema=hecke-sphere/1 config=")
    assert lines[1] == "c1,c2,c3,c4"
    assert len(lines) == 2 + 8  # the 8 units


def test_shells_coset(tmp_path):
    assert run(tmp_path, "shells", "--k", "1", "--parity", "coset") == 0
    lines = (tmp_path / "shells-coset-1.csv").read_text().splitlines()
    assert len(lines) == 2 + 16


def test_basis_json(tmp_path):
    assert run(tmp_path, "basis", "--n", "2") == 0
    doc = json.loads((tmp_path / "basis-2.json").read_text())
    assert doc["schema"] == "hecke-sphere/1"
    assert doc["config"]["n"] == 2


def test_hecke_check_exit_zero(tmp_path):
    assert run(tmp_path, "hecke-check", "--n", "4") == 0
    doc = json.loads((tmp_path / "hecke-check-4.json").read_text())
    assert doc["report"]["all_pass"] is True


@pytest.mark.parametrize("primes", ["2,3", "3,9", "3,3"])
def test_hecke_check_refuses_bad_primes(tmp_path, capsys, primes):
    # refused before any report is written, not reported as a failed relation
    assert run(tmp_path, "hecke-check", "--n", "4", "--primes", primes) == 1
    assert capsys.readouterr().err.startswith(
        "hecke-sphere hecke-check: --primes: ")
    assert not (tmp_path / "hecke-check-4.json").exists()


def test_spectral_multiplicities(tmp_path):
    assert run(tmp_path, "spectral", "--n", "4") == 0
    doc = json.loads((tmp_path / "spectral-4.json").read_text())
    assert sum(s["multiplicity"] for s in doc["spaces"]) == 25


@pytest.mark.parametrize("n", [4, 12])
def test_spectral_records_group_margin(tmp_path, n):
    # distinct eigenvalue classes sit far outside the grouping tolerance
    assert run(tmp_path, "spectral", "--n", str(n)) == 0
    doc = json.loads((tmp_path / f"spectral-{n}.json").read_text())
    assert doc["group_margin"] > doc["group_tol"] > 0


def test_spectral_seed_is_accepted_and_unused(tmp_path):
    # the solve draws nothing: --seed parses, and everything but the config
    # line (which echoes the flags) is the same bits at every value
    docs = []
    for seed in ("0", "9"):
        out = tmp_path / seed
        assert run(out, "spectral", "--n-range", "4:12:4", "--seed", seed) == 0
        docs.append([json.loads((out / f"spectral-{n}.json").read_text())
                     for n in (4, 8, 12)])
        for doc in docs[-1]:
            assert doc.pop("config")["seed"] == int(seed)
    assert docs[0] == docs[1]
    assert set(docs[0][0]) == {"schema", "n", "group_tol", "group_margin",
                               "spaces"}


def test_unflagged_eigenvalues_are_exact_zeros(tmp_path):
    # S_N = S_1 R_N: every T_N vanishes off the unit-fixed coordinates, so
    # the unflagged lambda are written as 0.0, not as roundoff
    assert run(tmp_path, "spectral", "--n-range", "4:24:2") == 0
    for n in range(4, 25, 2):
        doc = json.loads((tmp_path / f"spectral-{n}.json").read_text())
        lams = [lam for sp in doc["spaces"] if not sp["t1_flag"]
                for lam in sp["lams"].values()]
        assert lams and all(lam == 0.0 and math.copysign(1.0, lam) == 1.0
                            for lam in lams)
    dec = hecke.decompose(12)
    read = hecke.hecke_eigenvalues(dec, (9, 15, 49))
    for sp, col in zip(dec.spaces, read.T):
        assert sp.t1_flag or col.tolist() == [0.0, 0.0, 0.0]


def test_pretrace_check(tmp_path):
    assert run(tmp_path, "pretrace-check", "--n", "4", "--pairs", "20") == 0


def test_theta_identity_small(tmp_path):
    assert run(tmp_path, "theta-identity", "--n", "2", "--cutoff", "6") == 0
    lines = (tmp_path / "theta-identity.csv").read_text().splitlines()
    assert len(lines) == 2 + 2 * 6


def test_theta_identity_compares_the_exact_theta_value(tmp_path):
    # at n = 10 the float theta side reads 3.5e-8 at k = 14 (exactly 0):
    # the exact value is compared and written, and the identity holds
    assert run(tmp_path, "theta-identity", "--n", "10", "--cutoff", "16") == 0
    with open(tmp_path / "theta-identity.csv", newline="") as fh:
        rows = list(csv.reader(fh))[2:]
    got = {(int(k), side): float(v) for _, k, side, v in rows}
    for tc in theta.theta_coefficients(10, (1, 2, 2, 0), (1, 0, 0, 0),
                                       range(1, 17)):
        assert got[(tc.k, "theta")] == float(tc.value)
    assert got[(14, "theta")] == 0.0


@pytest.mark.parametrize("argv", [
    ("hecke-check", "--n", "3"), ("spectral", "--n", "3"),
    ("moments", "--n", "3", "--grid", "10"), ("pretrace-check", "--n", "3"),
    ("theta-identity", "--n", "3"), ("spectral", "--n-range", "2:5:1")])
def test_even_only_commands_refuse_odd_n(tmp_path, capsys, argv):
    # one line naming the command and the odd n, not a ValueError traceback,
    # before any artifact is written
    assert run(tmp_path, *argv) == 1
    assert (capsys.readouterr().err
            == f"hecke-sphere {argv[0]}: needs even n, got n = 3\n")
    assert not any(tmp_path.iterdir())


def test_modularity(tmp_path):
    assert run(tmp_path, "modularity", "--n", "4") == 0
    doc = json.loads((tmp_path / "modularity-4.json").read_text())
    assert doc["residual"] <= 1e-6


def test_modularity_records_exact_coefficients(tmp_path):
    # N_x N_y = 9 for the default points, so every coefficient is exact
    assert run(tmp_path, "modularity", "--n", "4") == 0
    doc = json.loads((tmp_path / "modularity-4.json").read_text())
    assert doc["exact_coefficients"] == doc["K"]
    assert 0.0 <= doc["max_exact_gap"] < 1e-9


def test_modularity_odd_degrees_vanish(tmp_path):
    # the shell is closed under m -> -m and U_n is odd, so every odd kernel
    # vanishes: each coefficient is an exact 0 and the residual is 0.0
    assert run(tmp_path, "modularity", "--n-range", "1:7:2") == 0
    for n in (1, 3, 5, 7):
        doc = json.loads((tmp_path / f"modularity-{n}.json").read_text())
        assert doc["residual"] == 0.0
        assert doc["exact_coefficients"] == doc["K"]


def test_precision_flag_only_on_petersson(tmp_path):
    # the Petersson sums run in float64 only: --precision is refused too
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "petersson", "--n", "8", "--precision", "extended")
    assert exc.value.code == 2
    # every subcommand registers only the flags it reads
    for argv in (("shells", "--k", "1", "--seed", "1"),
                 ("basis", "--n", "2", "--primes", "3,5"),
                 ("hecke-check", "--n", "2", "--seed", "1"),
                 ("spectral", "--n", "4", "--grid", "100"),
                 ("pretrace-check", "--n", "4", "--cutoff", "10"),
                 ("pretrace-check", "--n", "4", "--primes", "3,5"),
                 ("theta-identity", "--n", "2", "--grid", "100"),
                 ("theta-identity", "--n", "2", "--primes", "3,5"),
                 ("theta-identity", "--n", "2", "--seed", "1"),
                 ("modularity", "--n", "4", "--primes", "3,5"),
                 ("petersson", "--n", "8", "--seed", "1"),
                 ("counting", "--n", "4"),
                 ("moments", "--n", "4", "--cutoff", "10"),
                 ("moments", "--n", "4", "--primes", "3,5"),
                 ("report", "--n", "8", "--cutoff", "80")):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, *argv)
        assert exc.value.code == 2


def test_counting_small(tmp_path):
    assert run(tmp_path, "counting", "--cutoff", "64") == 0
    doc = json.loads((tmp_path / "counting-summary.json").read_text())
    assert doc["pass"] is True


def test_n_range_and_missing_n(tmp_path, capsys):
    assert run(tmp_path, "basis", "--n-range", "0:4:2") == 0
    for n in (0, 2, 4):
        assert (tmp_path / f"basis-{n}.json").exists()
    assert run(tmp_path, "basis") == 1
    assert (capsys.readouterr().err
            == "hecke-sphere basis: one of --n / --n-range is required\n")


@pytest.mark.parametrize("spec", ["8:8:0", "8:4:2", "8:12:-2", "8:12", "a:b:c"])
def test_n_range_refuses_zero_step_and_empty_ranges(tmp_path, capsys, spec):
    # refused with a message before any artifact is written
    assert run(tmp_path, "petersson", "--n-range", spec) == 1
    assert capsys.readouterr().err.startswith(
        "hecke-sphere petersson: --n-range: ")
    assert not (tmp_path / "petersson.csv").exists()


def test_petersson_rerun_byte_identical(tmp_path, fresh_petersson_cache):
    assert run(tmp_path, "petersson", "--n", "8", "--cutoff", "100") == 0
    first = (tmp_path / "petersson.csv").read_bytes()
    # the rerun must compute its estimate, not read the first one's
    theta._petersson_estimate.cache_clear()
    assert run(tmp_path, "petersson", "--n", "8", "--cutoff", "100") == 0
    info = theta._petersson_estimate.cache_info()
    assert (info.hits, info.misses) == (0, 1)
    assert (tmp_path / "petersson.csv").read_bytes() == first


def test_report_reads_the_estimates_petersson_cached(tmp_path,
                                                     fresh_petersson_cache):
    # both leave the cutoff to petersson_estimate, which resolves K = 10n
    # before its cache: report computes no estimate of its own
    assert run(tmp_path, "petersson", "--n-range", "8:32:8") == 0
    before = theta._petersson_estimate.cache_info()
    assert run(tmp_path, "report", "--n-range", "8:32:8") == 0
    after = theta._petersson_estimate.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (4, 0)


def test_moments_rerun_byte_identical(tmp_path):
    args = ("moments", "--n", "4", "--grid", "200", "--seed", "7")
    assert run(tmp_path, *args) == 0
    first = (tmp_path / "moments.csv").read_bytes()
    assert run(tmp_path, *args) == 0
    assert (tmp_path / "moments.csv").read_bytes() == first


def test_moments_at_degree_80_passes_the_closure_gate(tmp_path):
    # the monomial-basis evaluator failed here with closure error 1.83e-7
    assert run(tmp_path, "moments", "--n", "80", "--grid", "2000",
               "--seed", "7") == 0
    rep = json.loads((tmp_path / "moments-80.json").read_text())
    assert rep["closure_error"] < 1e-10


def test_moments_closure_loss_exits_one(tmp_path, monkeypatch, capsys):
    # a decomposition whose bases are 1% too long fails the closure gate
    decompose = hecke.decompose

    def scaled(*args, **kwargs):
        dec = decompose(*args, **kwargs)
        spaces = tuple(dataclasses.replace(sp, basis=1.01 * sp.basis)
                       for sp in dec.spaces)
        return dataclasses.replace(dec, spaces=spaces)

    monkeypatch.setattr(hecke, "decompose", scaled)
    assert run(tmp_path, "moments", "--n", "4", "--grid", "50") == 1
    err = capsys.readouterr().err
    assert "closure error" in err and "Traceback" not in err
    assert not (tmp_path / "moments.csv").exists()


def test_modularity_forced_zero_exits_one(tmp_path, capsys):
    # z = i/2 is the fixed point of z -> -1/(4z); for n = 6 the kernel must
    # vanish there, so the check is refused with one line, not a traceback
    assert run(tmp_path, "modularity", "--n", "6") == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("hecke-sphere modularity: ") and "ill-conditioned" in err
    assert not (tmp_path / "modularity-6.json").exists()


def _failure_line(capsys, command):
    """The stderr of a failed check: one line naming the command."""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"hecke-sphere {command}: ")
    return err


def test_theta_identity_failure_names_its_worst_coefficient(tmp_path, capsys):
    # at n = 10 and cutoff 40 the spectral side misses exact zeros of the
    # theta side at some even k >= 26 by up to a few 1e-7 against the 1e-8
    # gate: roundoff on terms of size 6e8.  The table is written all the
    # same, and the line names the worst miss in it
    assert run(tmp_path, "theta-identity", "--n", "10", "--cutoff", "40") == 1
    err = _failure_line(capsys, "theta-identity")
    m = re.fullmatch(r"hecke-sphere theta-identity: (\d+) of 40 coefficients "
                     r"miss the gate \|spectral - theta\| <= 1e-8 "
                     r"\(1 \+ \|theta\|\); worst n = 10, k = (\d+): "
                     r"spectral (\S+), theta (\S+), gate (\S+)\n", err)
    assert m
    with open(tmp_path / "theta-identity.csv", newline="") as fh:
        rows = list(csv.reader(fh))[2:]
    sides = {(int(k), side): float(v) for _, k, side, v in rows}
    gap = {k: abs(sides[k, "spectral"] - sides[k, "theta"])
           / (1e-8 * (1 + abs(sides[k, "theta"]))) for k in range(1, 41)}
    k = int(m[2])
    assert int(m[1]) == sum(g > 1 for g in gap.values()) > 0
    assert gap[k] == max(gap.values())
    assert m.groups()[2:] == (f"{sides[k, 'spectral']:.3g}", f"{sides[k, 'theta']:.3g}",
                     f"{1e-8 * (1 + abs(sides[k, 'theta'])):.3g}")


def test_pretrace_check_failure_names_its_worst_degree(tmp_path, monkeypatch,
                                                       capsys):
    # tol = 1e-8 (n + 1)^2: 2.5e-7 at n = 4, 4.9e-7 at n = 6
    residual = {4: 1e-9, 6: 1e-6}
    monkeypatch.setattr(moments, "pretrace_residual",
                        lambda dec, xs, ys: residual[dec.n])
    assert run(tmp_path, "pretrace-check", "--n-range", "4:6:2",
               "--pairs", "5") == 1
    err = _failure_line(capsys, "pretrace-check")
    assert "residual 1e-06 > tol 4.9e-07 at n = 6 (2.04 times" in err
    rows = (tmp_path / "pretrace-check.csv").read_text().splitlines()[2:]
    assert [r.rsplit(",", 1)[1] for r in rows] == ["True", "False"]


def test_hecke_check_failure_names_the_failed_relation(tmp_path, monkeypatch,
                                                       capsys):
    monkeypatch.setattr(hecke, "selfadjoint_check", lambda n, p: p != 5)
    assert run(tmp_path, "hecke-check", "--n", "4") == 1
    err = _failure_line(capsys, "hecke-check")
    assert "1 exact check(s) fail; first at n = 4: S5 self-adjoint" in err
    doc = json.loads((tmp_path / "hecke-check-4.json").read_text())
    assert doc["report"]["all_pass"] is False

    # a failed relation is named before the self-adjointness checks
    relations = hecke.hecke_relations_check

    def broken(n, primes):
        rep = relations(n, primes=primes)
        rep["T3*T5=T15"] = rep["all_pass"] = False
        return rep

    monkeypatch.setattr(hecke, "hecke_relations_check", broken)
    assert run(tmp_path, "hecke-check", "--n", "4") == 1
    err = _failure_line(capsys, "hecke-check")
    assert "2 exact check(s) fail; first at n = 4: T3*T5=T15" in err


def test_modularity_failure_names_its_residual(tmp_path, monkeypatch, capsys):
    check = theta.modularity_check

    def loose(*args, **kwargs):
        return dataclasses.replace(check(*args, **kwargs), residual=3e-6)

    monkeypatch.setattr(theta, "modularity_check", loose)
    assert run(tmp_path, "modularity", "--n", "4") == 1
    err = _failure_line(capsys, "modularity")
    assert "n = 4: residual 3e-06 > 1e-06 (3 times the gate)" in err


def test_counting_failure_names_its_worst_record(tmp_path, monkeypatch,
                                                 capsys):
    from hecke_sphere import gon

    count = gon.dyadic_class_count

    def inflated(M, R):
        rec = count(M, R)
        return dataclasses.replace(rec, count=1000 * rec.count) if (
            (M, R) == (64, 2)) else rec

    monkeypatch.setattr(gon, "dyadic_class_count", inflated)
    assert run(tmp_path, "counting", "--cutoff", "16") == 1
    err = _failure_line(capsys, "counting")
    assert "> 64 at intbound M = 64, R = 2" in err
    doc = json.loads((tmp_path / "counting-summary.json").read_text())
    assert doc["pass"] is False


@pytest.mark.parametrize("argv", [
    ("theta-identity", "--n", "4", "--x=1,2,2"),
    ("theta-identity", "--n", "4", "--x=a,b,c,d"),
    ("theta-identity", "--n", "4", "--x=0,0,0,0"),
    ("theta-identity", "--n", "4", "--y=1,0,0,0,0"),
    ("moments", "--n", "4", "--grid", "0"),
    ("pretrace-check", "--n", "4", "--pairs", "0"),
    ("petersson", "--n", "8", "--cutoff", "5"),
    ("petersson", "--n", "3"),
    ("shells", "--k", "0"),
    ("basis", "--n", "-1"),
    ("report", "--n-range", "2:6:2"),
    ("modularity", "--n", "-2"),
    ("modularity", "--n", "6"),
    ("theta-identity", "--n", "4", "--cutoff", "0"),
    ("spectral", "--n", "-2"),
    ("spectral", "--n-range=-4:4:2"),
    ("hecke-check", "--n", "-2"),
    ("pretrace-check", "--n", "-2"),
    ("moments", "--n", "-2"),
    ("theta-identity", "--n", "-2"),
    ("spectral", "--n-range", "4:2:1"),
    ("spectral", "--n-range", "a:b:c"),
    ("basis",),
    ("hecke-check", "--n", "4", "--primes", "2,3"),
    ("modularity", "--n", "4", "--cutoff", "-5"),
    # a far z, whose (cz + d)^(n+2) leaves the float range, or a non-finite
    # one: refused before any coefficient is computed
    ("modularity", "--n", "100", "--im", "1000"),
    ("modularity", "--n", "4", "--im", "1e200"),
    ("modularity", "--n", "4", "--im", "inf"),
    ("modularity", "--n", "4", "--im", "nan")])
def test_refused_input_exits_one_with_one_line(tmp_path, capsys, argv):
    # a refused flag or library input is one stderr line naming the
    # command, not a traceback, and no artifact is written
    assert run(tmp_path, *argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"hecke-sphere {argv[0]}: ")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv,want", [
    (("spectral", "--n", "-2"), "needs n >= 0, got n = -2"),
    (("theta-identity", "--n", "4", "--cutoff", "0"),
     "needs --cutoff >= 1, got 0"),
    (("moments", "--n", "4", "--grid", "0"), "needs --grid >= 1, got 0"),
    (("pretrace-check", "--n", "4", "--pairs", "0"),
     "needs --pairs >= 1, got 0"),
    (("modularity", "--n", "4", "--cutoff", "-5"),
     "needs cutoff K >= 0 (0 starts at K = 64), got K = -5")])
def test_flags_are_refused_before_any_eigensolve(tmp_path, capsys,
                                                 monkeypatch, argv, want):
    # the refusal depends only on the flags, so no degree is decomposed
    def unreachable(*args, **kwargs):
        raise AssertionError("decompose ran before the refusal")

    monkeypatch.setattr(hecke, "decompose", unreachable)
    assert run(tmp_path, *argv) == 1
    assert capsys.readouterr().err == f"hecke-sphere {argv[0]}: {want}\n"


@pytest.mark.parametrize("argv,k", [
    (("modularity", "--n", "256"), 243),
    (("theta-identity", "--n", "512", "--cutoff", "40"), 16)])
def test_float_overflow_is_refused_with_one_line(tmp_path, capsys,
                                                 monkeypatch, argv, k):
    # k^(n/2) times the shell sum leaves the float range at k = 243 for
    # n = 256, which modularity reaches as K doubles past 128, and k^(n/2)
    # itself at k = 16 for n = 512; theta-identity builds the theta side
    # first, so it refuses before any eigensolve
    def unreachable(*args, **kwargs):
        raise AssertionError("decompose ran before the refusal")

    monkeypatch.setattr(hecke, "decompose", unreachable)
    assert run(tmp_path, *argv) == 1
    assert capsys.readouterr().err == (
        f"hecke-sphere {argv[0]}: n = {argv[2]}: the coefficient at k = {k} "
        f"lies outside the float range\n")
    assert not any(tmp_path.iterdir())


def test_main_reuses_one_parser_with_fresh_namespaces(tmp_path):
    assert cli._parser() is cli._parser()
    assert cli._parser("petersson") is cli._parser("petersson")
    assert run(tmp_path, "petersson", "--n", "8", "--cutoff", "100") == 0
    assert run(tmp_path, "counting", "--cutoff", "16") == 0
    # the earlier --cutoff does not leak into the next call: K = 10n
    assert run(tmp_path, "petersson", "--n", "8") == 0
    lines = (tmp_path / "petersson.csv").read_text().splitlines()
    assert '"cutoff": 0' in lines[0] and lines[2].startswith("8,80,")


def _subcommands(parser):
    (action,) = [a for a in parser._actions
                 if isinstance(a, cli.argparse._SubParsersAction)]
    return list(action.choices)


def test_parser_per_command_builds_one_subparser():
    assert _subcommands(cli._parser()) == list(cli.NAMES)
    for name in cli.NAMES:
        assert _subcommands(cli._parser(name)) == [name]


def _exit_text(parse, argv, capsys):
    """Exit code, stdout and stderr of ``parse(argv)``, which must exit."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["-h"], ["shell"], ["--out", "x"],
    ["hecke-check", "--bogus"], ["hecke-check", "--n", "x"],
    ["moments", "--n", "4", "extra"], ["shells"], ["shells", "--help"],
    ["counting", "--n", "4"], ["petersson", "--precision", "quad"]])
def test_main_messages_match_the_full_tree(argv, capsys):
    # usage, help and error text, and the exit code, are those of the parser
    # with every subcommand, whichever parser main builds
    full = _exit_text(cli._parser().parse_args, argv, capsys)
    assert _exit_text(main, argv, capsys) == full
    assert full[0] in (0, 2) and full[1] + full[2]


# ---------------------------------------------------------------------------
# the column-block CSV writer against csv.writer


def csv_writer_text(header, columns):
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(zip(*columns))
    return buf.getvalue()


def written(tmp_path, header, columns):
    """The header and body that ``_write_csv`` wrote, line ends included."""
    path = cli._write_csv(types.SimpleNamespace(out=str(tmp_path)), "t",
                          header, columns)
    config, body = path.read_bytes().decode().split("\n", 1)
    assert config.startswith("# schema=hecke-sphere/1 config=")
    return body


B = cli.CSV_BLOCK
FLOATS = [1e-05, 1e16, 0.1, -0.0, math.nan, math.inf, -math.inf,
          2.6666666666666665, 5e-324, 1.7976931348623157e308, 123456789.0]
COLUMNS = {
    "int list": [-7, 0, 3, 2 ** 70, -2 ** 70],
    "int64 table": np.arange(-40, 40).repeat(3),
    "int64 wide": np.array([-2 ** 62, 0, 2 ** 62, 5, -1]),
    "int32 table": np.arange(5, 25, dtype=np.int32).repeat(2),
    "int8 full range": np.tile(np.arange(-128, 128, dtype=np.int8), 2),
    "uint64": np.array([0, 2 ** 64 - 1, 7], dtype=np.uint64),
    "one value": np.full(10, -3),
    "float list": FLOATS,
    "float64": np.array(FLOATS),
    "np.float64 scalars": [np.float64(v) for v in FLOATS],
    "float32": np.array([0.1, 1e-05, -0.0, math.nan, 1e16], dtype=np.float32),
    "longdouble": np.array([0.1, 1 / 3], dtype=np.longdouble),
    "bool list": [True, False, True],
    "bool array": np.array([False, True]),
    "numpy scalars": [np.int64(-5), np.int32(6), np.bool_(True)],
    "str": ["singlebound", "intbound", "a b", " x", "", "sp\u00e9ctral"],
    "str array": np.array(["theta", "spectral"]),
    "object array": np.array([1, 0.5, "x"], dtype=object),
    # equal (and equally hashed) values whose text differs
    "equal values": [0.0, -0.0, 1, True, 1.0, np.float64(-0.0)],
}


@pytest.mark.parametrize("name", COLUMNS)
def test_write_csv_matches_csv_writer(tmp_path, name):
    col = COLUMNS[name]
    columns = [col, np.arange(len(col)), list(col)[::-1]]
    assert (written(tmp_path, ["v", "i", "rev"], columns)
            == csv_writer_text(["v", "i", "rev"], columns))


@pytest.mark.parametrize("rows", [0, 1, B - 1, B, B + 1, 2 * B + 5])
def test_write_csv_block_edges(tmp_path, rows):
    k = np.arange(1, rows + 1)
    columns = [["singlebound"] * rows, k % 7, np.sqrt(k), k * 10 ** 12]
    header = ["family", "R", "root", "big"]
    body = written(tmp_path, header, columns)
    assert body == csv_writer_text(header, columns)
    assert body.count("\r\n") == rows + 1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(), st.integers(-2 ** 70, 2 ** 70),
                          st.integers(-3, 3)), max_size=40))
def test_write_csv_matches_csv_writer_on_random_values(tmp_path_factory, rows):
    tmp_path = tmp_path_factory.mktemp("csv")
    columns = [[r[i] for r in rows] for i in range(3)]
    columns.append(np.array(columns[2], dtype=np.int64))
    header = ["x", "big", "small", "small64"]
    assert written(tmp_path, header, columns) == csv_writer_text(header, columns)


@pytest.mark.parametrize("bad", ["a,b", 'say "x"', "cr\r", "lf\n", "\r\n", None])
@pytest.mark.parametrize("where", [0, B + 3])
def test_write_csv_refuses_fields_that_need_quoting(tmp_path, bad, where):
    # csv.writer would quote these (or write None as ""); refused instead,
    # in any block, and no partial file is left
    col = ["ok"] * (B + 10)
    col[where] = bad
    # a list, an object array and a numpy str array (object with None)
    for column in (col, np.array(col, dtype=object), np.array(col)):
        with pytest.raises(ValueError):
            written(tmp_path, ["s", "i"], [column, np.arange(len(col))])
        assert not (tmp_path / "t.csv").exists()
    with pytest.raises(ValueError):
        written(tmp_path, ["s", bad], [["ok"], [1]])


def test_write_csv_refuses_ragged_or_narrow_tables(tmp_path):
    with pytest.raises(ValueError):
        written(tmp_path, ["a", "b"], [[1, 2], [3]])
    with pytest.raises(ValueError):
        written(tmp_path, ["a", "b"], [[1, 2]])
    # a one-column row holding "" is the one case csv.writer quotes
    with pytest.raises(ValueError):
        written(tmp_path, ["a"], [[""]])
