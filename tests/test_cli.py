import dataclasses
import json

import pytest

from hecke_sphere import hecke
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
def test_hecke_check_refuses_bad_primes(tmp_path, primes):
    # refused before any report is written, not reported as a failed relation
    with pytest.raises(SystemExit, match="--primes"):
        run(tmp_path, "hecke-check", "--n", "4", "--primes", primes)
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


def test_spectral_records_seed_used(tmp_path, monkeypatch):
    from hecke_sphere import hecke

    assert run(tmp_path, "spectral", "--n", "4", "--seed", "3") == 0
    doc = json.loads((tmp_path / "spectral-4.json").read_text())
    assert doc["seed_used"] == hecke.decompose(4, seed=3).seed == 3

    # a DegeneracyError on the requested seed makes decompose re-draw
    solve = hecke.joint_eigenspaces

    def degenerate_at_3(n, primes, even_extras, seed):
        if seed == 3:
            raise hecke.DegeneracyError("forced")
        return solve(n, primes, even_extras, seed=seed)

    monkeypatch.setattr(hecke, "joint_eigenspaces", degenerate_at_3)
    assert run(tmp_path, "spectral", "--n", "4", "--seed", "3") == 0
    doc = json.loads((tmp_path / "spectral-4.json").read_text())
    assert doc["seed_used"] == hecke.decompose(4, seed=3).seed == 4


def test_pretrace_check(tmp_path):
    assert run(tmp_path, "pretrace-check", "--n", "4", "--pairs", "20") == 0


def test_theta_identity_small(tmp_path):
    assert run(tmp_path, "theta-identity", "--n", "2", "--cutoff", "6") == 0
    lines = (tmp_path / "theta-identity.csv").read_text().splitlines()
    assert len(lines) == 2 + 2 * 6


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


def test_precision_flag_only_on_petersson(tmp_path):
    assert run(tmp_path, "petersson", "--n", "8", "--cutoff", "80",
               "--precision", "extended") == 0
    header = (tmp_path / "petersson.csv").read_text().splitlines()[0]
    assert '"precision": "extended"' in header
    with pytest.raises(SystemExit):
        run(tmp_path, "moments", "--n", "4", "--precision", "extended")
    # every subcommand registers only the flags it reads
    for argv in (("shells", "--k", "1", "--seed", "1"),
                 ("basis", "--n", "2", "--primes", "3,5"),
                 ("hecke-check", "--n", "2", "--seed", "1"),
                 ("spectral", "--n", "4", "--grid", "100"),
                 ("pretrace-check", "--n", "4", "--cutoff", "10"),
                 ("theta-identity", "--n", "2", "--grid", "100"),
                 ("modularity", "--n", "4", "--primes", "3,5"),
                 ("petersson", "--n", "8", "--seed", "1"),
                 ("counting", "--n", "4"),
                 ("moments", "--n", "4", "--cutoff", "10"),
                 ("report", "--n", "8", "--cutoff", "80")):
        with pytest.raises(SystemExit):
            run(tmp_path, *argv)


def test_counting_small(tmp_path):
    assert run(tmp_path, "counting", "--cutoff", "64") == 0
    doc = json.loads((tmp_path / "counting-summary.json").read_text())
    assert doc["pass"] is True


def test_n_range_and_missing_n(tmp_path):
    assert run(tmp_path, "basis", "--n-range", "0:4:2") == 0
    for n in (0, 2, 4):
        assert (tmp_path / f"basis-{n}.json").exists()
    with pytest.raises(SystemExit):
        run(tmp_path, "basis")


@pytest.mark.parametrize("spec", ["8:8:0", "8:4:2", "8:12:-2", "8:12", "a:b:c"])
def test_n_range_refuses_zero_step_and_empty_ranges(tmp_path, spec):
    # refused with a message before any artifact is written
    with pytest.raises(SystemExit, match="--n-range"):
        run(tmp_path, "petersson", "--n-range", spec)
    assert not (tmp_path / "petersson.csv").exists()


def test_petersson_rerun_byte_identical(tmp_path):
    assert run(tmp_path, "petersson", "--n", "8", "--cutoff", "100") == 0
    first = (tmp_path / "petersson.csv").read_bytes()
    assert run(tmp_path, "petersson", "--n", "8", "--cutoff", "100") == 0
    assert (tmp_path / "petersson.csv").read_bytes() == first


def test_moments_rerun_byte_identical(tmp_path):
    args = ("moments", "--n", "4", "--grid", "200", "--seed", "7")
    assert run(tmp_path, *args) == 0
    first = (tmp_path / "moments.csv").read_bytes()
    assert run(tmp_path, *args) == 0
    assert (tmp_path / "moments.csv").read_bytes() == first


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
