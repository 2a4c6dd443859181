"""Smoke test of the runnable scripts against the current library."""

import runpy
from pathlib import Path

import pytest

import pflab.bilinear
import pflab.quadratic

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_reproduce_counterexamples(capsys):
    script = runpy.run_path(str(SCRIPTS / "reproduce_counterexamples.py"))
    assert script["main"](["--max-n", "3"]) == 0
    out = capsys.readouterr().out
    assert "bilinear family, n=3 (8 forms)" in out
    # the 2^n leave-one-out dimensions are summarized, not listed
    assert "leave-one-out subfamilies: 8 of dim 1)" in out
    assert "[1, 1" not in out
    assert "FAIL" not in out
    assert "all checks passed" in out


def test_reproduce_counterexamples_library_error(capsys, monkeypatch):
    # a member that is not R's image under its monomial map stops the
    # bilinear certificate with IdentityFailed: each bilinear section
    # reports it as a labelled FAIL naming the member and exits 1, and the
    # later sections still run
    real = pflab.bilinear.build_no_common_slot_family

    def with_member_off_claim(n):
        # the last member replaced by an anisotropic copy of member 0
        family = real(n)
        family[-1] = family[0]
        return family

    monkeypatch.setattr(pflab.bilinear, "build_no_common_slot_family", with_member_off_claim)
    script = runpy.run_path(str(SCRIPTS / "reproduce_counterexamples.py"))
    assert script["main"](["--max-n", "3"]) == 1
    out = capsys.readouterr().out
    for n in (2, 3):
        assert f"bilinear family, n={n}: raised IdentityFailed" in out
        assert f"member {2**n - 1} is not the image of member 1 under its monomial map" in out
    assert "quadratic family, n=3 (" in out
    assert "2 check(s) failed" in out


def test_reproduce_counterexamples_quadratic_failure(capsys, monkeypatch):
    # one form per family with a zero-parity diagonal value: each
    # quadratic section fails its 2-dimensional check, labelled, and exits 1
    real = pflab.quadratic.zero_parity_diagonal_count
    monkeypatch.setattr(
        pflab.quadratic,
        "zero_parity_diagonal_count",
        lambda form: real(form) + (form.quad_slot == form.ctx.gens[0]),
    )
    script = runpy.run_path(str(SCRIPTS / "reproduce_counterexamples.py"))
    assert script["main"](["--max-n", "2"]) == 1
    out = capsys.readouterr().out
    label = "2-dim subspaces hit nonzero parity (exact)"
    for n in (2, 3):
        section = out.split(f"quadratic family, n={n} (")[1].split("image sizes")[0]
        assert section.count("FAIL") == 1
        assert f"{label:<52} FAIL" in section
    # the summary names each failure with its section, so the ranks differ
    summary = out.split("2 check(s) failed:")[1]
    for n in (2, 3):
        assert f"  - quadratic family, n={n}: {label}\n" in summary
    assert "quaternion triple over GF(2)(a1,a2)" in out


def test_sharing_trials(capsys):
    script = runpy.run_path(str(SCRIPTS / "sharing_trials.py"))
    args = ["--trials", "3", "--family-size", "3", "--m", "2", "--seed", "0"]
    assert script["main"](args) == 0
    out = capsys.readouterr().out
    assert "witness found" in out
    assert "BAD REBUILDS" not in out


def test_reproduce_counterexamples_rank_bound(capsys):
    # --max-n takes 2..14, the ranks bilinear-family --verify takes
    script = runpy.run_path(str(SCRIPTS / "reproduce_counterexamples.py"))
    with pytest.raises(SystemExit) as exc:
        script["main"](["--max-n", "15"])
    assert exc.value.code == 2
    assert "invalid choice: 15" in capsys.readouterr().err
