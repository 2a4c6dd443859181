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


DRAW_0 = ["a1*a2+a2*a3", "a1^2*a2^2*a3^2+a3^2+a3", "a1^2+a1*a3^2+a2"]


def test_hard_inputs_draws_are_deterministic():
    script = runpy.run_path(str(SCRIPTS / "hard_inputs.py"))
    draws = script["draws"](12)
    assert draws == script["draws"](12)
    assert draws[:5] == script["draws"](5)
    # draw 0, pinned: the rule is random.Random(7), three slots of 1 to 3
    # distinct monomials with exponents 0 to 2
    assert draws[0] == {"n": 3, "forms": [DRAW_0, DRAW_0]}
    for i, data in enumerate(draws):
        f, g = data["forms"]
        assert data["n"] == 3 and len(f) == len(g) == 3
        if i % 2 == 0:
            assert f is g


def test_hard_inputs_runs_draws_that_end_at_once(tmp_path):
    # draws 1, 3 and 4 are isotropic and exit 2 at once; draw 6 is VALID
    # in milliseconds.  The draws that run for seconds are left out
    script = runpy.run_path(str(SCRIPTS / "hard_inputs.py"))
    draws = script["draws"](7)
    outcomes = [script["run_draw"](draws[i], 20, str(tmp_path)) for i in (1, 3, 4, 6)]
    assert [o for o, _, _ in outcomes] == ["IsotropicInput"] * 3 + ["VALID"]
    assert all(where == "-" for _, _, where in outcomes)


def test_hard_inputs_prints_a_line_per_draw(capsys, monkeypatch):
    # one line per draw, then the summary; a stand-in for run_draw
    # answers each draw at once
    script = runpy.run_path(str(SCRIPTS / "hard_inputs.py"))
    seen = []

    def answered(data, timeout, workdir):
        seen.append(data)
        return "VALID", 0.0, "-"

    monkeypatch.setitem(script["main"].__globals__, "run_draw", answered)
    assert script["main"](["--draws", "3", "--timeout", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in out[:-1]] == [["0", "VALID"], ["1", "VALID"], ["2", "VALID"]]
    assert out[-1] == "outcomes: VALID 3"
    assert seen == script["draws"](3)


def test_hard_inputs_names_where_a_timeout_stopped(tmp_path, monkeypatch):
    # the exact slot test spins until the alarm fires, whatever the
    # library's speed: the draw times out, and the chain names the library
    # frames outermost first, down to the one the alarm stopped in, with
    # neither the CLI's frames nor the spinning stand-in
    def spin(*args):
        while True:
            pass

    monkeypatch.setattr(pflab.bilinear, "_admissible", spin)
    script = runpy.run_path(str(SCRIPTS / "hard_inputs.py"))
    outcome, seconds, where = script["run_draw"](script["draws"](7)[6], 0.2, str(tmp_path))
    assert outcome == "TIMEOUT" and seconds < 5
    assert where == "common_factor > _complete > _next_slot"
