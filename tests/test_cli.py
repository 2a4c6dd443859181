"""CLI: element grammar, subcommands, exit codes, deterministic reports."""

import dataclasses
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pflab import FieldContext, ParitySet, ParseError, build_quadratic_family
from pflab import bilinear, cli, quadratic, quaternion
from pflab.cli import _MAX_EXPONENT, _read_forms, main, parse_element

GOLDEN_FORMS = Path(__file__).resolve().parent / "golden" / "common_factor_forms.json"


@pytest.fixture
def ctx2():
    return FieldContext(2)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestGrammar:
    def test_simple_variable(self, ctx2):
        assert parse_element("a1", ctx2) == ctx2.gens[0]

    def test_full_fraction(self, ctx2):
        a1, a2 = ctx2.gens
        assert parse_element("a1^3+a2 / a1", ctx2) == (a1**3 + a2) / a1

    def test_products(self, ctx2):
        a1, a2 = ctx2.gens
        assert parse_element("a1*a2", ctx2) == a1 * a2
        assert parse_element("a1 a2", ctx2) == a1 * a2
        assert parse_element("a1^2a2", ctx2) == a1**2 * a2

    def test_integers(self, ctx2):
        assert parse_element("0", ctx2) == ctx2.zero
        assert parse_element("1+1", ctx2) == ctx2.zero
        assert parse_element("3", ctx2) == ctx2.one
        assert parse_element("1+a1", ctx2) == ctx2.one + ctx2.gens[0]
        # read mod 2 from the last digit, at any length
        assert parse_element(f"a1*{'1' * 5000}", ctx2) == ctx2.gens[0]
        assert parse_element(f"{'1' * 4999}2", ctx2) == ctx2.zero
        assert parse_element(f"{'9' * 5000}", ctx2) == ctx2.one

    def test_dense_fraction_round_trip(self, ctx2):
        f = parse_element("a1^3+a2 / a1", ctx2)
        assert parse_element(str(f), ctx2) == f

    @pytest.mark.parametrize(
        "text,position",
        [
            ("a1^", 3),
            ("a9", 0),
            ("a1++a2", 3),
            ("a1$", 2),
            ("", 0),
            ("/a1", 0),
            ("a1 / 0", 3),
            ("a1 a2 +", 7),
            pytest.param(f"a1^{'1' * 5000}", 3, id="long-exponent"),
            pytest.param(f"a2 + a{'1' * 5000}", 5, id="long-index"),
        ],
    )
    def test_error_positions(self, ctx2, text, position):
        with pytest.raises(ParseError) as err:
            parse_element(text, ctx2)
        assert err.value.position == position
        assert f"(position {position})" in str(err.value)

    def test_exponent_limit(self, ctx2):
        # the limit holds on the stored element, after a common monomial
        # factor of numerator and denominator cancels
        a1 = ctx2.gens[0]
        assert parse_element(f"a1^{_MAX_EXPONENT}", ctx2) == a1**_MAX_EXPONENT
        stored = parse_element(f"a1^{_MAX_EXPONENT + 1}/a1", ctx2)
        assert stored.num == (a1**_MAX_EXPONENT).num and stored.den.is_one()
        half = _MAX_EXPONENT // 2 + 1
        for text in (
            f"a1^{_MAX_EXPONENT + 1}",
            f"a1^{_MAX_EXPONENT + 2}/a1",
            f"a1^{half}*a1^{half}",
            f"a2 a1^{half} a1^{half}",
            f"1/a1^{half}*a1^{half}",
        ):
            with pytest.raises(ParseError, match=f"limit {_MAX_EXPONENT}"):
                parse_element(text, ctx2)

    def test_leading_zeros(self, ctx2):
        # the digit guards count significant digits only
        a1, a2 = ctx2.gens
        assert parse_element(f"a1^0{_MAX_EXPONENT}", ctx2) == a1**_MAX_EXPONENT
        assert parse_element("a1^000", ctx2) == ctx2.one
        assert parse_element(f"a1^{'0' * 5000}1", ctx2) == a1
        assert parse_element("a02", ctx2) == a2

    def test_trailing_junk(self, ctx2):
        with pytest.raises(ParseError):
            parse_element("a1 / a2 / a1", ctx2)

    @pytest.mark.parametrize("text", ["a\u0661", "a1^\u0662", "\u0663", "a1 + \uff11"])
    def test_digits_are_ascii(self, ctx2, text):
        # other scripts' digits are refused: "a\u0661" is not a1
        with pytest.raises(ParseError, match="unexpected character"):
            parse_element(text, ctx2)


class TestBilinearFamily:
    def test_verify_valid(self, capsys):
        code, report = run_json(capsys, "bilinear-family", "--n", "2", "--verify")
        assert code == 0
        assert report["verdict"] == "VALID"
        assert report["evidence"]["common_slot_space_dim"] == 0
        assert all(report["evidence"]["checks"].values())

    def test_subset_shared_slot(self, capsys):
        code, report = run_json(
            capsys, "bilinear-family", "--n", "2", "--subset", "0,1,2"
        )
        assert code == 0
        assert report["verdict"] == "VALID"
        assert report["evidence"]["common_slots"] == ["a1*a2"]

    def test_subset_full_family_negative(self, capsys):
        code, report = run_json(
            capsys, "bilinear-family", "--n", "2", "--subset", "0,1,2,3"
        )
        assert code == 1
        assert report["verdict"] == "NOT_VALID"
        assert report["evidence"]["common_slot_space_dim"] == 0

    def test_subset_whole_family_n6(self, capsys):
        # every member proved as --verify proves it, then the empty common
        # slot space read off the 64 masks, with no intersection taken
        subset = ",".join(str(i) for i in range(64))
        started = time.monotonic()
        code, report = run_json(capsys, "bilinear-family", "--n", "6", "--subset", subset)
        elapsed = time.monotonic() - started
        assert code == 1
        assert report["verdict"] == "NOT_VALID"
        assert report["evidence"]["common_slot_space_dim"] == 0
        assert elapsed < 30.0, f"took {elapsed:.2f}s (budget 30s)"

    def test_bad_n(self, capsys):
        assert main(["bilinear-family", "--n", "1"]) == 2

    def test_n_above_cap(self, capsys):
        assert main(["bilinear-family", "--n", "15"]) == 2

    def test_subset_up_to_n14(self, capsys):
        # --subset takes n up to 14, as --verify does: the same member
        # proofs, then 2^n - 2 common slots read off two masks
        for n, budget in ((9, 5.0), (14, 8.0)):
            started = time.monotonic()
            code, report = run_json(capsys, "bilinear-family", "--n", str(n), "--subset", "0,1")
            elapsed = time.monotonic() - started
            assert code == 0
            assert report["verdict"] == "VALID"
            assert report["evidence"]["common_slot_space_dim"] == 2**n - 2
            assert len(report["evidence"]["common_slots"]) == 2**n - 2
            assert elapsed < budget, f"n={n} took {elapsed:.2f}s (budget {budget}s)"

    @pytest.mark.parametrize(
        "proof, result",
        [("_member_spans_claim", False), ("_transported", set())],
        ids=["_member_spans_claim", "_transported"],
    )
    def test_subset_member_failing_its_proof(self, capsys, monkeypatch, proof, result):
        # a spanned member whose products miss its claim, or a transported
        # one whose slots are not R's image, stops --subset as it stops
        # --verify, even when the subset does not name it
        monkeypatch.setattr(bilinear, proof, lambda *args: result)
        code, report = run_json(capsys, "bilinear-family", "--n", "3", "--subset", "0,1")
        assert code == 2
        assert report["verdict"] == "ERROR"
        assert report["evidence"]["error_type"] == "IdentityFailed"

    def test_plain_listing_n10(self, capsys):
        code, report = run_json(capsys, "bilinear-family", "--n", "10")
        assert code == 0
        assert len(report["evidence"]["forms"]) == 1024

    def test_listing_above_its_cap(self, capsys):
        # --verify takes n=11 to 14; the plain listing of 2^n forms' exponent
        # vectors is refused there before the family is built
        for n in ("11", "14"):
            started = time.monotonic()
            code, report = run_json(capsys, "bilinear-family", "--n", n)
            elapsed = time.monotonic() - started
            assert code == 2
            assert report["verdict"] == "ERROR"
            assert "listing takes n up to 10" in report["evidence"]["error"]
            assert elapsed < 5.0, f"n={n} took {elapsed:.2f}s (budget 5s)"

    @pytest.mark.parametrize("subset", ["0," + "9" * 5001, "0," + "9" * 4000])
    def test_huge_subset_index_short_message(self, capsys, subset):
        # a 5,001-digit index fails int() and a 4,000-digit one is out of
        # range; either way the message abbreviates it, as parse_element
        # does, instead of echoing thousands of digits
        code, report = run_json(capsys, "bilinear-family", "--n", "3", "--subset", subset)
        assert code == 2
        assert report["verdict"] == "ERROR"
        assert report["evidence"]["error_type"] == "ParseError"
        assert len(report["evidence"]["error"]) < 200

    def test_verify_with_subset_refused(self, capsys):
        # --verify certifies the whole family and --subset a subfamily, so
        # the pair is refused; an ERROR report carries no inputs
        code, report = run_json(
            capsys, "bilinear-family", "--n", "3", "--subset", "0,1", "--verify"
        )
        assert code == 2
        assert report["verdict"] == "ERROR"
        assert report["inputs"] == {}
        error = report["evidence"]["error"]
        assert "--verify" in error and "--subset" in error

    def test_bad_subset_index(self, capsys):
        code, report = run_json(
            capsys, "bilinear-family", "--n", "2", "--subset", "0,9"
        )
        assert code == 2
        assert report["verdict"] == "ERROR"

    @pytest.mark.parametrize(
        "subset", ["1_0, +3", "+1", "-0", "0,\u0663", "0x1", "1 2", "0,1.0"]
    )
    def test_subset_index_digits_only(self, capsys, subset):
        # int() would read "1_0, +3" as members 10 and 3; each index is
        # ASCII digits, read by the grammar of an exponent
        code, report = run_json(capsys, "bilinear-family", "--n", "4", "--subset", subset)
        assert code == 2
        assert report["verdict"] == "ERROR"
        assert report["evidence"]["error_type"] == "ParseError"

    def test_subset_whitespace_around_commas(self, capsys):
        # whitespace around an index, leading zeros and empty parts are kept
        code, report = run_json(
            capsys, "bilinear-family", "--n", "3", "--subset", " 0 ,\t01,, 2 ,"
        )
        _, plain = run_json(capsys, "bilinear-family", "--n", "3", "--subset", "0,1,2")
        assert code == 0
        assert report["inputs"]["subset"] == " 0 ,\t01,, 2 ,"
        assert report["evidence"] == plain["evidence"]

    def test_empty_subset(self, capsys):
        code, report = run_json(capsys, "bilinear-family", "--n", "3", "--subset", ",")
        assert code == 2
        assert report["evidence"]["error_type"] == "ParseError"
        assert "empty subset" in report["evidence"]["error"]

    def test_plain_listing(self, capsys):
        code, report = run_json(capsys, "bilinear-family", "--n", "2")
        assert code == 0
        assert len(report["evidence"]["forms"]) == 4


class TestCounts:
    @pytest.mark.parametrize(
        "argv",
        [
            ("bilinear-family", "--n", "0_4"),
            ("bilinear-family", "--n", "+4"),
            ("bilinear-family", "--n", " 4"),
            ("bilinear-family", "--n", "\u0664"),
            ("bilinear-family", "--n", "4" * 5000),
            ("quadratic-family", "--n", "0_3"),
            ("quat-triple", "--alpha", "a1", "--beta", "a2", "--n", "+2"),
            ("common-factor", "--m", "+1", "--forms", str(GOLDEN_FORMS)),
            ("common-factor", "--m", "1_0", "--forms", str(GOLDEN_FORMS)),
        ],
        ids=[
            "n-underscore",
            "n-sign",
            "n-space",
            "n-arabic-indic",
            "n-5000-digits",
            "quadratic-n-underscore",
            "quat-n-sign",
            "m-sign",
            "m-underscore",
        ],
    )
    def test_digits_only(self, capsys, argv):
        # argparse's type=int would read "0_4" as 4; --n and --m take ASCII
        # digits, and anything else is a short usage error with no report
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "expected digits 0-9" in captured.err and len(captured.err) < 1000

    def test_leading_zeros(self, capsys):
        code, report = run_json(capsys, "bilinear-family", "--n", "03")
        assert code == 0
        assert report["inputs"]["n"] == 3


class TestCommonFactor:
    def test_witness(self, capsys, tmp_path):
        forms = {"n": 2, "forms": [["a1", "a2"], ["a1", "1+a2"]]}
        path = tmp_path / "forms.json"
        path.write_text(json.dumps(forms))
        code, report = run_json(
            capsys, "common-factor", "--m", "1", "--forms", str(path)
        )
        assert code == 0
        assert report["evidence"]["rho"] == "<<a1>>_b"

    def test_object_form_input(self, capsys, tmp_path):
        ctx = FieldContext(2)
        from pflab import BilinearPfister

        form = BilinearPfister(ctx, ctx.gens)
        forms = {"n": 2, "forms": [form.to_json(), ["a1", "1+a2"]]}
        path = tmp_path / "forms.json"
        path.write_text(json.dumps(forms))
        code, report = run_json(
            capsys, "common-factor", "--m", "1", "--forms", str(path)
        )
        assert code == 0

    def test_no_witness(self, capsys, tmp_path):
        forms = {
            "n": 2,
            "forms": [
                ["a1", "a2"],
                ["a2", "1+a1"],
                ["a1", "1+a2"],
                ["a2", "1+a1*a2"],
            ],
        }
        path = tmp_path / "forms.json"
        path.write_text(json.dumps(forms))
        code, report = run_json(
            capsys, "common-factor", "--m", "1", "--forms", str(path)
        )
        assert code == 1
        assert report["evidence"]["witness"] is None

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, report = run_json(
            capsys, "common-factor", "--m", "1", "--forms", str(path)
        )
        assert code == 2

    def test_deeply_nested_json(self, capsys, tmp_path):
        # the decoder's recursion limit is an input error, not a traceback
        # or exit 1, which means a valid NOT_VALID result
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, report = run_json(
            capsys, "common-factor", "--m", "1", "--forms", str(path)
        )
        assert code == 2
        assert report["verdict"] == "ERROR"
        assert report["evidence"]["error_type"] == "ValueError"
        assert "nests too deeply" in report["evidence"]["error"]

    def test_missing_file(self, capsys):
        code, report = run_json(
            capsys, "common-factor", "--m", "1", "--forms", "/definitely/absent"
        )
        assert code == 2

    def test_bad_m(self, capsys, tmp_path):
        forms = {"n": 2, "forms": [["a1", "a2"]]}
        path = tmp_path / "forms.json"
        path.write_text(json.dumps(forms))
        code, report = run_json(
            capsys, "common-factor", "--m", "2", "--forms", str(path)
        )
        assert code == 2

    def test_grammar_error_position_reported(self, capsys, tmp_path):
        forms = {"n": 2, "forms": [["a1", "a5"]]}
        path = tmp_path / "forms.json"
        path.write_text(json.dumps(forms))
        code, report = run_json(
            capsys, "common-factor", "--m", "1", "--forms", str(path)
        )
        assert code == 2
        assert "position" in report["evidence"]["error"]

    @pytest.mark.parametrize("n", [40, 0, 3.7, True])
    def test_n_outside_budget(self, capsys, tmp_path, n):
        # n is checked before FieldContext(n) builds its 2^n patterns
        forms = {"n": n, "forms": [["a1", "a2", "a3"]]}
        path = tmp_path / "forms.json"
        path.write_text(json.dumps(forms))
        started = time.monotonic()
        code, report = run_json(
            capsys, "common-factor", "--m", "1", "--forms", str(path)
        )
        assert time.monotonic() - started < 1.0
        assert code == 2
        assert report["evidence"]["error_type"] == "ValueError"
        assert "1..6" in report["evidence"]["error"]

    def test_more_slots_than_variables(self, capsys, tmp_path):
        # 18 slots over n=2: refused as isotropic before any of the 2^18
        # product rows is built
        path = tmp_path / "forms.json"
        path.write_text(json.dumps({"n": 2, "forms": [["a1"] * 18]}))
        started = time.monotonic()
        code, report = run_json(capsys, "common-factor", "--m", "1", "--forms", str(path))
        assert time.monotonic() - started < 1.0
        assert code == 2
        assert report["evidence"]["error_type"] == "IsotropicInput"
        assert "is isotropic" in report["evidence"]["error"]

    @pytest.mark.parametrize(
        "data, n",
        [
            ({"n": 2, "forms": [["a1", "a1"]]}, 2),
            ({"n": 40, "forms": [["a1", "a1"]]}, 0),
            ({"forms": [["a1", "a1"]]}, 0),
        ],
        ids=["isotropic", "n-invalid", "n-missing"],
    )
    def test_error_report_carries_valid_n(self, capsys, tmp_path, data, n):
        # once the forms file's n is validated, an error report carries it
        path = tmp_path / "forms.json"
        path.write_text(json.dumps(data))
        code, report = run_json(capsys, "common-factor", "--m", "1", "--forms", str(path))
        assert code == 2
        assert report["verdict"] == "ERROR"
        assert report["field"]["n"] == n

    @pytest.mark.parametrize(
        "forms, named",
        [
            (5, "'forms' must be a list"),
            ([[1, 2]], "entry 0"),
            ([["a1", "a2"], 5], "entry 1"),
            ([{"type": "bilinear_pfister"}], "entry 0"),
            ([{"type": "bilinear_pfister", "slots": [{"num": 5, "den": []}]}], "'num'"),
            # JSON booleans are Python ints; read as 1 and 0 the slot would be a1
            (
                [
                    {
                        "type": "bilinear_pfister",
                        "slots": [{"num": [[True, 0, 0]], "den": [[0, 0, 0]]}],
                    }
                ],
                "'num' must be a list of integer exponent lists",
            ),
        ],
    )
    def test_malformed_forms(self, capsys, tmp_path, forms, named):
        path = tmp_path / "forms.json"
        path.write_text(json.dumps({"n": 3, "forms": forms}))
        code, report = run_json(
            capsys, "common-factor", "--m", "1", "--forms", str(path)
        )
        assert code == 2
        assert report["evidence"]["error_type"] == "ValueError"
        assert named in report["evidence"]["error"]


    @pytest.mark.parametrize(
        "slot",
        [
            "a1^10000000",
            {"num": [[10000000, 0, 0], [0, 0, 0]], "den": [[1, 0, 0], [0, 0, 0]]},
            f"a1^{_MAX_EXPONENT + 2}/a1",
            {"num": [[_MAX_EXPONENT + 2, 0, 0]], "den": [[1, 0, 0]]},
            f"a1^{_MAX_EXPONENT // 2 + 1}*a1^{_MAX_EXPONENT // 2 + 1}",
            {"num": [[_MAX_EXPONENT + 2, 0, 0]], "den": [[0, 0, 0]]},
        ],
        ids=["string", "object", "quotient", "quotient-object", "product", "product-object"],
    )
    def test_exponent_outside_budget(self, capsys, tmp_path, slot):
        # refused on the stored element, before anything is reduced
        if isinstance(slot, str):
            form = [slot, "a2", "a3"]
        else:
            a2 = {"num": [[0, 1, 0]], "den": [[0, 0, 0]]}
            form = {"type": "bilinear_pfister", "slots": [slot, a2]}
        path = tmp_path / "forms.json"
        path.write_text(json.dumps({"n": 3, "forms": [["a1", "a2", "a3"], form]}))
        started = time.monotonic()
        code, report = run_json(
            capsys, "common-factor", "--m", "1", "--forms", str(path)
        )
        assert time.monotonic() - started < 1.0
        assert code == 2
        assert f"limit {_MAX_EXPONENT}" in report["evidence"]["error"]

    @pytest.mark.parametrize(
        "slot",
        [f"a1^{_MAX_EXPONENT + 1}/a1", {"num": [[_MAX_EXPONENT + 1, 0, 0]], "den": [[1, 0, 0]]}],
        ids=["string", "object"],
    )
    def test_exponent_inside_budget_once_stored(self, slot):
        # a1^65/a1 is stored as a1^64 and accepted, from either entry kind;
        # a1^64 is a square, so the form is read here and not searched
        ctx = FieldContext(3)
        entry = [slot] if isinstance(slot, str) else {"type": "bilinear_pfister", "slots": [slot]}
        (form,) = _read_forms(ctx, [entry])
        assert form.slots == (ctx.gens[0] ** _MAX_EXPONENT,)


class TestQuadraticFamily:
    def test_verify(self, capsys):
        code, report = run_json(capsys, "quadratic-family", "--n", "2", "--verify")
        assert code == 0
        assert report["verdict"] == "VALID"
        assert report["evidence"]["contr_failures"] == 0
        assert report["evidence"]["contr_trials_per_form"] == 3
        assert report["evidence"]["max_degree"] is None
        assert report["evidence"]["certificate"]["valid"] is True

    def test_listing(self, capsys):
        code, report = run_json(capsys, "quadratic-family", "--n", "2")
        assert code == 0
        assert len(report["evidence"]["forms"]) == 3

    def test_n_above_cap(self, capsys):
        code, _ = run(capsys, "quadratic-family", "--n", "9", "--verify")
        assert code == 2

    @pytest.mark.parametrize("value", ["1", "lots"])
    def test_max_degree_env_ignored(self, capsys, monkeypatch, value):
        # the 2-dimensional step is exact, so no sampling knob is read
        _, plain = run(capsys, "quadratic-family", "--n", "2", "--verify")
        monkeypatch.setenv("PFLAB_MAX_DEGREE", value)
        code, out = run(capsys, "quadratic-family", "--n", "2", "--verify")
        assert code == 0
        assert out == plain

    def test_two_dim_failure_is_not_valid(self, capsys, monkeypatch):
        last = build_quadratic_family(2)[-1]
        monkeypatch.setattr(
            quadratic, "zero_parity_diagonal_count", lambda form: int(form == last)
        )
        code, report = run_json(capsys, "quadratic-family", "--n", "2", "--verify")
        assert code == 1
        assert report["verdict"] == "NOT_VALID"
        evidence = report["evidence"]
        assert evidence["contr_failures"] == 1
        assert evidence["checks"] == {
            "hypothesis_all_pass": True,
            "pure_parity_images_miss_only_quad_slot": True,
            "intersection_zero_only": True,
            "two_dim_subspaces_hit_nonzero_parity": False,
        }


    @pytest.mark.parametrize("failing", ["hypothesis_all_pass", "intersection_zero_only"])
    def test_failing_certificate_check_is_not_valid(self, capsys, monkeypatch, failing):
        # the verdict is read off the checks alone, so a certificate check
        # that fails must reach it through them
        real = quadratic.insep_obstruction

        def broken(family):
            cert = real(family)
            if failing == "hypothesis_all_pass":
                checks = (False,) + cert.hypothesis_checks[1:]
                return dataclasses.replace(cert, hypothesis_checks=checks)
            group = ParitySet.of(cert.n, itertools.product((0, 1), repeat=cert.n))
            return dataclasses.replace(cert, intersection=group)

        monkeypatch.setattr(quadratic, "insep_obstruction", broken)
        code, report = run_json(capsys, "quadratic-family", "--n", "2", "--verify")
        assert code == 1
        assert report["verdict"] == "NOT_VALID"
        checks = report["evidence"]["checks"]
        assert [key for key, ok in checks.items() if not ok] == [failing]
        assert report["evidence"]["certificate"]["valid"] is False


class TestQuatTriple:
    def test_valid(self, capsys):
        code, report = run_json(
            capsys, "quat-triple", "--alpha", "a1", "--beta", "a2"
        )
        assert code == 0
        assert report["verdict"] == "VALID"
        assert report["evidence"]["certificate"]["intersection"] == [[0, 0]]

    def test_triple_built_once(self, capsys, monkeypatch):
        calls = []
        real = quaternion.build_quat_triple

        def counted(alpha, beta):
            calls.append((alpha, beta))
            return real(alpha, beta)

        monkeypatch.setattr(quaternion, "build_quat_triple", counted)
        monkeypatch.setattr(cli, "build_quat_triple", counted)
        code, _ = run(capsys, "quat-triple", "--alpha", "a1", "--beta", "a2")
        assert code == 0
        assert len(calls) == 1

    def test_parity_failure(self, capsys):
        code, report = run_json(
            capsys, "quat-triple", "--alpha", "a1", "--beta", "a1"
        )
        assert code == 2
        assert "parity independence failed" in report["evidence"]["error"]

    @pytest.mark.parametrize(
        "alpha, error",
        [("0", "alpha and beta must be nonzero"), ("1/a1", "must have negative values")],
        ids=["zero", "no-negative-value"],
    )
    def test_hypothesis_failed(self, capsys, alpha, error):
        code, report = run_json(capsys, "quat-triple", "--alpha", alpha, "--beta", "a2")
        assert code == 2
        assert report["evidence"]["error_type"] == "HypothesisFailed"
        assert error in report["evidence"]["error"]

    def test_parse_error(self, capsys):
        code, report = run_json(
            capsys, "quat-triple", "--alpha", "a1^", "--beta", "a2"
        )
        assert code == 2
        assert report["evidence"]["error_type"] == "ParseError"


    def test_exponent_outside_budget(self, capsys):
        started = time.monotonic()
        code, report = run_json(
            capsys, "quat-triple", "--alpha", "a1^10000000", "--beta", "a2"
        )
        assert time.monotonic() - started < 1.0
        assert code == 2
        assert report["evidence"]["error_type"] == "ParseError"
        assert f"limit {_MAX_EXPONENT}" in report["evidence"]["error"]


class TestReports:
    def test_byte_identical_runs(self, capsys):
        _, first = run(capsys, "quadratic-family", "--n", "2", "--verify")
        _, second = run(capsys, "quadratic-family", "--n", "2", "--verify")
        assert first == second

    def test_timing_off_by_default(self, capsys):
        _, report = run_json(capsys, "bilinear-family", "--n", "2")
        assert report["timing"] is None

    def test_timing_opt_in(self, capsys):
        _, report = run_json(capsys, "bilinear-family", "--n", "2", "--timing")
        assert report["timing"] is not None
        assert report["timing"]["seconds"] >= 0

    @pytest.mark.parametrize(
        "argv",
        [
            ("common-factor", "--m", "1", "--forms", str(GOLDEN_FORMS)),
            ("quadratic-family", "--n", "2", "--verify"),
            ("quat-triple", "--alpha", "a1", "--beta", "a2"),
        ],
        ids=["common-factor", "quadratic-family", "quat-triple"],
    )
    def test_timing_other_subcommands(self, capsys, argv):
        # bilinear-family is test_timing_opt_in
        code, report = run_json(capsys, *argv, "--timing")
        assert code == 0
        assert set(report["timing"]) == {"seconds"}
        assert report["timing"]["seconds"] >= 0

    def test_error_keeps_timing_null(self, capsys):
        code, report = run_json(
            capsys, "quat-triple", "--alpha", "a1", "--beta", "a1", "--timing"
        )
        assert code == 2
        assert report["verdict"] == "ERROR"
        assert report["timing"] is None

    def test_schema_fields(self, capsys):
        _, report = run_json(capsys, "bilinear-family", "--n", "2")
        assert set(report) == {
            "command",
            "version",
            "field",
            "inputs",
            "verdict",
            "evidence",
            "timing",
        }
        assert report["field"] == {"base": "GF(2)", "n": 2}

    def test_text_format(self, capsys):
        code, out = run(capsys, "bilinear-family", "--n", "2", "--format", "text")
        assert code == 0
        assert out.startswith("command: bilinear-family")
        assert "verdict: VALID" in out

    def test_text_timing_is_json(self, capsys):
        # every value line of the text format is JSON, the timing line too
        code, out = run(
            capsys, "bilinear-family", "--n", "2", "--verify", "--format", "text", "--timing"
        )
        assert code == 0
        [line] = [line for line in out.splitlines() if line.startswith("timing: ")]
        timing = json.loads(line[len("timing: ") :])
        assert set(timing) == {"seconds"} and timing["seconds"] >= 0

    def test_no_command(self, capsys):
        assert main([]) == 2


def close_early(argv) -> tuple[bytes, int, bytes]:
    """The first 64 bytes of the console script's stdout, read before the
    pipe is closed, then its exit code and stderr."""
    program = "from pflab.cli import console_main; console_main()"
    proc = subprocess.Popen(
        [sys.executable, "-c", program, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    head = proc.stdout.read(64)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return head, proc.wait(timeout=60), err


class TestClosedPipe:
    def test_early_close_ends_quietly(self):
        # the n=6 certificate is 0.9 MB of JSON, far more than a pipe
        # buffers, so the write fails once the reader has gone
        head, code, err = close_early(["quadratic-family", "--n", "6", "--verify"])
        assert head.startswith(b"{")
        assert code == 141
        assert err == b""

    @pytest.mark.parametrize(
        "argv, start",
        [
            (["quadratic-family", "--n", "8", "--verify"], b"{"),
            (["quadratic-family", "--n", "6", "--verify", "--format", "text"], b"command: "),
        ],
        ids=["json-n8", "text-n6"],
    )
    def test_early_close_streamed(self, argv, start):
        # the n=8 report is 18.8 MB, written in five batches; the text
        # report is written line by line
        head, code, err = close_early(argv)
        assert head.startswith(start)
        assert code == 141
        assert err == b""
