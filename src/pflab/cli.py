"""Command line front end.

Subcommands build the certified families, search for common factors and
check the quaternion triple.  Each returns its field size, inputs, verdict
and evidence; ``main`` builds every report from them, an error's too, and
prints it.  Reports are JSON (default) or text.  A JSON report is
streamed: ``_write_json`` writes the bytes of json.dumps(report, indent=2)
in batches, so the text of a large certificate is never held as one
string.  Output is deterministic byte-for-byte across runs unless
--timing is given, which fills the report's otherwise-null "timing" field
with wall-clock seconds.  Exit codes: 0 when the certificate is valid or a
witness was found, 1 for a valid run with a negative result, 2 for
invalid input or a failed hypothesis.  A reader that closes the pipe
before the report is written (``pflab ... | head``) ends the run quietly
with 141, the status a shell gives a process killed by SIGPIPE.

Field elements on the command line and in input files use a compact
grammar: ``a1^3+a2 / a1`` is (a1^3 + a2)/a1.  Variables are a1..an,
terms are joined by ``+``, factors by ``*`` (or juxtaposition), a single
top-level ``/`` separates numerator and denominator.  Every integer on
the command line, in an element, a ``--subset`` index, ``--n`` or
``--m``, is ASCII digits (``_short_int``).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import reprlib
import sys
import time
from json.encoder import encode_basestring_ascii as _encode_str

from . import __version__
from .bilinear import (
    BilinearPfister,
    build_no_common_slot_family,
    common_factor,
    _subset_evidence,
    verify_no_common_slot_family,
)
from .errors import ParseError, PflabError
from .field import FieldContext, FieldElement, Poly
from .quadratic import build_quadratic_family, insep_obstruction, verify_quadratic_family
# no caller here any more; the binding stays, since perfbench/tracing.py
# hooks cli._contr_failures and test_deleted_hook_is_absent_not_fatal deletes it
from .quadratic import zero_parity_diagonal_count as _contr_failures  # noqa: F401
from .quaternion import build_quat_triple

__all__ = ["parse_element", "main", "console_main"]

# largest number of variables a command accepts; FieldContext(n) builds
# all 2^n patterns up front, so n is bounded before anything is built.
# The family certificate (--verify) tests the products of two members
# against their hyperplanes, which by the anisotropy lemma proves the
# span, and transports the rest by monomial maps, each read off the two
# columns it moves: a whole CLI run takes about 0.11 s at n=10, 0.21 s
# at n=12, 0.36 s at n=13 and 0.65 to 0.85 s at n=14, at 57 MB, with a
# 148 KB report (leave_one_out_dims has 2^n entries).  --subset runs
# the same proofs under the same bound, then prints 2^n - |S| slots:
# about 0.9 s and 0.5 MB of JSON at n=14 with two members.  The plain
# listing prints every slot's exponent vectors, streamed: 0.4 to 0.5 s
# at 38 MB with 5.8 MB of JSON at n=10, 0.6 s at 48 MB with 14 MB at
# n=11 and 1.4 s at 68 MB with 32 MB at n=12 (10 s at 1.1 GB RSS at n=14
# when the report was one string), so it keeps the bound of 10.
# common-factor has no measured cost beyond n=6, so a forms file keeps the
# smaller bound.  The quadratic certificate reads every parity off the
# slot values: in process it takes about 11 ms at n=6, 43 ms at n=7 and
# 0.22 s at n=8.  A whole --verify run at n=8 takes 0.7 to 0.85 s at
# 56 MB RSS, streaming 18.8 MB of JSON (1.1 to 2.0 s at 140 MB when the
# report was one string).
_MAX_N = 6
# largest exponent of a variable in an element read from the command line
# or a forms file, as stored (see _within_budget).  A large exponent is
# cheap to store but not to reduce: a forms file of 3-fold forms with
# slots like (1 + a1^e) / (1 + a1^3) took about 0.5 s at e=31, 3.6 s at
# e=127 and over 60 s at e=511.  The golden inputs use exponents up to 1.
_MAX_EXPONENT = 64
_MAX_FAMILY_N = 14
_MAX_LISTING_N = 10
_MAX_QUADRATIC_N = 8


# ---------------------------------------------------------------------------
# element grammar
# ---------------------------------------------------------------------------

# ASCII digits only: \d alone also matches other scripts' digits
_TOKEN_RE = re.compile(r"(a\d+)|(\d+)|([+*/^])|(\s+)|(.)", re.ASCII)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks = []
    for m in _TOKEN_RE.finditer(text):
        var, num, op, ws, junk = m.groups()
        if ws:
            continue
        if junk:
            raise ParseError(f"unexpected character {junk!r}", m.start())
        if var:
            toks.append(("VAR", var, m.start()))
        elif num:
            toks.append(("INT", num, m.start()))
        else:
            toks.append(("OP", op, m.start()))
    return toks


class _Cursor:
    def __init__(self, toks: list[tuple[str, str, int]], end: int):
        self.toks = toks
        self.i = 0
        self.end = end

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None, self.end)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok


def _parse_factor(cur: _Cursor, ctx: FieldContext) -> Poly:
    kind, value, pos = cur.take()
    if kind == "VAR":
        index = _short_int(value[1:], ctx.n)
        if index is None or not 1 <= index <= ctx.n:
            raise ParseError(f"unknown variable {reprlib.repr(value)} (n={ctx.n})", pos)
        exp = 1
        k, v, _ = cur.peek()
        if k == "OP" and v == "^":
            cur.take()
            ek, ev, epos = cur.take()
            if ek != "INT":
                raise ParseError("expected an integer exponent after '^'", epos)
            # the value itself is bounded on the stored element, by _within_budget
            exp = _short_int(ev, _MAX_EXPONENT)
            if exp is None:
                raise ParseError(
                    f"exponent {reprlib.repr(ev)} exceeds the limit {_MAX_EXPONENT}", epos
                )
        mono = tuple(exp if j == index - 1 else 0 for j in range(ctx.n))
        return Poly(frozenset((mono,)), ctx.n)
    if kind == "INT":
        # a coefficient is read mod 2, so its last digit decides it
        return ctx._one_poly if value[-1] in "13579" else ctx._zero_poly
    raise ParseError("expected a variable or an integer", pos)


def _short_int(digits: str, bound: int) -> int | None:
    """The value of a string of ASCII digits, or None when it is not one
    or has more significant digits than bound, so it exceeds bound.  The
    one integer grammar of the command line: int() also reads a sign,
    underscores, surrounding spaces and other scripts' digits, and is slow
    on, or refuses, a long digit string, so it never sees one."""
    if not (digits.isascii() and digits.isdigit()):
        return None
    significant = digits.lstrip("0")
    if len(significant) > len(str(bound)):
        return None
    return int(significant or "0")


def _parse_term(cur: _Cursor, ctx: FieldContext) -> Poly:
    """A product of factors, one monomial or 0."""
    poly = _parse_factor(cur, ctx)
    while True:
        kind, value, _ = cur.peek()
        if kind == "OP" and value == "*":
            cur.take()
        elif kind not in ("VAR", "INT"):
            return poly
        poly = poly * _parse_factor(cur, ctx)


def _parse_poly(cur: _Cursor, ctx: FieldContext) -> Poly:
    poly = _parse_term(cur, ctx)
    while True:
        kind, value, _ = cur.peek()
        if kind == "OP" and value == "+":
            cur.take()
            poly = poly + _parse_term(cur, ctx)
        else:
            return poly


def parse_element(text: str, ctx: FieldContext) -> FieldElement:
    """Parse the compact element grammar; raises ParseError with a position,
    and at position 0 for an element outside the exponent budget."""
    cur = _Cursor(_tokenize(text), len(text))
    num = _parse_poly(cur, ctx)
    den = ctx._one_poly
    kind, value, pos = cur.peek()
    if kind == "OP" and value == "/":
        cur.take()
        den = _parse_poly(cur, ctx)
        if not den:
            raise ParseError("denominator is zero", pos)
    kind, value, pos = cur.peek()
    if kind is not None:
        raise ParseError(f"unexpected trailing {value!r}", pos)
    element = FieldElement(ctx, num, den)
    if not _within_budget(element):
        raise ParseError(
            f"an exponent exceeds the limit {_MAX_EXPONENT} "
            "after common monomial factors cancel",
            0,
        )
    return element


def _within_budget(f: FieldElement) -> bool:
    """Whether no exponent of f's stored numerator or denominator exceeds
    _MAX_EXPONENT.  The constructor cancels only a common monomial factor,
    so this is checked before anything is reduced."""
    return max(f.num.max_degrees() + f.den.max_degrees()) <= _MAX_EXPONENT


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _report(command: str, n: int, inputs: dict, verdict: str, evidence: dict, timing):
    return {
        "command": command,
        "version": __version__,
        "field": {"base": "GF(2)", "n": n},
        "inputs": inputs,
        "verdict": verdict,
        "evidence": evidence,
        "timing": timing,
    }


# chunks of report text joined into one write: the 18.8 MB report of
# quadratic-family --n 8 --verify goes out in five writes of up to 4.7 MB
_BATCH = 65_536


def _write_json(value, write) -> None:
    """Write json.dumps(value, indent=2)'s text, without its C encoder's
    help (json.dumps never uses it with an indent), through write in
    batches of _BATCH chunks.  The report holds dicts with str keys,
    lists, str, int, bool, None and float values; any other type raises
    TypeError."""
    chunks: list[str] = []
    _json_chunks(value, chunks, "\n", write)
    write("".join(chunks))


def _json_chunks(value, chunks: list[str], indent: str, write) -> None:
    """Append value's text to chunks, indent being the newline and spaces
    that start value's line; a full batch of chunks is written first."""
    if len(chunks) >= _BATCH:
        write("".join(chunks))
        chunks.clear()
    kind = type(value)
    if kind is dict:
        if not value:
            chunks.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"report key {key!r} is not a str")
            chunks.append(sep + _encode_str(key) + ": ")
            _json_chunks(item, chunks, inner, write)
            sep = "," + inner
        chunks.append(indent + "}")
    elif kind is list:
        if not value:
            chunks.append("[]")
            return
        inner = indent + "  "
        if all(type(item) is int for item in value):
            # parity classes, images and exponent vectors: one join each
            chunks.append(
                "[" + inner + ("," + inner).join(map(int.__repr__, value)) + indent + "]"
            )
            return
        sep = "[" + inner
        for item in value:
            chunks.append(sep)
            _json_chunks(item, chunks, inner, write)
            sep = "," + inner
        chunks.append(indent + "]")
    elif kind is str:
        chunks.append(_encode_str(value))
    elif kind is int:
        chunks.append(int.__repr__(value))
    elif value is None:
        chunks.append("null")
    elif value is True:
        chunks.append("true")
    elif value is False:
        chunks.append("false")
    elif kind is float:
        chunks.append(json.dumps(value))
    else:
        raise TypeError(f"{kind.__name__} is not a report value")


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        _write_json(report, sys.stdout.write)
        # a large write that the reader's closing cuts short can return
        # without an error, so the newline goes on its own: its flush
        # raises BrokenPipeError, which console_main turns into exit 141
        sys.stdout.write("\n")
        return
    print(f"command: {report['command']}")
    print(f"version: {report['version']}")
    print(f"field: GF(2)(a1..a{report['field']['n']})")
    print(f"verdict: {report['verdict']}")
    for key, value in report["evidence"].items():
        print(f"{key}: {json.dumps(value, sort_keys=False)}")
    if report["timing"] is not None:
        print(f"timing: {json.dumps(report['timing'], sort_keys=False)}")


# ---------------------------------------------------------------------------
# subcommands: each returns (n, inputs, verdict, evidence) for main's report
# ---------------------------------------------------------------------------


def _cmd_bilinear_family(args) -> tuple[int, dict, str, dict]:
    n = args.n
    if args.subset is not None and args.verify:
        raise ValueError("--verify certifies the whole family; it does not take --subset")
    inputs = {"n": n, "verify": bool(args.verify), "subset": args.subset}

    if args.verify:
        # the certificate builds the family itself
        evidence = verify_no_common_slot_family(n)
        verdict = "VALID" if all(evidence["checks"].values()) else "NOT_VALID"
        return n, inputs, verdict, evidence

    if args.subset is not None:
        # the --verify proofs, then the common slots read off their masks
        evidence = _subset_evidence(n, _parse_subset(args.subset, 2**n))
        return n, inputs, "VALID" if evidence["common_slots"] else "NOT_VALID", evidence

    if n > _MAX_LISTING_N:
        raise ValueError(
            f"the plain listing takes n up to {_MAX_LISTING_N}, got {n} "
            f"(--verify and --subset take n up to {_MAX_FAMILY_N})"
        )
    return n, inputs, "VALID", {"forms": [f.to_json() for f in build_no_common_slot_family(n)]}


def _parse_subset(raw: str, size: int) -> list[int]:
    """The comma-separated indices of raw, each ASCII digits with optional
    whitespace around it, and each below size."""
    indices = []
    for part in filter(None, map(str.strip, raw.split(","))):
        index = _short_int(part, size - 1)
        if index is None or index >= size:
            raise ParseError(f"subset index {reprlib.repr(part)} is not one of 0..{size - 1}", 0)
        indices.append(index)
    if not indices:
        raise ParseError("empty subset", 0)
    return indices


def _count(text: str) -> int:
    """The argparse type of --n and --m: at most two significant ASCII
    digits, read by _short_int; every n and m a command takes is below 15."""
    value = _short_int(text, 99)
    if value is None:
        raise argparse.ArgumentTypeError(
            f"expected digits 0-9 for a number below 100, got {reprlib.repr(text)}"
        )
    return value


def _cmd_common_factor(args) -> tuple[int, dict, str, dict]:
    with open(args.forms, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError as exc:
            raise ValueError("forms file nests too deeply to read") from exc
    if not isinstance(data, dict) or "n" not in data or "forms" not in data:
        raise ValueError("forms file must be an object with 'n' and 'forms'")
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= _MAX_N:
        raise ValueError(f"forms file 'n' must be an integer in 1..{_MAX_N}, got {n!r}")
    # main's error report reads args.n, so it carries n from here on
    args.n = n
    ctx = FieldContext(n)
    forms = _read_forms(ctx, data["forms"])
    inputs = {"m": args.m, "forms": [f.to_json() for f in forms]}
    witness = common_factor(args.m, forms)
    if witness is None:
        return n, inputs, "NOT_VALID", {"witness": None}
    return n, inputs, "VALID", {"witness": witness.to_json(), "rho": repr(witness.rho)}


def _read_forms(ctx: FieldContext, items) -> list[BilinearPfister]:
    """The forms of a forms file: each entry is a list of slot strings or
    a bilinear_pfister object; anything else is refused by its index."""
    if not isinstance(items, list):
        raise ValueError(f"forms file 'forms' must be a list, got {reprlib.repr(items)}")
    forms = []
    for i, item in enumerate(items):
        if isinstance(item, list) and all(isinstance(s, str) for s in item):
            forms.append(BilinearPfister(ctx, [parse_element(s, ctx) for s in item]))
        elif (
            isinstance(item, dict)
            and item.get("type") == "bilinear_pfister"
            and isinstance(item.get("slots"), list)
        ):
            form = BilinearPfister.from_json(ctx, item)
            if not all(_within_budget(s) for s in form.slots):
                raise ValueError(
                    f"forms file entry {i} has an exponent above the limit {_MAX_EXPONENT}"
                )
            forms.append(form)
        else:
            raise ValueError(
                f"forms file entry {i} must be a list of slot strings or a "
                f"bilinear_pfister object, got {reprlib.repr(item)}"
            )
    return forms


def _cmd_quadratic_family(args) -> tuple[int, dict, str, dict]:
    n = args.n
    inputs = {"n": n, "verify": bool(args.verify)}

    if args.verify:
        # the certificate builds the family itself
        evidence = verify_quadratic_family(n)
        verdict = "VALID" if all(evidence["checks"].values()) else "NOT_VALID"
        return n, inputs, verdict, evidence

    return n, inputs, "VALID", {"forms": [f.to_json() for f in build_quadratic_family(n)]}


def _cmd_quat_triple(args) -> tuple[int, dict, str, dict]:
    ctx = FieldContext(args.n)
    alpha = parse_element(args.alpha, ctx)
    beta = parse_element(args.beta, ctx)
    inputs = {"n": args.n, "alpha": str(alpha), "beta": str(beta)}
    triple = build_quat_triple(alpha, beta)
    norm_forms = [q.norm_form() for q in triple]
    cert = insep_obstruction(norm_forms)
    evidence = {
        "algebras": [q.to_json() for q in triple],
        "norm_forms": [repr(f) for f in norm_forms],
        "certificate": cert.to_json(),
    }
    verdict = "VALID" if cert.valid else "NOT_VALID"
    return args.n, inputs, verdict, evidence


# ---------------------------------------------------------------------------
# argparse wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pflab",
        description="Certified Pfister-form families over GF(2)(a1..an)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument(
            "--timing",
            action="store_true",
            help="fill the timing field (breaks byte-identical output)",
        )

    p = sub.add_parser("bilinear-family", help="2^n bilinear forms with no common slot")
    p.add_argument("--n", type=_count, choices=tuple(range(2, _MAX_FAMILY_N + 1)), required=True)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--subset", help="comma-separated family indices to intersect")
    common(p)
    p.set_defaults(func=_cmd_bilinear_family)

    p = sub.add_parser("common-factor", help="extract an m-fold common factor")
    p.add_argument("--m", type=_count, required=True)
    p.add_argument("--forms", required=True, help="JSON file with n and a list of forms")
    common(p)
    p.set_defaults(func=_cmd_common_factor)

    p = sub.add_parser(
        "quadratic-family",
        help="2^n - 1 quadratic forms with no common inseparable splitting field",
    )
    p.add_argument("--n", type=_count, choices=tuple(range(2, _MAX_QUADRATIC_N + 1)), required=True)
    p.add_argument("--verify", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_quadratic_family)

    p = sub.add_parser("quat-triple", help="check a triple of quaternion algebras")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--n", type=_count, choices=(2, 3, 4), default=2)
    common(p)
    p.set_defaults(func=_cmd_quat_triple)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.monotonic()
    try:
        n, inputs, verdict, evidence = args.func(args)
        timing = {"seconds": round(time.monotonic() - started, 6)} if args.timing else None
    except (PflabError, OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        n, inputs, verdict, timing = getattr(args, "n", 0), {}, "ERROR", None
        evidence = {"error_type": type(exc).__name__, "error": str(exc)}
    _emit(_report(args.command, n, inputs, verdict, evidence, timing), args.format)
    return {"VALID": 0, "NOT_VALID": 1}.get(verdict, 2)


def console_main() -> None:
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: send the rest of stdout, flushed again at
        # interpreter exit, to devnull so that no traceback follows
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 141
    raise SystemExit(code)
