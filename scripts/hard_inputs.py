#!/usr/bin/env python3
"""Seeded small inputs for ``pflab common-factor``, each run with a time limit.

Draw i is a forms file over GF(2)(a1, a2, a3) of two 3-slot forms.  Each
slot is a sum of 1 to 3 distinct monomials with exponents 0 to 2.  Even
draws are [f, f] and odd draws [f, g], so both the search of one form
and the intersection of two are exercised.  The draws come in order from
``random.Random(SEED)``, so draw i is the same on every run.

Each draw runs through ``pflab.cli.main`` with ``--m 1``, in this
process, under a real-time alarm of ``--timeout`` seconds.  The script
prints one line per draw: its index, its outcome (VALID, NOT_VALID, the
error type of an ERROR report, or TIMEOUT), the seconds it took and, for
a timeout, the chain of pflab functions the alarm stopped it in.  A
summary of the outcomes follows.  Most draws are isotropic and end at
once; the others show where ``common-factor`` has no bound on its cost
yet.

    python scripts/hard_inputs.py --draws 80 --timeout 2
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import random
import signal
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from pflab import cli
from pflab.field import Poly, _poly_str

SEED = 7
N = 3
SLOTS = 3
MONOMIALS = list(itertools.product(range(3), repeat=N))


def _slot(rng: random.Random) -> str:
    return _poly_str(Poly(frozenset(rng.sample(MONOMIALS, rng.randint(1, 3))), N))


def draws(count: int) -> list[dict]:
    """The first count forms files, as JSON objects."""
    rng = random.Random(SEED)
    out = []
    for i in range(count):
        f = [_slot(rng) for _ in range(SLOTS)]
        g = [_slot(rng) for _ in range(SLOTS)] if i % 2 else f
        out.append({"n": N, "forms": [f, g]})
    return out


class _Timeout(BaseException):
    """Raised by the alarm; a BaseException, so no library handler catches it."""


def _alarm(signum, frame):
    raise _Timeout


def _stopped_in(exc: BaseException) -> str:
    """The library functions the alarm stopped, outermost first, below the
    CLI's own frames: each named once, at its first call, and
    comprehensions left out, so a recursion reads as one chain."""
    names: list[str] = []
    tb = exc.__traceback__
    while tb is not None:
        code = tb.tb_frame.f_code
        path = Path(code.co_filename)
        if path.parent.name == "pflab" and path.name != "cli.py":
            if not code.co_name.startswith("<") and code.co_name not in names:
                names.append(code.co_name)
        tb = tb.tb_next
    return " > ".join(names) or "-"


def run_draw(data: dict, timeout: float, workdir: str) -> tuple[str, float, str]:
    """(outcome, seconds, function stopped in) of one forms file."""
    path = Path(workdir) / "forms.json"
    path.write_text(json.dumps(data))
    out = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    started = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, timeout)
        with contextlib.redirect_stdout(out):
            cli.main(["common-factor", "--m", "1", "--forms", str(path)])
    except _Timeout as exc:
        return "TIMEOUT", time.perf_counter() - started, _stopped_in(exc)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    seconds = time.perf_counter() - started
    report = json.loads(out.getvalue())
    if report["verdict"] == "ERROR":
        return report["evidence"]["error_type"], seconds, "-"
    return report["verdict"], seconds, "-"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--draws", type=int, default=80)
    parser.add_argument("--timeout", type=float, default=2.0, help="seconds per draw")
    args = parser.parse_args(argv)
    outcomes: Counter = Counter()
    with tempfile.TemporaryDirectory() as workdir:
        for i, data in enumerate(draws(args.draws)):
            outcome, seconds, where = run_draw(data, args.timeout, workdir)
            outcomes[outcome] += 1
            print(f"{i:4d}  {outcome:<16} {seconds:8.3f} s  {where}", flush=True)
    print("outcomes: " + ", ".join(f"{k} {v}" for k, v in sorted(outcomes.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
