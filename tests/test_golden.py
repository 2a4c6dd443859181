"""Golden outputs: the printed certificates stay byte for byte.

Each case runs one CLI invocation through ``cli.main`` and compares its
stdout and exit code with the file recorded under ``tests/golden/``.  A
refactor must leave every file unchanged.  The family certificate at
n = 5..14, too large for a golden file at the top end, is pinned by the
sha256 of its stdout (``FAMILY_DIGESTS``), and so are the quadratic
certificate and listing at n = 2..8 (``QUADRATIC_DIGESTS`` and
``QUADRATIC_LISTING_DIGESTS``).  A change that is meant to
alter a report rewrites its goldens on purpose, and only those: run this
file as a script, ``PYTHONPATH=src python tests/test_golden.py``, and
check that ``git diff --stat tests/golden`` lists no other file.

The ``common_factor`` witnesses of the ``sharing-n3`` benchmark corpora
are pinned too, by the digests recorded in ``perfbench/reference.json``;
the workload is loaded from ``perfbench/workloads.py``, and neither file
is written.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

import pflab
from pflab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
FORMS = str(GOLDEN / "common_factor_forms.json")
# corpus 20260814's instance 19 of the sharing benchmark, the one golden
# input whose run reaches the exact fallback of bilinear._next_slot
FALLBACK_FORMS = str(GOLDEN / "common_factor_fallback_forms.json")
# nine forms with three distinct pure spaces: exact duplicates, permuted
# slots and isometric slot lists, completed once per distinct space, and
# two forms whose distinct pure spaces have the same pivots
ISOMETRIC_FORMS = str(GOLDEN / "common_factor_isometric_forms.json")

# file name -> (argv, exit code)
CASES = {
    "bilinear-family-n2-verify.json": (["bilinear-family", "--n", "2", "--verify"], 0),
    "bilinear-family-n3-verify.json": (["bilinear-family", "--n", "3", "--verify"], 0),
    "bilinear-family-n4-verify.json": (["bilinear-family", "--n", "4", "--verify"], 0),
    "bilinear-family-n4-verify.txt": (
        ["bilinear-family", "--n", "4", "--verify", "--format", "text"],
        0,
    ),
    "bilinear-family-n3.json": (["bilinear-family", "--n", "3"], 0),
    "bilinear-family-n3-subset-012.json": (
        ["bilinear-family", "--n", "3", "--subset", "0,1,2"],
        0,
    ),
    "bilinear-family-n3-subset-all.json": (
        ["bilinear-family", "--n", "3", "--subset", "0,1,2,3,4,5,6,7"],
        1,
    ),
    "quadratic-family-n2-verify.json": (["quadratic-family", "--n", "2", "--verify"], 0),
    "quadratic-family-n3-verify.json": (["quadratic-family", "--n", "3", "--verify"], 0),
    "quat-triple.json": (["quat-triple", "--alpha", "a1", "--beta", "a2"], 0),
    "common-factor-m1.json": (["common-factor", "--m", "1", "--forms", FORMS], 0),
    "common-factor-m2.json": (["common-factor", "--m", "2", "--forms", FORMS], 0),
    "common-factor-fallback-m2.json": (
        ["common-factor", "--m", "2", "--forms", FALLBACK_FORMS],
        0,
    ),
    "common-factor-isometric-m1.json": (
        ["common-factor", "--m", "1", "--forms", ISOMETRIC_FORMS],
        0,
    ),
    "common-factor-isometric-m2.json": (
        ["common-factor", "--m", "2", "--forms", ISOMETRIC_FORMS],
        0,
    ),
}


# n -> sha256 of the stdout of ``bilinear-family --n N --verify``, for the
# ranks above the golden files' n <= 4; the reports grow to 148 KB at n=14
FAMILY_DIGESTS = {
    5: "9f47957ed136683598ffcd7ae815956e651cf0efc3fee2522544ed877c56ff7f",
    6: "6e29b98dc4d065b8cc6918404675877b8e89b0d98535da0c20c464b790f81922",
    7: "7caffd5845577a15c570465c79bacd1847981ea6e348a088236a089f825eeaec",
    8: "082be05b50d3be3bbc7b34cf8de5858ff781cb866de128f6f6187ded914304cd",
    9: "0548db9a9ead08d9b3a55448334d1fba235a7b0b04b9c1e3660b90d2dbff3da3",
    10: "ad3ba9b5cada457a0c7524ca49ca08a25ce7560b8dd56b0bf74f9c3fb2cbd10d",
    11: "0d1366d81028412fe9f16a29fbbc32098cdc0a46880f01b595631624bf0a2459",
    12: "c3e7c31d2e5ced683f4947c65948f3f41c9f3d5dab2709679a1d2c3a4888aca7",
    13: "9237ced35ea82a621e21978eb24e988939a9fb20dd2c73d6216b13fba1c635a1",
    14: "120e1d3383224ea4825230f7897e59f93e154a018c968577046abfb6e85ec13a",
}

# n -> sha256 of the stdout of ``quadratic-family --n N --verify``, and of
# its plain listing; the --verify report grows to 18.8 MB at n=8
QUADRATIC_DIGESTS = {
    2: "8f5195325340df0d4936db49ad15872fdc11891cf1f44620eb1d2cb390d760f5",
    3: "e6ffdeb3096ee7b91fa7ae817499fc3ac6e01d797d72c644830e98b8e6a770b5",
    4: "2690f2fa7befda852a9f9821b7561e30c8ba8a2edd7d389ea0567ce188118311",
    5: "fa9e43c864d7a04a0cc4e6507ec39edf66802137dd1316ff4c18fed2311cb0dc",
    6: "87b5f08b7da6f4ff51fe3c44124aff3ff0f38580f4a8a4cb228c018c0b11518a",
    7: "ac557d2e81f08adc07047e8f836680fa75542842a6f20166706b8298ee9d7853",
    8: "f745879c1ff6c164ed4be7a99d90a0889d7afc0804aae80adf57c8a46a717c4f",
}
QUADRATIC_LISTING_DIGESTS = {
    2: "44451e8e7eb85090f9314f4ad52b13224687d9a4f9947f6dcf853fbb145330d9",
    3: "5430a8b89390313861d0a9e89106d4792c76e530d9b2f7676b12e1e13d99e83e",
    4: "6e5b083ab96098e817419c1edb3a7e7f9747d82740be3b9d8cfe6f71260b6cc3",
    5: "295ddfc62269e4ae3d5aed706d19e357d79700d4d153b2d63228a50461f1da4a",
    6: "9c72d5ce7228350d33014b85efe32ac18d33da6920953ea17aaf29ed7cd49070",
    7: "e4ef78202ef44cf22c393264f01602ec98938368f9520237f303d6abe4dbc2b2",
    8: "2131dcab99609dabe95f801413afab64a1480c1b71cbfd638339b54b9f10cc0a",
}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_golden_outputs():
    mismatches = []
    for name, (argv, expected_code) in CASES.items():
        code, out = _run(argv)
        if code != expected_code:
            mismatches.append(f"{name}: exit {code}, expected {expected_code}")
        elif out != (GOLDEN / name).read_text(encoding="utf-8"):
            mismatches.append(f"{name}: stdout differs")
    assert not mismatches, mismatches


@pytest.mark.parametrize("n", sorted(FAMILY_DIGESTS))
def test_family_digest(n):
    code, out = _run(["bilinear-family", "--n", str(n), "--verify"])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == FAMILY_DIGESTS[n]


@pytest.mark.parametrize("n", sorted(QUADRATIC_DIGESTS))
def test_quadratic_digest(n):
    code, out = _run(["quadratic-family", "--n", str(n), "--verify"])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == QUADRATIC_DIGESTS[n]


@pytest.mark.parametrize("n", sorted(QUADRATIC_LISTING_DIGESTS))
def test_quadratic_listing_digest(n):
    code, out = _run(["quadratic-family", "--n", str(n)])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == QUADRATIC_LISTING_DIGESTS[n]


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("corpus_seed", [20260814, 20261017])
def test_sharing_witness_digests(corpus_seed):
    # every instance of the recorded corpus, visited in corpus order; the
    # workload seed only shuffles the visiting order
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    recorded = reference["sharing-n3"]["witness_sha256"][str(corpus_seed)]
    workload = _workloads().setup("sharing-n3", pflab, 1, corpus_seed, reference)
    assert len(workload.items) == len(recorded) == 60
    mismatches = [
        item[0]
        for item in sorted(workload.items)
        if workload.digest(item, workload.run(item)) != recorded[item[0]]
    ]
    assert not mismatches, f"witness digests differ on instances {mismatches}"


def _rewrite() -> int:
    for name, (argv, expected_code) in CASES.items():
        code, out = _run(argv)
        if code != expected_code:
            print(f"{name}: exit {code}, expected {expected_code}", file=sys.stderr)
            return 1
        (GOLDEN / name).write_text(out, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(_rewrite())
