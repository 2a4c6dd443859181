"""Golden outputs: the printed certificates stay byte for byte.

Each case runs one CLI invocation through ``cli.main`` and compares its
stdout and exit code with the file recorded under ``tests/golden/``.  A
refactor must leave every file unchanged.  A change that is meant to
alter a report rewrites its goldens on purpose, and only those: run this
file as a script, ``PYTHONPATH=src python tests/test_golden.py``, and
check that ``git diff --stat tests/golden`` lists no other file.

The ``common_factor`` witnesses of the ``sharing-n3`` benchmark corpora
are pinned too, by the digests recorded in ``perfbench/reference.json``;
the workload is loaded from ``perfbench/workloads.py``, and neither file
is written.
"""

import contextlib
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
