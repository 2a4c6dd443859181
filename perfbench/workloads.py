"""The benchmark's workloads: inputs, one certificate, and its output check.

A workload is built by ``setup`` from the imported pflab package and the
seeds; its ``items`` are visited in order, cycling, by a closed loop that
starts the next certificate only after the previous one has finished.
``run`` is the timed certificate; ``check`` and ``digest`` run outside the
timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class CliWorkload:
    """One in-process call of ``pflab.cli.main`` with a fixed argument list.

    The CLI fixes these inputs, so the seed changes nothing here.
    """

    def __init__(self, pflab, argv, evidence_sha256=None):
        self.cli = pflab.cli
        self.items = [tuple(argv)]
        self.evidence_sha256 = evidence_sha256

    def run(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(list(argv))
        return code, buf.getvalue()

    def digest(self, argv, output) -> str:
        return sha256(output[1])

    def evidence_digest(self, output) -> str:
        report = json.loads(output[1])
        return sha256(json.dumps(report["evidence"], sort_keys=True))

    def check(self, argv, output) -> str | None:
        """None when the certificate is right, else the reason it is not."""
        code, text = output
        if code != 0:
            return f"exit code {code}"
        try:
            report = json.loads(text)
        except ValueError:
            return "output is not one JSON report"
        if report["verdict"] != "VALID":
            return f"verdict {report['verdict']}"
        failed = [k for k, ok in report["evidence"]["checks"].items() if not ok]
        if failed:
            return f"checks failed: {failed}"
        if self.evidence_sha256 and self.evidence_digest(output) != self.evidence_sha256:
            return "evidence digest differs from the recorded one"
        return None


# The criterion-2 configuration: 3-fold forms over GF(2)(a1, a2, a3) drawn
# from an 8-slot pool, each pool entry given by its monomials.
POOL = (
    ((1, 0, 0),),  # a1
    ((0, 1, 0),),  # a2
    ((0, 0, 1),),  # a3
    ((1, 1, 0),),  # a1*a2
    ((1, 0, 1),),  # a1*a3
    ((0, 1, 1),),  # a2*a3
    ((0, 0, 0), (1, 0, 0)),  # 1 + a1
    ((0, 0, 0), (0, 1, 1)),  # 1 + a2*a3
)
TRIALS = 30  # each trial gives a 7-form family at m=1 and a 3-form one at m=2


class SharingWorkload:
    """``common_factor`` on seeded random families of anisotropic 3-fold forms.

    The corpus seed draws the families exactly as acceptance criterion 2
    does.  The workload seed shuffles the order in which the instances are
    visited, and nothing else: the order of the forms in a family and of
    the slots in a form changes how much work an instance takes (by up to
    40% on one instance, 8% over the corpus), so every seed presents the
    forms as drawn and every run does the same mathematical work, heavy
    tail included.
    """

    def __init__(self, pflab, seed: int, corpus_seed: int, witness_sha256=None):
        self.pflab = pflab
        self.witness_sha256 = witness_sha256
        self._verified: set[tuple[int, str]] = set()
        ctx = pflab.FieldContext(3)
        pool = [ctx.element(terms) for terms in POOL]
        anisotropic = {
            frozenset(idx)
            for idx in itertools.combinations(range(len(POOL)), 3)
            if pflab.BilinearPfister(ctx, [pool[i] for i in idx]).is_anisotropic()
        }

        def random_form(rng):
            # random.sample draws the same indices whatever the population
            # holds, so this matches sampling the pool elements themselves
            while True:
                idx = tuple(rng.sample(range(len(POOL)), 3))
                if frozenset(idx) in anisotropic:
                    return idx

        rng = random.Random(corpus_seed)
        corpus = []
        for _ in range(TRIALS):
            seven = [random_form(rng) for _ in range(7)]
            three = [random_form(rng) for _ in range(3)]
            corpus += [(1, seven), (2, three)]
        self.corpus = corpus

        items = [(index, m, tuple(map(tuple, forms))) for index, (m, forms) in enumerate(corpus)]
        random.Random(seed).shuffle(items)
        self.items = items

    def run(self, item):
        """Fresh field context, elements and forms, so that no per-object
        cache is warm, then one common_factor call."""
        pflab = self.pflab
        _, m, slots = item
        ctx = pflab.FieldContext(3)
        pool = [ctx.element(terms) for terms in POOL]
        forms = [pflab.BilinearPfister(ctx, [pool[i] for i in s]) for s in slots]
        try:
            return forms, pflab.common_factor(m, forms)
        except pflab.PflabError as exc:
            return forms, exc

    def digest(self, item, output) -> str:
        """Digest of the witness JSON."""
        witness = output[1]
        if not isinstance(witness, self.pflab.FactorWitness):
            return repr(witness)
        return sha256(json.dumps({"m": item[1], "witness": witness.to_json()}, sort_keys=True))

    def check(self, item, output) -> str | None:
        forms, witness = output
        if witness is None:
            return "no witness: the slot intersection died"
        if not isinstance(witness, self.pflab.FactorWitness):
            return f"raised {witness!r}"
        index = item[0]
        digest = self.digest(item, output)
        if self.witness_sha256 and digest != self.witness_sha256[index]:
            return f"witness digest of corpus instance {index} differs from the recorded one"
        if (index, digest) in self._verified:
            return None
        if len(witness.complements) != len(forms):
            return "witness has a complement count different from the family size"
        ctx = forms[0].ctx
        for f, comp in zip(forms, witness.complements):
            try:
                rebuilt = self.pflab.BilinearPfister(ctx, witness.rho.slots + comp)
                isometric = rebuilt.is_isometric(f)
            except (self.pflab.PflabError, ValueError) as exc:
                return f"witness does not rebuild form {f!r}: {exc!r}"
            if not isometric:
                return f"witness does not rebuild form {f!r}"
        self._verified.add((index, digest))
        return None


NAMES = ("family-n4", "sharing-n3", "quadratic-n3")


def setup(name: str, pflab, seed: int, corpus_seed: int, reference: dict):
    """Build the named workload from an imported pflab package."""
    if name == "family-n4":
        return CliWorkload(
            pflab,
            ["bilinear-family", "--n", "4", "--verify"],
            reference["family-n4"]["evidence_sha256"],
        )
    if name == "quadratic-n3":
        # not digested: an exact 2-dimensional certificate may change it
        return CliWorkload(pflab, ["quadratic-family", "--n", "3", "--verify"])
    if name == "sharing-n3":
        recorded = reference["sharing-n3"]["witness_sha256"].get(str(corpus_seed))
        return SharingWorkload(pflab, seed, corpus_seed, recorded)
    raise ValueError(f"unknown workload {name!r}")
