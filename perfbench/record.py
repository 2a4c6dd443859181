#!/usr/bin/env python3
"""Record perfbench/reference.json: the output digests the benchmark checks
against, and a baseline trace later changes can cite as "before".

    python3 perfbench/record.py

Re-record only when a change is meant to alter certified output; the
digests exist to catch every other change.  The baseline trace is one
traced pass over every item of each workload (the whole sharing-n3 corpus
once), with self times from the machine that ran it.
"""

from __future__ import annotations

import json
import sys
import time

import run
import tracing
import workloads

BASELINE_SEED = 1


def main() -> int:
    path = run.HERE / "reference.json"
    with open(path, encoding="utf-8") as fh:
        reference = json.load(fh)
    sys.path.insert(0, str(run.SRC))
    pflab = run.import_pflab()
    seeds = reference["seeds"]

    family = workloads.setup("family-n4", pflab, BASELINE_SEED, 0, {"family-n4": {"evidence_sha256": None}})
    output = family.run(family.items[0])
    reason = family.check(family.items[0], output)
    if reason is not None:
        raise SystemExit(f"family-n4: {reason}")
    reference["family-n4"] = {"evidence_sha256": family.evidence_digest(output)}

    digests = {}
    for corpus_seed in (seeds["corpus_seed"], seeds["heldout_corpus_seed"]):
        sharing = workloads.SharingWorkload(pflab, BASELINE_SEED, corpus_seed)
        by_index = {}
        for item in sharing.items:
            output = sharing.run(item)
            reason = sharing.check(item, output)
            if reason is not None:
                raise SystemExit(f"corpus {corpus_seed}, instance {item[0]}: {reason}")
            by_index[item[0]] = sharing.digest(item, output)
        digests[str(corpus_seed)] = [by_index[i] for i in range(len(by_index))]
    reference["sharing-n3"] = {"witness_sha256": digests}

    baseline = {}
    for name in workloads.NAMES:
        workload = workloads.setup(name, pflab, BASELINE_SEED, seeds["corpus_seed"], reference)
        tracer = tracing.Tracer()
        fallback_instances = 0
        t0 = time.perf_counter()
        with tracer:
            for item in workload.items:
                before = tracer.fallback_calls()
                workload.run(item)
                fallback_instances += tracer.fallback_calls() > before
        traced_s = time.perf_counter() - t0
        count = len(workload.items)
        entry = {"certificates": count, "traced_s": traced_s, "absent": tracer.absent}
        for hook, stat in tracer.stats.items():
            entry[hook + ".calls_per_certificate"] = stat[tracing.CALLS] / count
            entry[hook + ".self_s_per_certificate"] = stat[tracing.SELF_S] / count
        entry.update({k: v for k, v in tracer.metrics().items() if not k.endswith((".calls", ".self_s"))})
        entry["bilinear.fallback_instances"] = fallback_instances
        baseline[name] = entry
        print(f"{name}: {count} certificates traced in {traced_s:.2f} s, "
              f"{fallback_instances} hit the fallback")
    reference["baseline_trace"] = baseline

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
