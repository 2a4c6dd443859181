#!/usr/bin/env python3
"""Rebuild the three counterexample constructions and re-run every check.

Runs the same library checks the CLI reports, for several ranks in one go,
and prints a compact pass/fail table.  Handy when touching the elimination
or valuation internals: a regression shows up here as a named failing check
rather than a wrong certificate downstream.  A library call that raises
(a certificate that stops on a failed identity, say) fails its section
with the error named, and the later sections still run.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

from pflab import (
    FieldContext,
    PflabError,
    build_quadratic_family,
    build_quat_triple,
    quat_triple_obstruction,
    verify_no_common_slot_family,
    verify_quadratic_family,
)


@dataclass
class RunConfig:
    bilinear_ranks: tuple[int, ...] = (2, 3)
    quadratic_ranks: tuple[int, ...] = (2, 3)
    failures: list[str] = field(default_factory=list)

    def check(self, title: str, label: str, ok: bool) -> None:
        """One row of the table; a failure is recorded under its section's
        title, so that the summary tells the ranks apart."""
        mark = "ok" if ok else "FAIL"
        print(f"  {label:<52} {mark}")
        if not ok:
            self.failures.append(f"{title}: {label}")

    def error(self, title: str, exc: PflabError) -> None:
        """A section whose library call raised: one labelled FAIL."""
        print(title)
        self.check(title, f"raised {type(exc).__name__}", False)
        print(f"    {exc}")


# table label of each check in the bilinear-family evidence
BILINEAR_CHECKS = (
    ("every member anisotropic", "all_anisotropic"),
    ("pure value spaces match the closed form", "claimed_pure_bases"),
    ("pairwise intersections drop exactly {1, a^d}", "pairwise_intersections"),
    ("no common slot across the family", "no_common_slot"),
    ("every leave-one-out subfamily shares a slot", "sharp_at_all_but_one"),
)


def bilinear_section(cfg: RunConfig, n: int) -> None:
    t0 = time.monotonic()
    title = f"bilinear family, n={n}"
    try:
        evidence = verify_no_common_slot_family(n)
    except PflabError as exc:
        cfg.error(title, exc)
        return
    print(f"{title} ({evidence['family_size']} forms)")
    for label, key in BILINEAR_CHECKS:
        cfg.check(title, label, evidence["checks"][key])
    # 2^n entries: print how many subfamilies share a slot space of each
    # dimension, not the list
    counts = sorted(Counter(evidence["leave_one_out_dims"]).items())
    loo = ", ".join(f"{count} of dim {dim}" for dim, count in counts)
    print(f"  ({time.monotonic() - t0:.2f}s, leave-one-out subfamilies: {loo})")


# table label of each check in the quadratic-family evidence
QUADRATIC_CHECKS = (
    ("dominant-term hypotheses hold", "hypothesis_all_pass"),
    ("each image misses exactly its block slot's class", "pure_parity_images_miss_only_quad_slot"),
    ("pure parity images intersect in 0 only", "intersection_zero_only"),
    ("2-dim subspaces hit nonzero parity (exact)", "two_dim_subspaces_hit_nonzero_parity"),
)


def quadratic_section(cfg: RunConfig, n: int) -> None:
    t0 = time.monotonic()
    title = f"quadratic family, n={n}"
    try:
        evidence = verify_quadratic_family(n)
    except PflabError as exc:
        cfg.error(title, exc)
        return
    print(f"{title} ({len(evidence['per_form'])} forms)")
    for label, key in QUADRATIC_CHECKS:
        cfg.check(title, label, evidence["checks"][key])
    sizes = [len(image) for image in evidence["certificate"]["per_form_images"]]
    print(f"  ({time.monotonic() - t0:.2f}s, image sizes {sizes})")


def quaternion_section(cfg: RunConfig) -> None:
    t0 = time.monotonic()
    ctx = FieldContext(2)
    a1, a2 = ctx.gens
    title = "quaternion triple over GF(2)(a1,a2)"
    try:
        cert = quat_triple_obstruction(a1, a2)
        norms = {q.norm_form() for q in build_quat_triple(a1, a2)}
    except PflabError as exc:
        cfg.error(title, exc)
        return
    print(title)
    cfg.check(title, "triple certificate valid", cert.valid)
    cfg.check(
        title,
        "norm forms recover the rank-2 quadratic family",
        norms == set(build_quadratic_family(2)),
    )
    print(f"  ({time.monotonic() - t0:.2f}s)")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=3, choices=tuple(range(2, 15)),
                    help="largest bilinear rank to verify (the whole run takes about "
                    "0.2 s to 8, 0.3 s to 10, 0.7 s to 12 and 4 s to 14)")
    args = ap.parse_args(argv)

    cfg = RunConfig(bilinear_ranks=tuple(range(2, args.max_n + 1)))
    for n in cfg.bilinear_ranks:
        bilinear_section(cfg, n)
    for n in cfg.quadratic_ranks:
        quadratic_section(cfg, n)
    quaternion_section(cfg)

    if cfg.failures:
        print(f"\n{len(cfg.failures)} check(s) failed:")
        for f in cfg.failures:
            print(f"  - {f}")
        return 1
    print("\nall checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
