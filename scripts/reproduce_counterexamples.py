#!/usr/bin/env python3
"""Rebuild the three counterexample constructions and re-run every check.

Runs the same library checks the CLI reports, for several ranks in one go,
and prints a compact pass/fail table.  Handy when touching the elimination
or valuation internals: a regression shows up here as a named failing check
rather than a wrong certificate downstream.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field

from pflab import (
    FieldContext,
    build_quadratic_family,
    build_quat_triple,
    insep_obstruction,
    quat_triple_obstruction,
    verify_no_common_slot_family,
    zero_parity_diagonal_count,
)


@dataclass
class RunConfig:
    bilinear_ranks: tuple[int, ...] = (2, 3)
    quadratic_ranks: tuple[int, ...] = (2, 3)
    quaternion: bool = True
    failures: list[str] = field(default_factory=list)

    def check(self, label: str, ok: bool) -> None:
        mark = "ok" if ok else "FAIL"
        print(f"  {label:<52} {mark}")
        if not ok:
            self.failures.append(label)


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
    evidence = verify_no_common_slot_family(n)
    print(f"bilinear family, n={n} ({evidence['family_size']} forms)")
    for label, key in BILINEAR_CHECKS:
        cfg.check(label, evidence["checks"][key])
    loo = evidence["leave_one_out_dims"]
    print(f"  ({time.monotonic() - t0:.2f}s, leave-one-out dims {loo})")


def quadratic_section(cfg: RunConfig, n: int) -> None:
    t0 = time.monotonic()
    family = build_quadratic_family(n)
    cert = insep_obstruction(family)
    print(f"quadratic family, n={n} ({len(family)} forms)")
    cfg.check("dominant-term hypotheses hold", all(cert.hypothesis_checks))
    cfg.check("pure parity images intersect in 0 only", cert.intersection.is_zero_only)
    sizes = [len(img.classes) for img in cert.per_form_images]
    cfg.check(
        "each image misses exactly one parity class",
        all(s == 2**n - 1 for s in sizes),
    )
    cfg.check(
        "2-dim subspaces hit nonzero parity (exact)",
        all(zero_parity_diagonal_count(f) == 0 for f in family),
    )
    print(f"  ({time.monotonic() - t0:.2f}s, image sizes {sizes})")


def quaternion_section(cfg: RunConfig) -> None:
    t0 = time.monotonic()
    ctx = FieldContext(2)
    a1, a2 = ctx.gens
    cert = quat_triple_obstruction(a1, a2)
    print("quaternion triple over GF(2)(a1,a2)")
    cfg.check("triple certificate valid", cert.valid)

    norms = {q.norm_form() for q in build_quat_triple(a1, a2)}
    cfg.check(
        "norm forms recover the rank-2 quadratic family",
        norms == set(build_quadratic_family(2)),
    )
    print(f"  ({time.monotonic() - t0:.2f}s)")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=3, choices=(2, 3, 4, 5, 6, 7),
                    help="largest bilinear rank to verify (6 takes 2.5 s, 7 takes 25 s)")
    ap.add_argument("--skip-quat", action="store_true")
    args = ap.parse_args(argv)

    cfg = RunConfig(
        bilinear_ranks=tuple(range(2, args.max_n + 1)),
        quadratic_ranks=(2, 3),
        quaternion=not args.skip_quat,
    )
    for n in cfg.bilinear_ranks:
        bilinear_section(cfg, n)
    for n in cfg.quadratic_ranks:
        quadratic_section(cfg, n)
    if cfg.quaternion:
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
