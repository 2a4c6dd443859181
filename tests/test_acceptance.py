"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS line on
success and fails with the offending instance otherwise.  All checks are
exact arithmetic, zero tolerance.  The randomized parts use fixed seeds
so results are reproducible run to run.
"""

import itertools
import json
import random
import time

import pytest

from pflab import (
    BilinearPfister,
    CompletionNotFound,
    FieldContext,
    ParitySet,
    SqSubspace,
    build_no_common_slot_family,
    build_quadratic_family,
    build_quat_triple,
    common_factor,
    parity,
    val,
    zero_parity_diagonal_count,
)
from pflab.cli import main
from pflab.sampling import (
    random_element,
    random_nonzero_element,
    random_vector,
)
from conftest import dense, from_dense
from test_quadratic import sampled_two_dim_failures


def _announce(k: int, detail: str) -> None:
    print(f"criterion {k}: PASS ({detail})")


def _run_cli(capsys, *argv):
    code = main(list(argv))
    return code, json.loads(capsys.readouterr().out)


# -- criterion 1: bilinear family verification through the CLI --------------


def test_criterion_1_bilinear_family_cli(capsys):
    budgets = {2: 10.0, 3: 10.0, 4: 10.0, 5: 10.0, 6: 10.0, 7: 10.0, 8: 10.0, 9: 20.0, 10: 60.0}
    # measured on two cores: about 0.17 s at n=11, 0.3 s at n=12, 0.7 s at n=13 and
    # 1.6 s at n=14; each budget leaves about 5x
    budgets.update({11: 1.0, 12: 2.0, 13: 4.0, 14: 8.0})
    timings = {}
    for n, budget in budgets.items():
        started = time.monotonic()
        code, report = _run_cli(capsys, "bilinear-family", "--n", str(n), "--verify")
        elapsed = time.monotonic() - started
        timings[n] = elapsed
        assert code == 0, f"n={n} exited {code}"
        assert report["verdict"] == "VALID"
        checks = report["evidence"]["checks"]
        assert checks["all_anisotropic"]
        assert checks["claimed_pure_bases"]
        assert checks["pairwise_intersections"]
        assert checks["no_common_slot"]
        assert checks["sharp_at_all_but_one"]
        assert report["evidence"]["common_slot_space_dim"] == 0
        assert elapsed < budget, f"n={n} took {elapsed:.2f}s (budget {budget}s)"
    _announce(1, ", ".join(f"n={n} in {t:.2f}s" for n, t in timings.items()))


# -- criterion 2: randomized slot sharing at n=3 -----------------------------


def _random_anisotropic_form(rng, ctx, pool):
    while True:
        form = BilinearPfister(ctx, rng.sample(pool, 3))
        if form.is_anisotropic():
            return form


def test_criterion_2_randomized_sharing():
    rng = random.Random(20260814)
    ctx = FieldContext(3)
    a1, a2, a3 = ctx.gens
    one = ctx.one
    pool = [a1, a2, a3, a1 * a2, a1 * a3, a2 * a3, one + a1, one + a2 * a3]
    failures = []
    for trial in range(100):
        seven = [_random_anisotropic_form(rng, ctx, pool) for _ in range(7)]
        three = [_random_anisotropic_form(rng, ctx, pool) for _ in range(3)]
        for m, forms in ((1, seven), (2, three)):
            instance = [tuple(map(str, f.slots)) for f in forms]
            try:
                witness = common_factor(m, forms)
            except CompletionNotFound as exc:
                failures.append((trial, m, instance, repr(exc)))
                continue
            if witness is None:
                failures.append((trial, m, instance, "empty slot intersection"))
                continue
            for f, comp in zip(forms, witness.complements):
                rebuilt = BilinearPfister(ctx, witness.rho.slots + comp)
                if not rebuilt.is_isometric(f):
                    failures.append((trial, m, instance, "witness does not rebuild"))
    assert not failures, f"{len(failures)} failing instances: {failures[:3]}"
    _announce(2, "100 trials, 7 forms at m=1 and 3 forms at m=2, zero failures")


# -- criterion 3: Frobenius decomposition and subspace kernel ----------------


def test_criterion_3_kernel_oracles():
    rng = random.Random(31337)

    # 1000 decomposition round-trips, degrees up to 4.
    for ctx in (FieldContext(2), FieldContext(3)):
        for _ in range(500):
            f = random_element(rng, ctx, max_degree=4, max_terms=4)
            assert from_dense(ctx, dense(f)) == f

    # dimension formula on 200 random subspace pairs.
    ctx = FieldContext(3)
    for _ in range(200):
        gens1 = [random_element(rng, ctx) for _ in range(rng.randint(1, 4))]
        gens2 = [random_element(rng, ctx) for _ in range(rng.randint(1, 4))]
        s1 = SqSubspace.span(ctx, gens1)
        s2 = SqSubspace.span(ctx, gens2)
        total = SqSubspace.span(ctx, gens1 + gens2)
        both = s1.intersection(s2).dim + total.dim
        assert both == s1.dim + s2.dim

    # brute-force value-set oracle at n=2: the pure part of <<a1, a2>>_b
    # evaluated on every vector whose entries have exponents in {0,1}^2.
    ctx = FieldContext(2)
    a1, a2 = ctx.gens
    pure = BilinearPfister(ctx, (a1, a2)).pure_value_space()
    monomials = list(itertools.product((0, 1), repeat=2))
    small = [
        ctx.element(terms)
        for k in range(5)
        for terms in itertools.combinations(monomials, k)
    ]
    assert len(small) == 16
    diag = [a1, a2, a1 * a2]
    values = set()
    zeros = 0
    for vec in itertools.product(small, repeat=3):
        value = sum((c.square() * d for c, d in zip(vec, diag)), ctx.zero)
        values.add(value)
        if value.is_zero:
            zeros += 1
            assert not any(vec), f"nontrivial zero at {vec}"
        else:
            assert value in pure, f"brute-force value {value} escapes the span"
    assert zeros == 1
    for p in small:
        assert (p in values) == (p in pure), f"membership mismatch at {p}"
    _announce(3, "1000 round-trips, 200 dim-formula pairs, 16^3 brute-force oracle")


# -- criterion 4: dominant-term valuation suite ------------------------------


def test_criterion_4_valuation_suite():
    rng = random.Random(271828)
    members = 0
    for n in (2, 3):
        for form in build_quadratic_family(n):
            members += 1
            image = form.parity_image()
            for k in range(1000):
                v = random_vector(
                    rng, form.ctx, form.dim, max_degree=2, max_terms=2,
                    polynomial=(k >= 50),
                )
                value = form.evaluate(v)
                assert value, f"vanished on {v}"
                assert val(value) == form.dominant_value(v)
                assert parity(value) in image
    assert members == 3 + 7
    _announce(4, "10 family members, 1000 vectors each, all three laws exact")


# -- criterion 5: quadratic family verification through the CLI --------------


def test_criterion_5_quadratic_family_cli(capsys):
    budgets = {2: 30.0, 3: 30.0, 4: 30.0, 5: 30.0, 6: 30.0}
    # measured through main: about 0.24 s at n=7 and 1.1 s at n=8, nearly
    # all of it the 4.2 and 18.8 MB reports; each budget leaves about 5x
    budgets.update({7: 1.5, 8: 6.0})
    timings = {}
    for n, budget in budgets.items():
        started = time.monotonic()
        code, report = _run_cli(capsys, "quadratic-family", "--n", str(n), "--verify")
        elapsed = time.monotonic() - started
        timings[n] = elapsed
        assert code == 0, f"n={n} exited {code}"
        assert report["verdict"] == "VALID"
        evidence = report["evidence"]
        assert evidence["certificate"]["valid"] is True
        assert evidence["checks"]["pure_parity_images_miss_only_quad_slot"]
        assert evidence["checks"]["two_dim_subspaces_hit_nonzero_parity"]
        assert evidence["contr_trials_per_form"] == 2**n - 1
        assert evidence["contr_failures"] == 0
        assert elapsed < budget, f"n={n} took {elapsed:.2f}s (budget {budget}s)"

        # the miss property, recomputed against the library directly
        every = list(itertools.product((0, 1), repeat=n))
        family = build_quadratic_family(n)
        for form in family:
            skip = parity(form.quad_slot)
            expected = ParitySet.of(n, [c for c in every if c != skip])
            assert form.pure_parity_image() == expected

        # the exact 2-dimensional step, spot-checked by 200 sampled
        # subspaces per form
        if n <= 3:
            rng = random.Random(4273)
            sampled = sum(sampled_two_dim_failures(f, rng, 200) for f in family)
            exact = sum(zero_parity_diagonal_count(f) for f in family)
            assert sampled == 0, f"n={n}: {sampled} sampled subspaces miss"
            assert exact == sampled
    _announce(
        5,
        "VALID, miss property exact, 200 sampled subspaces/form clean at n=2,3; "
        + ", ".join(f"n={n} in {t:.2f}s" for n, t in timings.items()),
    )


# -- criterion 6: quaternion triple ------------------------------------------


def test_criterion_6_quaternion_triple(capsys):
    code, report = _run_cli(capsys, "quat-triple", "--alpha", "a1", "--beta", "a2")
    assert code == 0
    assert report["verdict"] == "VALID"

    ctx = FieldContext(2)
    a1, a2 = ctx.gens
    triple = build_quat_triple(a1, a2)
    assert {q.norm_form() for q in triple} == set(build_quadratic_family(2))

    rng = random.Random(161803)

    def element(qa, polynomial):
        coords = random_vector(
            rng, ctx, 4, max_degree=2, max_terms=2, polynomial=polynomial
        )
        return qa.element(*coords)

    for k in range(200):
        qa = triple[k % 3]
        p, q, r = (element(qa, polynomial=(k >= 20)) for _ in range(3))
        assert (p * q) * r == p * (q * r)

    for k in range(500):
        qa = triple[k % 3]
        p, q = (element(qa, polynomial=(k >= 50)) for _ in range(2))
        assert (p * q).norm() == p.norm() * q.norm()
    _announce(6, "CLI VALID, norm forms match the family, 200 + 500 samples exact")


# -- criterion 7: right-slot scaling identity --------------------------------


def test_criterion_7_right_slot_identity():
    from pflab import right_slot_from_value

    rng = random.Random(577215)
    forms = build_quadratic_family(2) + build_quadratic_family(3)
    assert len(forms) == 10
    for k in range(500):
        form = forms[k % len(forms)]
        ctx = form.ctx
        w = random_nonzero_element(rng, ctx, max_degree=2, max_terms=2)
        x = random_element(rng, ctx, max_degree=2, max_terms=2)
        u = random_vector(rng, ctx, form.dim - 2, max_terms=2, polynomial=True)
        slot = right_slot_from_value(form, w, x, u)

        def phi_pp(vec):
            return form.evaluate_pure((ctx.zero, ctx.zero) + tuple(vec))

        alpha = form.quad_slot
        direct = (alpha * w.square() + w * x + x.square() + phi_pp(u)) / w.square()
        t = x / w
        scaled = alpha + t + t.square() + phi_pp([c / w for c in u])
        assert slot == direct, f"sample {k}: quotient form differs"
        assert slot == scaled, f"sample {k}: scaled form differs"
    _announce(7, "500 samples, both defining expressions agree exactly")
