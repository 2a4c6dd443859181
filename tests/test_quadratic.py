"""Quadratic Pfister forms: evaluation, parity certificates, slot identity."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pflab import (
    EmptyInput,
    HypothesisFailed,
    ParitySet,
    QuadraticPfister,
    ValuationOfZero,
    ZeroSlot,
    ZeroW,
    build_quadratic_family,
    insep_obstruction,
    verify_quadratic_family,
    necessary_insep_split,
    parity,
    right_slot_from_value,
    unit_vector,
    val,
    zero_parity_diagonal_count,
)
from pflab import bilinear, quadratic
from pflab.errors import BadRank
from pflab.field import FieldElement, Poly
from pflab.sampling import random_vector
from conftest import CTX2, CTX3, elements, nonzero_elements


# -- spot-check oracle for the 2-dimensional step ----------------------------
#
# The certificate reads the step off the diagonal values
# (zero_parity_diagonal_count).  This oracle samples 2-dimensional subspaces
# instead and evaluates the form on them, so the two can be compared.


def _f_independent(u1, u2) -> bool:
    """F-linear independence of two coordinate vectors via 2x2 minors."""
    if not any(u1) or not any(u2):
        return False
    for (a, b), (c, d) in itertools.combinations(list(zip(u1, u2)), 2):
        if a * d != b * c:
            return True
    return False


def _echelon_pair(u1, u2):
    """Reduce a rank-2 pair to an echelon basis of the subspace it spans.

    The subspace, not the spanning pair, is the object under test; the raw
    pair can have every tested combination dominated by the same diagonal
    slot, while an echelon basis always separates leading coordinates.
    Fraction-free: scaling a basis vector moves neither the subspace nor
    any value's parity class (values scale by squares times units).
    """
    j = next(i for i in range(len(u1)) if u1[i] or u2[i])
    if not u1[j]:
        u1, u2 = u2, u1
    w2 = tuple(u1[j] * b + u2[j] * a for a, b in zip(u1, u2))
    return u1, w2


def hits_nonzero_parity(form, u1, u2) -> bool:
    """Whether one of w1, w2, w1 + w2 (the echelon basis of span(u1, u2))
    takes a value of nonzero parity."""
    w1, w2 = _echelon_pair(u1, u2)
    zero = (0,) * form.ctx.n
    for vec in (w1, w2, tuple(a + b for a, b in zip(w1, w2))):
        value = form.evaluate(vec)
        if value and parity(value) != zero:
            return True
    return False


def sampled_two_dim_failures(form, rng, trials) -> int:
    """Count sampled 2-dimensional subspaces that miss every nonzero parity."""
    failures = 0
    for _ in range(trials):
        while True:
            u1 = random_vector(rng, form.ctx, form.dim, polynomial=True)
            u2 = random_vector(rng, form.ctx, form.dim, polynomial=True)
            if _f_independent(u1, u2):
                break
        failures += not hits_nonzero_parity(form, u1, u2)
    return failures


@pytest.fixture
def phi12(ctx2):
    """<<a1, a2]]: bilinear slot a1, quadratic slot a2."""
    a1, a2 = ctx2.gens
    return QuadraticPfister(ctx2, (a1,), a2)


class TestConstruction:
    def test_shape(self, ctx2, phi12):
        assert phi12.fold == 2
        assert phi12.dim == 4
        a1, a2 = ctx2.gens
        assert phi12.diagonal_values() == [ctx2.one, a2, a1, a1 * a2]

    def test_zero_bilinear_slot(self, ctx2):
        with pytest.raises(ZeroSlot):
            QuadraticPfister(ctx2, (ctx2.zero,), ctx2.gens[0])

    def test_json_round_trip(self, ctx2, phi12):
        data = phi12.to_json()
        assert data["type"] == "quadratic_pfister"
        assert QuadraticPfister.from_json(ctx2, data) == phi12

    def test_json_without_bilinear_slots(self, ctx2, phi12):
        data = phi12.to_json()
        del data["bilinear_slots"]
        with pytest.raises(ValueError, match="bilinear_slots"):
            QuadraticPfister.from_json(ctx2, data)

    def test_json_bilinear_slots_not_a_list(self, ctx2, phi12):
        data = {**phi12.to_json(), "bilinear_slots": 5}
        with pytest.raises(ValueError, match="bilinear_slots"):
            QuadraticPfister.from_json(ctx2, data)


class TestEvaluate:
    def test_unit_u0(self, ctx2, phi12):
        assert phi12.evaluate(unit_vector(phi12, 0)) == ctx2.one

    def test_unit_w0(self, ctx2, phi12):
        assert phi12.evaluate(unit_vector(phi12, 1)) == ctx2.gens[1]

    def test_three_ones(self, ctx2, phi12):
        a1, a2 = ctx2.gens
        one, zero = ctx2.one, ctx2.zero
        v = (one, one, one, zero)
        assert phi12.evaluate(v) == a1 + a2

    def test_length_checked(self, ctx2, phi12):
        with pytest.raises(ValueError):
            phi12.evaluate((ctx2.one,))

    @given(c=elements(CTX2, max_degree=2), u=elements(CTX2, max_degree=1))
    def test_degree_two_homogeneity(self, ctx2, c, u):
        a1, a2 = ctx2.gens
        phi = QuadraticPfister(ctx2, (a1,), a2)
        v = (u, a1, ctx2.one, u + a2)
        scaled = tuple(c * x for x in v)
        assert phi.evaluate(scaled) == c * c * phi.evaluate(v)


class TestEvaluatePure:
    def test_unit_u0(self, ctx2, phi12):
        assert phi12.evaluate_pure(unit_vector(phi12, 0)) == ctx2.one

    def test_unit_w1(self, ctx2, phi12):
        a1, a2 = ctx2.gens
        assert phi12.evaluate_pure(unit_vector(phi12, 3)) == a1 * a2

    def test_two_units(self, ctx2, phi12):
        a1, _ = ctx2.gens
        one, zero = ctx2.one, ctx2.zero
        assert phi12.evaluate_pure((one, zero, one, zero)) == ctx2.one + a1

    def test_w0_rejected(self, ctx2, phi12):
        with pytest.raises(ValueError):
            phi12.evaluate_pure(unit_vector(phi12, 1))


class TestDominantValue:
    def test_unit_u1(self, ctx2, phi12):
        assert phi12.dominant_value(unit_vector(phi12, 2)) == (-1, 0)

    def test_three_ones(self, ctx2, phi12):
        one, zero = ctx2.one, ctx2.zero
        v = (one, one, one, zero)
        assert phi12.dominant_value(v) == (-1, 0)
        assert val(phi12.evaluate(v)) == (-1, 0)

    def test_unit_w1(self, ctx2, phi12):
        assert phi12.dominant_value(unit_vector(phi12, 3)) == (-1, -1)

    def test_zero_vector(self, ctx2, phi12):
        with pytest.raises(ValuationOfZero):
            phi12.dominant_value((ctx2.zero,) * 4)

    def test_hypothesis_required(self, ctx2):
        a1, _ = ctx2.gens
        bad = QuadraticPfister(ctx2, (a1,), a1**3)
        with pytest.raises(HypothesisFailed):
            bad.dominant_value(unit_vector(bad, 0))

    def test_matches_val_on_samples(self, ctx2, phi12):
        rng = random.Random(11)
        for _ in range(100):
            v = random_vector(rng, ctx2, 4, polynomial=True)
            value = phi12.evaluate(v)
            assert value
            assert val(value) == phi12.dominant_value(v)
            assert parity(value) in phi12.parity_image()


class TestParityImages:
    def test_full_image(self, ctx2, phi12):
        assert phi12.parity_image() == ParitySet.full(2)

    def test_pure_image_misses_quad_slot(self, ctx2, phi12):
        assert phi12.pure_parity_image() == ParitySet.of(
            2, [(0, 0), (1, 0), (1, 1)]
        )

    def test_pure_image_product_slot(self, ctx2):
        a1, a2 = ctx2.gens
        phi = QuadraticPfister(ctx2, (a2,), a1 * a2)
        assert phi.pure_parity_image() == ParitySet.of(
            2, [(0, 0), (0, 1), (1, 0)]
        )


class TestFamily:
    def test_n2_exact(self, ctx2):
        a1, a2 = ctx2.gens
        family = build_quadratic_family(2)
        assert [(f.bilinear_slots, f.quad_slot) for f in family] == [
            ((a2,), a1),
            ((a1,), a2),
            ((a2,), a1 * a2),
        ]

    def test_n3_quad_slots(self, ctx3):
        a1, a2, a3 = ctx3.gens
        family = build_quadratic_family(3)
        assert len(family) == 7
        slots = {f.quad_slot for f in family}
        assert slots == {
            a1, a2, a1 * a2, a3, a1 * a3, a2 * a3, a1 * a2 * a3
        }

    def test_bad_rank(self):
        with pytest.raises(BadRank):
            build_quadratic_family(1)


class TestInsepObstruction:
    def test_family_certificate(self):
        family = build_quadratic_family(2)
        cert = insep_obstruction(family)
        assert cert.valid
        assert cert.intersection.classes == frozenset({(0, 0)})
        assert all(cert.hypothesis_checks)

    def test_pair_inconclusive(self, ctx2):
        a1, a2 = ctx2.gens
        pair = [
            QuadraticPfister(ctx2, (a1,), a2),
            QuadraticPfister(ctx2, (a2,), a1),
        ]
        cert = insep_obstruction(pair)
        assert not cert.valid
        assert cert.intersection.classes == frozenset({(0, 0), (1, 1)})

    def test_single_form_never_valid(self, ctx2, phi12):
        assert not insep_obstruction([phi12]).valid

    def test_hypothesis_failure_names_form(self, ctx2):
        a1, _ = ctx2.gens
        bad = QuadraticPfister(ctx2, (a1,), a1**3)
        with pytest.raises(HypothesisFailed, match="0"):
            insep_obstruction([bad])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            insep_obstruction([])

    def test_json(self):
        cert = insep_obstruction(build_quadratic_family(2))
        data = cert.to_json()
        assert data["valid"] is True
        assert data["intersection"] == [[0, 0]]


def reference_parities(form):
    """parity of each diagonal value, each value built as a field product."""
    return tuple(parity(d) for d in form.diagonal_values())


def _forms(ctx, max_degree, max_terms):
    """Forms of one to three slots, each a fraction of up to max_terms terms
    in numerator and denominator; many fail the slot hypothesis."""
    slots = nonzero_elements(ctx, max_degree=max_degree, max_terms=max_terms)
    return st.builds(
        lambda bilinear_slots, quad: QuadraticPfister(ctx, bilinear_slots, quad),
        st.lists(slots, max_size=2),
        slots,
    )


class TestDiagonalParities:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_family_matches_products(self, n):
        for form in build_quadratic_family(n):
            assert form.diagonal_parities() == reference_parities(form)

    @given(form=_forms(CTX2, max_degree=3, max_terms=4))
    def test_drawn_forms_n2(self, form):
        assert form.diagonal_parities() == reference_parities(form)

    @given(form=_forms(CTX3, max_degree=2, max_terms=3))
    def test_drawn_forms_n3(self, form):
        assert form.diagonal_parities() == reference_parities(form)

    def test_form_failing_the_hypothesis(self, ctx3):
        # several num and den terms, a positive value and dependent
        # parities: the product rule needs none of the hypothesis
        a1, a2, a3 = ctx3.gens
        one = ctx3.one
        slots = ((a1**3 + a2 * a3) / (a1 + a2**2 + one), (a2 + a3) / (a1 * a3 + one))
        form = QuadraticPfister(ctx3, slots, (a1**2 * a2 + a3) / (a1**5 + a2))
        assert not form._hypothesis_holds()
        assert form.diagonal_parities() == reference_parities(form)
        assert zero_parity_diagonal_count(form) == sum(
            p == (0, 0, 0) for p in reference_parities(form)[1:]
        )

    def test_certificate_builds_no_product(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a field product was built")

        monkeypatch.setattr(bilinear, "_products", refuse)
        monkeypatch.setattr(quadratic, "_products", refuse)
        monkeypatch.setattr(FieldElement, "__mul__", refuse)
        monkeypatch.setattr(Poly, "__mul__", refuse)
        assert all(verify_quadratic_family(4)["checks"].values())

    @pytest.mark.parametrize("n", [2, 3])
    def test_flipped_slot_parity_fails_a_check(self, monkeypatch, n):
        # the form whose block slot is a1 reads a1's parity as zero: its
        # diagonal value alpha then counts as a zero-parity value and its
        # missing class as the zero class
        real = QuadraticPfister._slot_parities

        def flipped(form):
            parities = list(real(form))
            if form.quad_slot == form.ctx.gens[0]:
                parities[-1] = (1 - parities[-1][0],) + parities[-1][1:]
            return tuple(parities)

        monkeypatch.setattr(QuadraticPfister, "_slot_parities", flipped)
        checks = verify_quadratic_family(n)["checks"]
        assert [key for key, ok in checks.items() if not ok] == [
            "pure_parity_images_miss_only_quad_slot",
            "two_dim_subspaces_hit_nonzero_parity",
        ]


class TestVerifyFamily:
    @pytest.mark.parametrize("n", [3, 6])
    def test_each_fact_taken_once_per_form(self, monkeypatch, n):
        # one value per slot and one hypothesis check per form, 2^n - 1
        # forms of n slots each; every parity is read off the slot values
        calls = {"val": 0, "parity": 0, "values_meet_hypothesis": 0}
        for name in calls:
            real = getattr(quadratic, name)

            def counted(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(quadratic, name, counted)
        evidence = verify_quadratic_family(n)
        assert all(evidence["checks"].values())
        assert calls == {
            "val": (2**n - 1) * n,
            "parity": 0,
            "values_meet_hypothesis": 2**n - 1,
        }

    def test_image_off_its_missing_class_fails_its_check(self, monkeypatch):
        # a pure image that also drops the zero class misses more than its
        # block slot's class; the intersection loses the zero class too
        real = QuadraticPfister.pure_parity_image

        def short(form):
            image = real(form)
            return ParitySet(image.n, image.classes - {(0,) * image.n})

        monkeypatch.setattr(QuadraticPfister, "pure_parity_image", short)
        checks = verify_quadratic_family(2)["checks"]
        assert [key for key, ok in checks.items() if not ok] == [
            "pure_parity_images_miss_only_quad_slot",
            "intersection_zero_only",
        ]


class TestTwoDimStep:
    def test_repeated_slot_fails(self, ctx2):
        # <<a1, a1]]: the diagonal value a1 * a1 at index 3 is a square
        a1, _ = ctx2.gens
        bad = QuadraticPfister(ctx2, (a1,), a1)
        assert bad.diagonal_values()[3] == a1 * a1
        assert zero_parity_diagonal_count(bad) == 1
        # and the failure is real: span(e_0, e_3) takes only squares
        assert not hits_nonzero_parity(bad, unit_vector(bad, 0), unit_vector(bad, 3))


class TestNecessaryInsepSplit:
    def test_excluded_class(self, ctx2, phi12):
        assert necessary_insep_split(phi12, ctx2.gens[1]) is False

    def test_present_class_inconclusive(self, ctx2, phi12):
        assert necessary_insep_split(phi12, ctx2.gens[0]) is True

    @given(c=nonzero_elements(CTX2, max_degree=2))
    def test_square_factor_invariance(self, c):
        ctx = CTX2
        a1, a2 = ctx.gens
        phi = QuadraticPfister(ctx, (a1,), a2)
        assert necessary_insep_split(phi, a2 * c * c) is False

    def test_zero_rejected(self, ctx2, phi12):
        with pytest.raises(ZeroSlot):
            necessary_insep_split(phi12, ctx2.zero)


class TestRightSlot:
    def test_trivial(self, ctx2, phi12):
        a2 = ctx2.gens[1]
        got = right_slot_from_value(phi12, ctx2.one, ctx2.zero, (ctx2.zero,) * 2)
        assert got == a2

    def test_with_pure_block(self, ctx2, phi12):
        a1, a2 = ctx2.gens
        got = right_slot_from_value(
            phi12, ctx2.one, ctx2.zero, (ctx2.one, ctx2.zero)
        )
        assert got == a1 + a2

    def test_zero_w(self, ctx2, phi12):
        with pytest.raises(ZeroW):
            right_slot_from_value(phi12, ctx2.zero, ctx2.one, (ctx2.zero,) * 2)

    def test_identity_on_samples(self, ctx2, phi12):
        rng = random.Random(13)
        from pflab.sampling import random_element, random_nonzero_element

        alpha = phi12.quad_slot
        for _ in range(50):
            w = random_nonzero_element(rng, ctx2)
            x = random_element(rng, ctx2)
            u = tuple(random_element(rng, ctx2, max_degree=1) for _ in range(2))
            got = right_slot_from_value(phi12, w, x, u)
            phi_pp = lambda vec: sum(
                (
                    c * (p.square() + p * q + alpha * q.square())
                    for c, (p, q) in zip(
                        phi12.block_coefficients()[1:], [(vec[0], vec[1])]
                    )
                ),
                ctx2.zero,
            )
            d = alpha * w.square() + w * x + x.square() + phi_pp(u)
            assert got == d / w.square()
            ratio = x / w
            assert got == alpha + ratio + ratio * ratio + phi_pp(
                tuple(e / w for e in u)
            )
