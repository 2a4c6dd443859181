"""Quaternion algebras in characteristic 2 and their norm forms."""

import itertools
import random

import pytest

from pflab import (
    AlgebraMismatch,
    HypothesisFailed,
    QuaternionAlgebra,
    ZeroSlot,
    build_quadratic_family,
    build_quat_triple,
    quat_triple_obstruction,
)
from pflab.sampling import random_element


@pytest.fixture
def qa(ctx2):
    a1, a2 = ctx2.gens
    return QuaternionAlgebra(ctx2, a1, a2)  # (a2, a1]: x^2+x=a1, y^2=a2


class TestRelations:
    def test_x_squared(self, ctx2, qa):
        a1 = ctx2.gens[0]
        assert (qa.x * qa.x).coords == (a1, ctx2.one, ctx2.zero, ctx2.zero)

    def test_y_squared(self, ctx2, qa):
        a2 = ctx2.gens[1]
        assert (qa.y * qa.y).coords == (a2, ctx2.zero, ctx2.zero, ctx2.zero)

    def test_yx_is_xy_plus_y(self, ctx2, qa):
        xy = qa.x * qa.y
        assert qa.y * qa.x == xy + qa.y

    def test_basis_associativity_exhaustive(self, ctx2, qa):
        basis = [qa.one, qa.x, qa.y, qa.x * qa.y]
        for p, q, r in itertools.product(basis, repeat=3):
            assert (p * q) * r == p * (q * r)

    def test_zero_beta_rejected(self, ctx2):
        with pytest.raises(ZeroSlot):
            QuaternionAlgebra(ctx2, ctx2.gens[0], ctx2.zero)

    def test_algebra_mismatch(self, ctx2, qa):
        a1, a2 = ctx2.gens
        other = QuaternionAlgebra(ctx2, a2, a1)
        with pytest.raises(AlgebraMismatch):
            qa.x * other.x


class TestNorm:
    def test_one(self, ctx2, qa):
        assert qa.one.norm() == ctx2.one

    def test_scalar_plus_x(self, ctx2, qa):
        a1, a2 = ctx2.gens
        rng = random.Random(3)
        for _ in range(20):
            a = random_element(rng, ctx2, max_degree=2)
            b = random_element(rng, ctx2, max_degree=2)
            q = qa.element(a, b, ctx2.zero, ctx2.zero)
            assert q.norm() == a * a + a * b + a1 * b * b

    def test_y(self, ctx2, qa):
        assert qa.y.norm() == ctx2.gens[1]

    def test_norm_is_q_times_conj(self, ctx2, qa):
        rng = random.Random(4)
        for _ in range(30):
            coords = tuple(
                random_element(rng, ctx2, max_degree=1) for _ in range(4)
            )
            q = qa.element(*coords)
            prod = q * q.conj()
            assert prod.coords[1:] == (ctx2.zero,) * 3
            assert prod.coords[0] == q.norm()
            # zero norms would exhibit zero divisors; the form is anisotropic
            if any(coords):
                assert q.norm()

    def test_norm_form_matches(self, ctx2, qa):
        nf = qa.norm_form()
        assert nf.bilinear_slots == (ctx2.gens[1],)
        assert nf.quad_slot == ctx2.gens[0]

    def test_conj_involution(self, ctx2, qa):
        rng = random.Random(6)
        for _ in range(20):
            p = qa.element(
                *(random_element(rng, ctx2, max_degree=1) for _ in range(4))
            )
            q = qa.element(
                *(random_element(rng, ctx2, max_degree=1) for _ in range(4))
            )
            assert p.conj().conj() == p
            assert (p * q).conj() == q.conj() * p.conj()

    def test_multiplicativity_samples(self, ctx2, qa):
        rng = random.Random(8)
        for _ in range(40):
            p = qa.element(
                *(random_element(rng, ctx2, max_degree=1) for _ in range(4))
            )
            q = qa.element(
                *(random_element(rng, ctx2, max_degree=1) for _ in range(4))
            )
            assert (p * q).norm() == p.norm() * q.norm()


class TestArithmetic:
    def test_add_sub(self, ctx2, qa):
        p = qa.element(ctx2.one, ctx2.gens[0], ctx2.zero, ctx2.one)
        assert p + p == qa.element(*(ctx2.zero,) * 4)
        assert p - p == p + p

    def test_scalar_part(self, ctx2, qa):
        p = qa.element(ctx2.gens[1], ctx2.zero, ctx2.zero, ctx2.zero)
        assert p.scalar_part() == ctx2.gens[1]
        assert (p + qa.x).scalar_part() is None

    def test_distributivity(self, ctx2, qa):
        rng = random.Random(9)
        for _ in range(20):
            p, q, r = (
                qa.element(
                    *(random_element(rng, ctx2, max_degree=1) for _ in range(4))
                )
                for _ in range(3)
            )
            assert p * (q + r) == p * q + p * r
            assert (p + q) * r == p * r + q * r


class TestTriple:
    def test_algebra_slots(self, ctx2):
        a1, a2 = ctx2.gens
        q1, q2, q3 = build_quat_triple(a1, a2)
        # (beta, alpha] pairs: (a2,a1], (a1,a2], (a2,a1*a2]
        assert (q1.beta, q1.alpha) == (a2, a1)
        assert (q2.beta, q2.alpha) == (a1, a2)
        assert (q3.beta, q3.alpha) == (a2, a1 * a2)

    def test_norm_forms_match_family(self, ctx2):
        a1, a2 = ctx2.gens
        triple = build_quat_triple(a1, a2)
        family = build_quadratic_family(2)
        assert [q.norm_form() for q in triple] == family

    def test_hypothesis_failure(self, ctx2):
        a1, _ = ctx2.gens
        with pytest.raises(HypothesisFailed, match="parity independence"):
            build_quat_triple(a1, a1)
        with pytest.raises(HypothesisFailed):
            build_quat_triple(a1, a1**3)

    def test_obstruction_valid(self, ctx2):
        a1, a2 = ctx2.gens
        cert = quat_triple_obstruction(a1, a2)
        assert cert.valid
        assert cert.intersection.classes == frozenset({(0, 0)})

    def test_obstruction_with_cube(self, ctx2):
        a1, a2 = ctx2.gens
        assert quat_triple_obstruction(a1, a2**3).valid

    def test_json(self, ctx2, qa):
        data = qa.to_json()
        assert data["type"] == "quaternion"

    def test_json_without_alpha(self, ctx2, qa):
        data = qa.to_json()
        del data["alpha"]
        with pytest.raises(ValueError):
            QuaternionAlgebra.from_json(ctx2, data)
