"""Model metric scaling and the axis-angle rotation construction."""

import random
from math import cos, pi, sin, sqrt

import pytest

from conify.numerics import (
    ORTHO_TOL,
    RESULT_TOL,
    apply_matrix,
    commutator,
    determinant,
    metric_tensor,
    orthogonality_defect,
    rodrigues_matrix,
    rotation_defect,
    rotation_from_target,
    scaling_pullback_check,
    spin_generators,
)


class TestMetric:
    def test_unit_moduli(self):
        assert metric_tensor((1 + 0j, 1 + 0j), (2.0, 2.0)) == (1.0, 1.0)

    def test_inverse_power(self):
        (value,) = metric_tensor((4 + 0j,), (2.0,))
        assert abs(value - 0.25) < 1e-15

    def test_flat_weight_one(self):
        assert metric_tensor((1 + 0j,), (1.0,)) == (1.0,)

    def test_zero_coordinate_rejected(self):
        with pytest.raises(ValueError):
            metric_tensor((0j,), (1.0,))


class TestScaling:
    def test_flat_case_exact(self):
        assert scaling_pullback_check((3 + 4j,), (1.0,), 2.0) == 0.0

    def test_weight_two(self):
        assert scaling_pullback_check((1 + 0j,), (2.0,), 2.0) < 1e-12

    def test_random_samples(self):
        rng = random.Random(67)
        worst = 0.0
        for _ in range(1000):
            n = rng.randint(1, 4)
            z = tuple(complex(rng.uniform(0.2, 3), rng.uniform(-3, 3)) for _ in range(n))
            w = tuple(rng.uniform(0.1, 10) for _ in range(n))
            tau = rng.uniform(0.1, 5)
            worst = max(worst, scaling_pullback_check(z, w, tau))
        assert worst < RESULT_TOL


class TestRotation:
    def test_already_aligned(self):
        sol = rotation_from_target(1, 0, 0)
        assert sol.c == 1.0 and sol.theta == 0.0
        assert rotation_defect(sol, 1, 0, 0) < ORTHO_TOL

    def test_quarter_case_diagonal_axis(self):
        sol = rotation_from_target(0, 1, 0)
        assert abs(sol.c - 1.0) < ORTHO_TOL
        assert abs(sol.axis[0] - 1 / sqrt(2)) < ORTHO_TOL
        assert abs(sol.axis[1] - 1 / sqrt(2)) < ORTHO_TOL
        assert sol.axis[2] == 0.0
        assert abs(sol.theta - pi) < ORTHO_TOL
        # direct half-turn image: 2(n.x)n - x
        image = apply_matrix(sol.rotation, (1.0, 0.0, 0.0))
        assert max(abs(a - b) for a, b in zip(image, (0.0, 1.0, 0.0))) < ORTHO_TOL

    def test_third_axis_three_quarter_turn(self):
        sol = rotation_from_target(0, 0, 1)
        assert abs(sol.axis[1] - 1.0) < ORTHO_TOL
        assert abs(sol.theta - 3 * pi / 2) < ORTHO_TOL
        assert rotation_defect(sol, 0, 0, 1) < ORTHO_TOL

    def test_antipodal_tie_break(self):
        sol = rotation_from_target(-1, 0, 0)
        assert abs(sol.theta - pi) < ORTHO_TOL
        assert abs(sol.axis[1] - 1.0) < ORTHO_TOL
        assert rotation_defect(sol, -1, 0, 0) < ORTHO_TOL

    def test_degenerate_zero_rejected(self):
        with pytest.raises(ValueError):
            rotation_from_target(0, 0, 0)

    @pytest.mark.parametrize("target", [(float("nan"), 1.0, 1.0), (float("inf"), 1.0, 1.0),
                                        (1e200, 0.0, 1.0), (1e-200, 0.0, 0.0)],
                             ids=["nan", "inf", "overflow", "underflow"])
    def test_non_finite_or_unrepresentable_norm_rejected(self, target):
        # NaN and inf would reach the output as non-JSON literals; 1e200 squared
        # overflows to an identity rotation with c = inf, and 1e-200 squared
        # underflows to a false "zero vector".
        with pytest.raises(ValueError, match="not finite or its norm over- or underflows"):
            rotation_from_target(*target)

    def test_random_reconstruction(self):
        rng = random.Random(71)
        for _ in range(1000):
            d, e, f = (rng.uniform(-5, 5) for _ in range(3))
            if d == 0 and e == 0 and f == 0:
                continue
            sol = rotation_from_target(d, e, f)
            assert rotation_defect(sol, d, e, f) < RESULT_TOL
            assert orthogonality_defect(sol.rotation) < ORTHO_TOL
            assert abs(determinant(sol.rotation) - 1.0) < ORTHO_TOL
            # feasibility: axis components of start and target agree
            c = sol.c
            n = sol.axis
            assert abs(n[0] - (n[0] * d + n[1] * e + n[2] * f) / c) < ORTHO_TOL
            # theta within [0, 2pi)
            assert 0.0 <= sol.theta < 2 * pi

    def test_rodrigues_matches_rotation_formula(self):
        rng = random.Random(73)
        for _ in range(100):
            # random unit axis and angle
            x, y, z = (rng.gauss(0, 1) for _ in range(3))
            norm = sqrt(x * x + y * y + z * z) or 1.0
            axis = (x / norm, y / norm, z / norm)
            theta = rng.uniform(0, 2 * pi)
            m = rodrigues_matrix(axis, theta)
            v = tuple(rng.gauss(0, 1) for _ in range(3))
            # direct Rodrigues evaluation on the vector
            cross = (axis[1] * v[2] - axis[2] * v[1],
                     axis[2] * v[0] - axis[0] * v[2],
                     axis[0] * v[1] - axis[1] * v[0])
            dot = sum(a * b for a, b in zip(axis, v))
            expected = tuple(
                v[i] * cos(theta) + cross[i] * sin(theta) + axis[i] * dot * (1 - cos(theta))
                for i in range(3))
            got = apply_matrix(m, v)
            assert max(abs(a - b) for a, b in zip(got, expected)) < 1e-12


class TestSpinGenerators:
    def test_commutation_relations(self):
        gi, gj, gk = spin_generators()
        for a, b, c in ((gi, gj, gk), (gj, gk, gi), (gk, gi, gj)):
            got = commutator(a, b)
            assert max(abs(got[i][j] - 2 * c[i][j]) for i in range(3)
                       for j in range(3)) == 0.0
