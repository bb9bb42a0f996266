"""Floating-point checks for the model cone metric and the axis-angle rotation.

This is the one module that computes with floats.  Result tolerances are
RESULT_TOL (1e-9) and orthogonality/determinant tolerances ORTHO_TOL (1e-12),
exposed as constants so tests and callers share them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import atan2, cos, inf, pi, sin, sqrt
from sys import float_info

RESULT_TOL = 1e-9
ORTHO_TOL = 1e-12

Vec3 = tuple[float, float, float]
Mat3 = tuple[Vec3, Vec3, Vec3]


# -- model cone metric ---------------------------------------------------------

def metric_tensor(z: tuple[complex, ...], weights: tuple[float, ...]) -> tuple[float, ...]:
    """Diagonal entries |z_i|^(2/w_i - 2) of the model cone metric."""
    if len(z) != len(weights):
        raise ValueError("point and weight arities differ")
    out = []
    for zi, wi in zip(z, weights):
        r = abs(zi)
        if r == 0:
            raise ValueError("metric is evaluated away from the coordinate hyperplanes")
        out.append(r ** (2.0 / wi - 2.0))
    return tuple(out)


def scaling_pullback_check(z: tuple[complex, ...], weights: tuple[float, ...],
                           tau: float) -> float:
    """Max relative defect of the diagonal-scaling identity on the metric.

    Pulls the metric back through z_i -> tau^{w_i} z_i by the chain rule and
    compares with tau^2 times the metric at z; exact in real arithmetic.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    base = metric_tensor(z, weights)
    scaled_point = tuple(zi * tau**wi for zi, wi in zip(z, weights))
    pulled = metric_tensor(scaled_point, weights)
    worst = 0.0
    for gi, pi_, wi in zip(base, pulled, weights):
        lhs = pi_ * tau ** (2.0 * wi)   # |d(tau^w z)|^2 factor from the chain rule
        rhs = tau**2 * gi
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    return worst


# -- axis-angle rotations --------------------------------------------------------

@dataclass(frozen=True)
class RotationSolution:
    """A rotation about an axis in the I-J plane carrying (c,0,0) to the target."""

    c: float
    axis: Vec3
    theta: float
    rotation: Mat3


def _dot(u: Vec3, v: Vec3) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross(u: Vec3, v: Vec3) -> Vec3:
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def rodrigues_matrix(axis: Vec3, theta: float) -> Mat3:
    """Rotation by theta about a unit axis, right-hand rule."""
    x, y, z = axis
    c, s = cos(theta), sin(theta)
    one = 1.0 - c
    return (
        (c + x * x * one, x * y * one - z * s, x * z * one + y * s),
        (y * x * one + z * s, c + y * y * one, y * z * one - x * s),
        (z * x * one - y * s, z * y * one + x * s, c + z * z * one),
    )


def apply_matrix(m: Mat3, v: Vec3) -> Vec3:
    return (_dot(m[0], v), _dot(m[1], v), _dot(m[2], v))


def rotation_from_target(d: float, e: float, f: float) -> RotationSolution:
    """Axis and angle rotating the first coordinate direction onto (d, e, f).

    The axis (a', b', 0) uses b' = (1 - d')/hypot(e', 1 - d'), the sign that
    equalizes the axis components of the start and target directions (the
    feasibility condition for a rotation about an axis in that plane); the
    angle follows from the components perpendicular to the axis.
    """
    norm2 = d * d + e * e + f * f
    if not float_info.min <= norm2 < inf:
        raise ValueError("target vector must be nonzero" if d == e == f == 0 else
                         f"target ({d}, {e}, {f}) is not finite or its norm over- or underflows")
    c = sqrt(norm2)
    dp, ep, fp = d / c, e / c, f / c
    den = sqrt((1.0 - dp) ** 2 + ep**2)
    if den == 0.0:
        axis: Vec3 = (1.0, 0.0, 0.0)
        theta = 0.0
    else:
        axis = (ep / den, (1.0 - dp) / den, 0.0)
        start: Vec3 = (1.0, 0.0, 0.0)
        target: Vec3 = (dp, ep, fp)
        ks = _dot(axis, start)
        v1 = tuple(s - ks * a for s, a in zip(start, axis))
        kt = _dot(axis, target)
        v2 = tuple(t - kt * a for t, a in zip(target, axis))
        theta = atan2(_dot(axis, _cross(v1, v2)), _dot(v1, v2))
        if theta < 0:
            theta += 2.0 * pi
    rotation = rodrigues_matrix(axis, theta)
    return RotationSolution(c, axis, theta, rotation)


def rotation_defect(sol: RotationSolution, d: float, e: float, f: float) -> float:
    """Euclidean norm of rotation @ (c, 0, 0) minus the target."""
    image = apply_matrix(sol.rotation, (sol.c, 0.0, 0.0))
    return sqrt((image[0] - d) ** 2 + (image[1] - e) ** 2 + (image[2] - f) ** 2)


def orthogonality_defect(m: Mat3) -> float:
    """Max absolute entry of m^T m - identity."""
    worst = 0.0
    for i in range(3):
        for j in range(3):
            entry = sum(m[k][i] * m[k][j] for k in range(3)) - (1.0 if i == j else 0.0)
            worst = max(worst, abs(entry))
    return worst


def determinant(m: Mat3) -> float:
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def spin_generators() -> tuple[Mat3, Mat3, Mat3]:
    """Basis (I, J, K) of so(3) scaled so that [I, J] = 2K cyclically."""
    gi: Mat3 = ((0.0, 0.0, 0.0), (0.0, 0.0, -2.0), (0.0, 2.0, 0.0))
    gj: Mat3 = ((0.0, 0.0, 2.0), (0.0, 0.0, 0.0), (-2.0, 0.0, 0.0))
    gk: Mat3 = ((0.0, -2.0, 0.0), (2.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    return gi, gj, gk


def commutator(a: Mat3, b: Mat3) -> Mat3:
    def mul(x: Mat3, y: Mat3) -> Mat3:
        return tuple(tuple(sum(x[i][k] * y[k][j] for k in range(3)) for j in range(3))
                     for i in range(3))
    ab, ba = mul(a, b), mul(b, a)
    return tuple(tuple(ab[i][j] - ba[i][j] for j in range(3)) for i in range(3))
