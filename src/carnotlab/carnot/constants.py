"""Unit gauge-ball volume constant c_d = |B(0, 1)| in closed form.

|B(x, r)| = c_d r^Q holds exactly for gauge balls, so c_d fixes all ball
volumes.  Under the layered gauge the unit ball of every supported group is
{|x^(1)|^4 + |x^(2)|^2 < 1}, whatever its forms, so with n = n1 + n2

    c_d = pi^(n/2) Gamma(n1/4) / (2 Gamma(n1/2) Gamma(n1/4 + n2/2 + 1)),

which is w_{n2} |S^{n1-1}| (1/4) B(n1/4, n2/2 + 1), with w_{n2} the volume
of the unit ball of R^{n2}: the slice over x^(1) is an n2-ball of radius
(1 - |x^(1)|^4)^(1/2), and s = |x^(1)|^4 turns the radial integral into a
Beta function.  With n2 = 0 it reduces to the Euclidean pi^(n/2) /
Gamma(n/2 + 1).
"""

from __future__ import annotations

import math

from ..errors import DomainError


def volume_constant(group):
    """c_d of the group's layered gauge (step 1: n2 = 0)."""
    n1, n2 = group.n1, group.n2
    # In this order the result equals the direct Euclidean and Heisenberg
    # formulas bit for bit on R^1 and H^1..H^5, so seeded outputs there are
    # independent of which form is used.
    return (
        math.pi ** ((n1 + n2) / 2)
        * math.gamma(n1 / 4)
        / math.gamma(n1 / 4 + n2 / 2 + 1)
        / (2 * math.gamma(n1 / 2))
    )


def ball_volume(group, r):
    """|B(x, r)| = c_d r^Q; independent of the center by left invariance."""
    if not r > 0:
        raise DomainError(f"ball radius must be positive, got {r}")
    return volume_constant(group) * r**group.homogeneous_dimension
