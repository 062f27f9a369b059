"""The channel distance and the minimum distance of an explicit code.

``distance_general`` handles every channel; at k- = 0 it is the asymmetric
distance, the larger one-sided disagreement count.  It does not satisfy the
triangle inequality, so nothing here (or anywhere downstream) assumes
metric axioms.  Values live on [0, n+1]; n+1 is an ordinary integer encoding
"out of magnitude range", since every use is an order comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from magrec.core import Vec


@dataclass(frozen=True)
class DistanceComponents:
    """Coordinate classification feeding the general distance.

    n_small counts 0 < |x[i]-y[i]| <= k-; n_large counts
    k+ < |x[i]-y[i]| <= k+ + k-; m_forward / m_backward count
    k- < x[i]-y[i] <= k+ in the two orientations; exceeds flags any
    coordinate past k+ + k-.
    """

    n_small: int
    n_large: int
    m_forward: int
    m_backward: int
    exceeds: bool


def distance_components(x: Vec, y: Vec, k_plus: int, k_minus: int) -> DistanceComponents:
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    span = k_plus + k_minus
    n_small = n_large = m_fwd = m_bwd = 0
    exceeds = False
    for a, b in zip(x, y):
        d = a - b
        ad = abs(d)
        if ad > span:
            exceeds = True
        elif 0 < ad <= k_minus:
            n_small += 1
        elif k_plus < ad <= span:
            n_large += 1
        elif k_minus < d <= k_plus:
            m_fwd += 1
        elif k_minus < -d <= k_plus:
            m_bwd += 1
    return DistanceComponents(n_small, n_large, m_fwd, m_bwd, exceeds)


def distance_general(x: Vec, y: Vec, k_plus: int, k_minus: int) -> int:
    """Distance capturing correction of (k+, k-)-limited-magnitude errors.

    n+1 when some coordinate difference exceeds k+ + k-; otherwise

        ceil(max(n_small - |m_forward - m_backward|, 0) / 2)
        + max(m_forward, m_backward) + n_large.

    At k- = 0 this is n+1 when some |x[i]-y[i]| exceeds k+, and otherwise
    the larger one-sided disagreement count.
    """
    if k_minus < 0 or k_plus < k_minus:
        raise ValueError("need k_plus >= k_minus >= 0")
    c = distance_components(x, y, k_plus, k_minus)
    if c.exceeds:
        return len(x) + 1
    half = max(c.n_small - abs(c.m_forward - c.m_backward), 0)
    return -(-half // 2) + max(c.m_forward, c.m_backward) + c.n_large


def code_min_distance(code_members, k_plus: int, k_minus: int) -> int:
    """Minimum pairwise general distance over distinct codewords."""
    members = sorted(tuple(m) for m in code_members)
    if len(members) < 2:
        raise ValueError("need at least 2 codewords")
    return min(
        distance_general(a, b, k_plus, k_minus) for a, b in combinations(members, 2)
    )

