"""Channel distance and minimum distance of a code.

``distance_general`` handles every channel; at k- = 0 it is the asymmetric
distance, the larger one-sided disagreement count.  It does not satisfy the
triangle inequality, so nothing here (or anywhere downstream) assumes
metric axioms.  Values live on [0, n+1]; n+1 is an ordinary integer encoding
"out of magnitude range", since every use is an order comparison.  Each
function takes the channel as one ``ChannelParams`` p and reads no p.t.

``code_min_distance`` evaluates one pair of an explicit code per row of
``combinatorics.difference_classes``, which keeps them in the one cache.
The lattice scan, ``lattice.max_pairwise_intersection_lattice``, sorts its
own difference rows and makes them distinct with ``core.distinct_rows``.
"""

from __future__ import annotations

from dataclasses import dataclass

from magrec.combinatorics import difference_classes
from magrec.core import ChannelParams, Vec, check_ints


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


def distance_components(x: Vec, y: Vec, p: ChannelParams) -> DistanceComponents:
    if not len(x) == len(y) == p.n:
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}, channel n={p.n}")
    check_ints(x=x, y=y)
    k_plus, k_minus, span = p.k_plus, p.k_minus, p.magnitude_span
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


def distance_general(x: Vec, y: Vec, p: ChannelParams) -> int:
    """Distance capturing correction of (k+, k-)-limited-magnitude errors.

    n+1 when some coordinate difference exceeds k+ + k-; otherwise

        ceil(max(n_small - |m_forward - m_backward|, 0) / 2)
        + max(m_forward, m_backward) + n_large.

    At k- = 0 this is n+1 when some |x[i]-y[i]| exceeds k+, and otherwise
    the larger one-sided disagreement count.  It reads no t.  An entry that
    is no integer is a ValueError (``core.check_ints``).
    """
    c = distance_components(x, y, p)
    if c.exceeds:
        return p.n + 1
    half = max(c.n_small - abs(c.m_forward - c.m_backward), 0)
    return -(-half // 2) + max(c.m_forward, c.m_backward) + c.n_large


def code_min_distance(code_members, p: ChannelParams) -> int:
    """Minimum general distance over pairs of distinct codewords, one per
    ``difference_classes`` row; n+1 (no distance within n) when none.
    ``code_members`` is an ``ExplicitCode`` or an iterable of vectors."""
    classes = difference_classes(code_members, p).tolist()
    return min((distance_general((0,) * p.n, d, p) for d in classes), default=p.n + 1)
