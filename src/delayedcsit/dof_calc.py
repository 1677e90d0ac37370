"""Exact-rational degrees-of-freedom formulas, bounds, and identities.

Every value here is a :class:`fractions.Fraction`; floating point never
enters.  The module covers the achievable DoF of the square (``M = K``)
scheme and its rectangular reduction, the converse upper bound, the
general-antenna recursion with its closed form (in both the published
and the corrected variant, see :func:`nonsquare_closed_form`), the
per-permutation outer-bound functional, the two combinatorial identities
used to match lower and upper bounds, and the coherence-block overhead
formula.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

__all__ = [
    "DofQuery",
    "NonsquarePhaseParams",
    "OutOfRegimeError",
    "coherence_dof",
    "dof_square",
    "dof_upper",
    "harmonic",
    "hockey_stick",
    "identity_check",
    "nonsquare_closed_form",
    "nonsquare_recursion",
    "outer_bound_lhs",
]


class OutOfRegimeError(ValueError):
    """A query fell outside the parameter regime an operation covers."""


@dataclass(frozen=True)
class DofQuery:
    """A (transmit antennas, receivers, message order) triple.

    Attributes
    ----------
    m : int
        Number of transmit antennas, at least 1.
    k : int
        Number of receivers, at least 1.
    j : int
        Message order: each symbol is simultaneously wanted by ``j``
        receivers.  Must satisfy ``1 <= j <= k``.
    """

    m: int
    k: int
    j: int = 1

    def __post_init__(self):
        if self.k < 1 or self.m < 1:
            raise ValueError(f"m and k must be positive, got m={self.m}, k={self.k}")
        if not 1 <= self.j <= self.k:
            raise ValueError(f"order j must satisfy 1 <= j <= k, got j={self.j}, k={self.k}")

    @property
    def square_regime(self) -> bool:
        """True when ``m >= k - j + 1``, i.e. the antenna count is large
        enough for the square-style phase at level ``j``."""
        return self.m >= self.k - self.j + 1


@dataclass(frozen=True)
class NonsquarePhaseParams:
    """Derived parameters of one antenna-limited phase.

    ``q`` is the number of usable overheard equations per slot,
    ``eta`` the gcd of ``q`` and ``k - j`` that makes the sub-phase
    scheduling integral, ``beta`` the number of order-``j`` symbols each
    sub-phase carries, and ``slots_per_subphase`` its length in slots.
    """

    q: int
    eta: int
    beta: int
    slots_per_subphase: int

    @classmethod
    def for_query(cls, q: DofQuery) -> "NonsquarePhaseParams":
        if q.j >= q.k:
            raise ValueError("phase parameters are defined for j < k only")
        qq = min(q.m - 1, q.k - q.j)
        eta = math.gcd(qq, q.k - q.j)
        beta = (qq + 1) * (q.k - q.j) // eta
        return cls(q=qq, eta=eta, beta=beta,
                   slots_per_subphase=(q.k - q.j) // eta)


def harmonic(k: int) -> Fraction:
    """Exact harmonic number ``H_k = 1 + 1/2 + ... + 1/k``."""
    if k < 1:
        raise ValueError(f"harmonic number needs k >= 1, got {k}")
    return sum(Fraction(1, i) for i in range(1, k + 1))


def dof_square(k: int, j: int) -> Fraction:
    """Achievable order-``j`` DoF with ``k`` receivers and enough antennas.

    Evaluates ``((k - j + 1) / j) / (1/j + 1/(j+1) + ... + 1/k)`` exactly.
    """
    if not 1 <= j <= k:
        raise ValueError(f"order j must satisfy 1 <= j <= k, got j={j}, k={k}")
    tail = sum(Fraction(1, i) for i in range(j, k + 1))
    return Fraction(k - j + 1, j) / tail


def dof_upper(q: DofQuery) -> Fraction:
    """Converse upper bound on the order-``j`` DoF for any ``(m, k)``.

    ``C(k, j) / sum_{i=1}^{k-j+1} C(k - i, j - 1) / min(i, m)``, exact.
    """
    denom = sum(
        Fraction(math.comb(q.k - i, q.j - 1), min(i, q.m))
        for i in range(1, q.k - q.j + 2)
    )
    return Fraction(math.comb(q.k, q.j)) / denom


@lru_cache(maxsize=None)
def _recursion_level(m: int, k: int) -> tuple:
    """Every level's DoF for ``(m, k)``, order ``j`` at index ``j - 1``,
    unrolled downward from order ``k`` (one symbol per slot)."""
    levels = [Fraction(1)]
    for j in range(k - 1, 0, -1):
        qj = min(m - 1, k - j)
        # (q_j + 1) / (j DoF_j) = 1/j + (q_j / (j+1)) / DoF_{j+1}
        levels.append(Fraction(qj + 1) / (1 + Fraction(j * qj, j + 1) / levels[-1]))
    return tuple(reversed(levels))


def nonsquare_recursion(q: DofQuery) -> Fraction:
    """Achievable order-``j`` DoF for arbitrary antenna count ``m``.

    Computed by unrolling the level recursion downward from the trivial
    order-``k`` broadcast (one symbol per slot).  Coincides with
    :func:`dof_square` whenever ``m >= k - j' + 1`` holds at every level
    ``j' >= j``.
    """
    return _recursion_level(q.m, q.k)[q.j - 1]


def nonsquare_closed_form(q: DofQuery, ratio_mode: str = "corrected") -> Fraction:
    """Closed-form evaluation of the antenna-limited recursion.

    Only defined in the antenna-limited regime ``m < k - j + 1``.  The
    geometric decay ratio across levels differs between the two modes:

    ``"printed"``
        Uses ratio ``m / (m + 1)``, reproducing the closed form exactly
        as published.  This does **not** agree with the recursion it is
        said to solve (e.g. it gives 9/7 instead of 24/17 at
        ``m=2, k=3, j=1``).
    ``"corrected"``
        Uses ratio ``(m - 1) / m`` and restores the leading ``1/j``
        factor that the published expression drops (the two expressions
        only coincide at ``j = 1``).  This variant equals
        :func:`nonsquare_recursion` on the whole regime, which is the
        ground truth here since the published worked example (24/17)
        comes from the recursion.

    Raises
    ------
    OutOfRegimeError
        If ``m >= k - j + 1`` (use :func:`dof_square` there).
    """
    if q.square_regime:
        raise OutOfRegimeError(
            f"closed form applies only when m < k - j + 1 "
            f"(got m={q.m}, k={q.k}, j={q.j})")
    if ratio_mode == "printed":
        ratio = Fraction(q.m, q.m + 1)
        order_factor = Fraction(1)
    elif ratio_mode == "corrected":
        ratio = Fraction(q.m - 1, q.m)
        order_factor = Fraction(1, q.j)
    else:
        raise ValueError(f"ratio_mode must be 'printed' or 'corrected', got {ratio_mode!r}")
    m, k, j = q.m, q.k, q.j
    boundary = k - m + 1  # first level at which the square tail takes over
    head = sum(Fraction(1, i) * ratio ** (i - j) for i in range(j, boundary + 1))
    tail = ratio ** (boundary - j) * sum(Fraction(1, i) for i in range(boundary + 1, k + 1))
    return Fraction(m) * order_factor / (head + tail)


def outer_bound_lhs(k: int, j: int, d, pi) -> Fraction:
    """Left-hand side of the per-permutation converse inequality.

    ``sum_{i=1}^{k-j+1} (1/i) * sum_S d_S`` where the inner sum ranges
    over size-``j`` subsets ``S`` that contain ``pi[i-1]`` and avoid all
    earlier entries ``pi[0..i-2]`` of the permutation.

    Parameters
    ----------
    k, j : int
        Receiver count and message order.
    d : mapping
        Maps every size-``j`` subset of ``{1..k}`` (any iterable of
        receiver ids; compared as frozensets) to its DoF value.
    pi : sequence
        A permutation of ``1..k``.

    Raises
    ------
    ValueError
        If ``pi`` is not a permutation of ``1..k`` or ``d`` misses a
        subset key.
    """
    if not 1 <= j <= k:
        raise ValueError(f"order j must satisfy 1 <= j <= k, got j={j}, k={k}")
    universe = frozenset(range(1, k + 1))
    if frozenset(pi) != universe or len(pi) != k:
        raise ValueError(f"pi must be a permutation of 1..{k}, got {pi!r}")
    dd = {frozenset(s): Fraction(v) for s, v in d.items()}
    for s in combinations(range(1, k + 1), j):
        if frozenset(s) not in dd:
            raise ValueError(f"d is missing the subset {set(s)}")
    total = Fraction(0)
    for i in range(1, k - j + 2):
        allowed = universe - frozenset(pi[: i - 1])
        pivot = pi[i - 1]
        inner = sum(
            (v for s, v in dd.items() if pivot in s and s <= allowed),
            start=Fraction(0),
        )
        total += Fraction(1, i) * inner
    return total


def identity_check(k: int, j: int) -> tuple[Fraction, Fraction]:
    """Both sides of the harmonic-tail identity; they must be equal.

    ``lhs = (1 / C(k, j-1)) * sum_{i=1}^{k-j+1} C(k - i, j - 1) / i`` and
    ``rhs = sum_{i=j}^{k} 1/i``.  The identity is what collapses the
    converse denominator into the harmonic tail of the achievable DoF.
    """
    if not 1 <= j <= k:
        raise ValueError(f"order j must satisfy 1 <= j <= k, got j={j}, k={k}")
    lhs = sum(
        Fraction(math.comb(k - i, j - 1), i) for i in range(1, k - j + 2)
    ) / math.comb(k, j - 1)
    rhs = sum(Fraction(1, i) for i in range(j, k + 1))
    return lhs, rhs


def hockey_stick(p: int, q: int) -> tuple[Fraction, Fraction]:
    """Both sides of the binomial column-sum identity; they must be equal.

    ``lhs = sum_{l=p}^{q} C(l, p)`` and ``rhs = C(q + 1, p + 1)``.
    """
    if p < 0 or p > q:
        raise ValueError(f"need 0 <= p <= q, got p={p}, q={q}")
    lhs = Fraction(sum(math.comb(l, p) for l in range(p, q + 1)))
    rhs = Fraction(math.comb(q + 1, p + 1))
    return lhs, rhs


def coherence_dof(tc_wc) -> Fraction:
    """DoF of the two-user scheme when CSI feedback costs real slots.

    With a coherence time-bandwidth product of ``tc_wc`` symbols per
    block, training and feedback overhead leave
    ``(2 tc_wc - 2) / (1.5 tc_wc + 0.5)`` degrees of freedom, which
    tends to 4/3 as the block length grows.

    Raises
    ------
    ValueError
        If ``tc_wc <= 1`` (no payload symbols remain).
    """
    t = Fraction(tc_wc)
    if t <= 1:
        raise ValueError(f"coherence block must exceed 1 symbol, got {tc_wc}")
    return (2 * t - 2) / (Fraction(3, 2) * t + Fraction(1, 2))
