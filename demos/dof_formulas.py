"""
Degrees-of-freedom calculators
==============================

Exact rational DoF values for the broadcast channel with completely
delayed transmitter CSI: the square-system formula, the general upper
bound, the recursion for fewer antennas than receivers, and the
combinatorial identities behind them.
"""

from fractions import Fraction

from delayedcsit import (
    DofQuery,
    dof_square,
    dof_upper,
    harmonic,
    identity_check,
    nonsquare_closed_form,
    nonsquare_recursion,
)

# The square system (as many antennas as receivers) delivering order-1
# symbols: DoF = K / H_K, which grows like K / ln K.
print("square system, order-1 symbols")
print(f"{'K':>3} {'DoF':>10} {'float':>8} {'K/H_K':>10}")
for k in (1, 2, 3, 4, 5, 8, 16):
    d = dof_square(k, 1)
    assert d == k / harmonic(k)
    print(f"{k:>3} {str(d):>10} {float(d):>8.4f} {str(k / harmonic(k)):>10}")

# Fewer antennas than receivers: the recursion bottoms out at order K
# (plain broadcast, one symbol per slot) and climbs back down to order j.
print()
print("M antennas, K receivers, order-1 symbols: lower (achieved) vs upper")
print(f"{'M':>3} {'K':>3} {'lower':>10} {'upper':>8} {'tight':>6}")
for m, k in [(1, 3), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4), (2, 5)]:
    q = DofQuery(m, k, 1)
    lower = nonsquare_recursion(q)
    upper = dof_upper(q)
    print(f"{m:>3} {k:>3} {str(lower):>10} {str(upper):>8} "
          f"{str(lower == upper):>6}")

# The bound is tight whenever M >= K - j + 1; below that the best known
# scheme and the bound can differ, e.g. (M, K) = (2, 3) gives 24/17
# against an upper bound of 3/2 -- and 3/2 is actually achievable by a
# hand-crafted scheme, so the generic chain is not optimal there.
print()
q = DofQuery(2, 3, 1)
print(f"(2,3) recursion      : {nonsquare_recursion(q)}")
print(f"(2,3) upper bound    : {dof_upper(q)}")

# The published closed form for the non-square case contains a typo: as
# printed it disagrees with the recursion it was derived from.  Both
# readings are available; 'corrected' always matches the recursion.
print(f"(2,3) closed, printed: {nonsquare_closed_form(q, ratio_mode='printed')}")
print(f"(2,3) closed, fixed  : {nonsquare_closed_form(q, ratio_mode='corrected')}")

# Spot-check the telescoping identity that makes the square formula and
# the upper bound agree on the diagonal M = K - j + 1.
print()
ok = all(identity_check(k, j)[0] == identity_check(k, j)[1]
         for k in range(1, 21) for j in range(1, k + 1))
print(f"identity sweep K <= 20: {'all equal' if ok else 'MISMATCH'}")
assert ok

total = Fraction(0)
for j in range(1, 4):
    total += dof_square(3, j)
print(f"sum of order-1..3 DoF at K=3 (just a curiosity): {total}")
