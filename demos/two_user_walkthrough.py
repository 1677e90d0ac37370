"""
Two-user scheme, slot by slot
=============================

The smallest interesting case: two single-antenna receivers, two
transmit antennas, channel state known only after the fact.  Three
slots deliver four symbols (DoF 4/3) because the transmitter can
rebroadcast what each receiver overheard about the other's symbols.
"""

import numpy as np

from delayedcsit import RngStream, alignment_ranks, run_square_scheme

trace = run_square_scheme(2, RngStream(7))
table = trace.table

print("symbols and owners")
for i, (owner, label) in enumerate(zip(table.owners, table.labels)):
    owners = ",".join(str(r) for r in sorted(owner))
    print(f"  symbol {i} ({label}) -> wanted by receiver(s) {owners}")


def fmt(row):
    # a form is a row of coefficients over the symbol table
    parts = []
    for s in np.flatnonzero(row):
        c = row[s]
        parts.append(f"({c.real:+.2f}{c.imag:+.2f}j)*x{s}")
    return " + ".join(parts) if parts else "0"


# Slot 1 sends receiver 1's two symbols on two antennas, slot 2 does the
# same for receiver 2, and slot 3 broadcasts one linear combination that
# each receiver can subtract its own overheard slot from.
# The trace keeps the plans sent as blocks, one per broadcast, and what
# each receiver heard as one row array: rows[r - 1, slot] is receiver r's
# equation of that slot (every slot here has an active antenna).
plans = [plan for block in trace.plans for plan in block]
for slot, plan in enumerate(plans):
    print()
    print(f"slot {slot}: {len(plan)} antenna(s) active")
    for a, form in enumerate(plan):
        print(f"  antenna {a} sends {fmt(form)}")
    for r, rows in enumerate(trace.rows, start=1):
        print(f"  receiver {r} hears {fmt(rows[slot])} + noise")

# After slot 3, receiver 1 has three equations in four unknowns, but the
# two interference symbols only ever appear in one combined direction:
# the interference occupies rank 1, the desired symbols rank 2.
desired_rank, interference_rank = alignment_ranks(trace)
print()
print(f"receiver 1 desired-signal rank     : {desired_rank} (needs 2)")
print(f"receiver 1 interference rank       : {interference_rank} (aligned to 1)")

print(f"every receiver decodes its symbols : {trace.decode_ok()}")
print(f"symbols delivered / slots used     : "
      f"{trace.symbols_delivered}/{trace.total_slots}"
      f" = {trace.empirical_dof} DoF")

# The decode check's margins: a target decodes when its residual is at
# most its threshold (a ratio of at most 1), and a receiver must have full
# row rank, every singular value above NumPy's floor (here none is at or
# below it).
ratios, kept, dropped = trace.decode_residuals()
print(f"worst residual / threshold         : {max(ratios):.1e}")
print(f"smallest kept singular value / s_0 : {min(kept):.2e}")
print(f"largest dropped singular value/s_0 : {max(dropped):.2e}")
