"""Bound tables for the least middle entry, and the interval picture.

For socle degree e and codimension r, write f(r) for the least possible
degree-2 entry of a Gorenstein Hilbert function (1, r, a, ..., r, 1).
Exact values are known for r <= 13 (e = 4) and r <= 16 (e = 5); beyond
that the toolkit maintains certified upper bounds, each backed by an
explicit form whose Hilbert function is recomputed before anything is
trusted.  Every a between f(r) and the cap C(r+1, 2) is realizable, and
the interval conjecture check cross-verifies the whole table.
"""

import tempfile
from pathlib import Path

from apolar import (
    asymptotic_reference,
    classify_h_vector,
    gic_verify,
    hilbert_function,
    known_min_h2,
    load_table,
    max_h2,
    merge_store,
    realize_interval,
    search_min_h2,
)

# Exact regime: the search recovers each known value and flags it exact.
print("socle degree 4, known range:")
for r in (3, 8, 12, 13):
    en = search_min_h2(4, r)
    print(f"  r={r:>2}  bound={en.bound:>2}  exact={en.exact}  "
          f"certificate in {en.nvars} variables")

# Open regime: certified upper bounds only.  All of them sit at r - 1,
# consistent with the middle entry dropping below r from 13 on; the
# asymptotic growth rate is printed as an annotation, never as a bound.
print("\nsocle degree 4, open range:")
for r in (14, 16, 18, 20):
    en = search_min_h2(4, r)
    print(f"  r={r:>2}  bound<={en.bound:>2}  reference {asymptotic_reference(4, r):.1f}")

# Socle degree 5: the first drop below r is only reachable at r = 17,
# via a truncated variant of the bipartite construction.
en = search_min_h2(5, 17)
F = en.parse_certificate()
print(f"\nsocle degree 5, r=17: bound<={en.bound}, HF {hilbert_function(F)}")

# Every middle value in [f(r), C(r+1,2)] is realized by some certificate.
certs = realize_interval(4, 5)
print(f"\nrealized interval at e=4, r=5: a in [{known_min_h2(4, 5)}, {max_h2(5)}]")
for a in sorted(certs):
    print(f"  a={a:>2}: {hilbert_function(certs[a])}")

# Classification uses exact values inside the known range and certified
# bounds beyond it; anything in between stays honestly unknown.
print("\nclassification:")
for e, r, a in [(4, 13, 12), (4, 13, 11), (3, 7, 7), (4, 14, 13), (4, 14, 10)]:
    print(f"  (e={e}, r={r}, a={a}) ->", classify_h_vector(e, r, a))

# Entries persist in a JSON table; the interval-conjecture report checks
# that no certified bound at larger r undercuts an exact value at smaller
# r, and that every certificate survives a random hyperplane cut.
with tempfile.TemporaryDirectory() as tmp:
    path = str(Path(tmp) / "bounds.json")
    merge_store(path, [search_min_h2(4, r) for r in range(3, 14)])
    table = load_table(path)
    report = gic_verify(4, 3, 13, table, seed=0)
    print(f"\ninterval check over r=3..13: nondecreasing={report.nondecreasing}, "
          f"descent ok={all(d['ok'] for d in report.descent)}")
    for row in report.rows[-3:]:
        print(f"  r={row['r']}  lower={row['lower']}  upper={row['upper']}")
