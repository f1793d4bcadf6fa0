"""Applications: derived densities and special-cycle intersection numbers.

The derived density of the rank-4 unimodular class is the |mu|-weighted
twin of the column chain of alpha(1_4, B); rank-2 intersection numbers are a
weighted lattice sum; and the conjectural expansion relates the rank-4
derived density to horizontal terms and vertex-lattice counts, also lattice
sums.  Every sum is exact over its support box: a label with a part above
B's is 0, so only the partitions inside the box are summed.
"""

from hermdens import Q, conjecture_check, derivative_0000, sankaran_intersection
from hermdens.geometry import difference_identity_check

print("== derived densities of (a,1,0,0): linear in a/2 ==")
for a in (2, 4, 6, 8):
    print(f"D(A_{a}100) =", derivative_0000((a, 1, 0, 0)))
print("closed form: (q+1) a/2 + 1")

print("\n== a family with richer structure ==")
for a in (4, 6):
    print(f"D(A_{a}311) =", derivative_0000((a, 3, 1, 1)))

print("\n== each sum runs over its support box ==")
report = conjecture_check((6, 3, 1, 1))
print("the sums of the expansion of D(A_6311); rhs =", report.rhs)
for rep in report.truncation:
    levels = ", ".join(f"{r.level}:{r.terms}{'*' if r.all_zero else ''}" for r in rep.levels)
    print(f"  sum {rep.name} over box {rep.box}: level:terms {levels} (starred = all-zero)")

print("\n== rank-2 intersection numbers ==")
print("<Z(x),Z(y)> for B = A_11:", sankaran_intersection((1, 1)))
print("<Z(x),Z(y)> for B = A_22:", sankaran_intersection((2, 2)))
print("<Z(x),Z(y)> for B = A_42 at q=3:",
      sankaran_intersection((4, 2)).evaluate_at(3))

print("\n== the two difference expansions agree ==")
for b in ((2, 2), (4, 2), (5, 3)):
    ok, residual = difference_identity_check(b)
    print(f"B = A_{b[0]}{b[1]}: equal = {ok}")

print("\n== the rank-4 expansion into vertex-lattice counts ==")
for b in ((4, 1, 0, 0), (4, 2, 1, 0), (6, 3, 1, 1), (6, 4, 2, 1)):
    rep = conjecture_check(b)
    print(f"B = {b}: lhs == rhs: {rep.equal}   (lhs = {rep.lhs})")
