"""The counting oracle: densities as literal solution counts.

Independently of any formula, the density is the stabilized count of matrix
solutions to conj(X)^T A X == B over the finite quotient rings
(Z/p^d)[w]/(w^2 - c), divided by p^(d n (2m-n)).  For diagonal A the left
side is a sum over the rows of X, so the oracle counts by convolving per-row
histograms instead of enumerating matrices.  This demo counts, checks
stabilization in d, and compares against the symbolic values at q = p.
"""

from hermdens import (
    GaloisRingParams,
    alpha,
    count_representations,
    density_oracle,
    stabilization_check,
)
from hermdens.oracle import BudgetExceededError

params = GaloisRingParams(3, 1)
print("ring parameters:", params, "(c is a non-residue mod p)")

print("\n== unit norms in the residue field ==")
print("solutions of norm(x) == 1 in F_9:", count_representations((0,), (0,), params))
print("density 4/3 agrees with (1+1/q) at q=3:",
      density_oracle((0,), (0,), params) == alpha((0,), (0,)).evaluate_at(3))

print("\n== norms have even valuation ==")
print("representing pi at d=2:", count_representations((0,), (1,), GaloisRingParams(3, 2)))

print("\n== stabilization in the depth d ==")
print("(0)->(0), d=1,2:", stabilization_check((0,), (0,), params, [1, 2]))
print("(1)->(1), d=2,3:", stabilization_check((1,), (1,), params, [2, 3]))

print("\n== a rank-2 count: 6561 matrices over F_9 ==")
count = count_representations((0, 0), (0, 0), params)
print("count:", count, "  density:", density_oracle((0, 0), (0, 0), params))
print("symbolic (1+1/q)(1-1/q^2) at q=3:", alpha((0, 0), (0, 0)).evaluate_at(3))

print("\n== row convolution: 243^4 matrices, counted from 243^2 rows ==")
dens = density_oracle((0, 0), (0,), GaloisRingParams(3, 5))
print("(0,0)->(0) at d=5:", dens, "== symbolic:", dens == alpha((0, 0), (0,)).evaluate_at(3))

print("\n== counts stay exact past 2^63 under a raised budget ==")
big = count_representations((0, 0, 0, 0), (0,), GaloisRingParams(3, 6), budget=3 ** 48)
print("(0,0,0,0)->(0) at d=6:", big, "> 2^63:", big > 2 ** 63)

print("\n== the budget gate refuses hopeless enumerations ==")
try:
    count_representations((4, 0), (4, 2), GaloisRingParams(3, 5))
except BudgetExceededError as exc:
    print("refused:", exc)

print("\n== cross-check grid at p in {3, 5} ==")
for p in (3, 5):
    for la, lb, d in (((1,), (1,), 2), ((2,), (0,), 1), ((1, 0), (1, 0), 2)):
        if p ** (2 * d * len(la) * len(lb)) > 2 ** 36:
            print(f"p={p} {la}->{lb} d={d}: over budget, skipped")
            continue
        emp = density_oracle(la, lb, GaloisRingParams(p, d))
        sym = alpha(la, lb).evaluate_at(p)
        print(f"p={p} {la}->{lb} d={d}: oracle {emp} == symbolic {sym}: {emp == sym}")
