"""Direct density evaluation and the closed self-density formula.

The density alpha(A_xi, A_lambda) counts representations of the hermitian
form labelled lambda by the form labelled xi, normalized so the count
stabilizes.  A classical explicit formula evaluates it as a finite sum over
partitions; this demo computes a few and checks them against closed forms.
"""

from hermdens import Q, alpha, normalized, self_density_closed
from hermdens.qalgebra import ONE

print("== the motivating example ==")
val = alpha((4, 0), (4, 2))
print("alpha(A_40, A_42) =", val)
print("equals q^6 (1+1/q)^2:", val == Q ** 6 * (ONE + ONE / Q) ** 2)

print("\n== unimodular self-densities stack up unit factors ==")
for n in (1, 2, 3, 4):
    xi = (0,) * n
    print(f"alpha(A_{'0' * n}, A_{'0' * n}) =", alpha(xi, xi))

print("\n== normalized densities ==")
print("A_0(A_6)    =", normalized((0,), (6,)), "  (always 1 in rank 1, even weight)")
print("A_10(A_11)  =", normalized((1, 0), (1, 1)), "  (parity mismatch)")
print("A_200(A_332) =", normalized((2, 0, 0), (3, 3, 2)))
print(" factored:   (q+1)(q^6+q^4-q^3+q^2):",
      normalized((2, 0, 0), (3, 3, 2)) == (Q + 1) * (Q ** 6 + Q ** 4 - Q ** 3 + Q ** 2))

print("\n== closed self-density formula vs direct evaluation ==")
for xi in ((2, 1), (3, 2, 1), (2, 2, 2, 2), (4, 3, 1, 0), (3, 3, 1, 0, 0)):
    closed = self_density_closed(xi)
    direct = alpha(xi, xi)
    print(f"xi={xi}: closed == direct: {closed == direct}   value {closed}")

print("\n== densities always land in Z[q, 1/q] ==")
for xi, lam in (((2, 0), (4, 2)), ((2, 1, 0), (2, 2, 1))):
    print(f"alpha({xi}, {lam}) Laurent form:", alpha(xi, lam).as_laurent())
