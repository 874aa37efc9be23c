"""Row insertion, ballot words, the pairing involution, and the fast charge route.

Run with: python demos/tableaux_and_parity.py
"""
from permstat import (
    ballot_rank,
    ballot_to_tableau,
    charge,
    count_two_row,
    enumerate_two_row_syt,
    fast_ch_321,
    involution_phi,
    reading_word,
    rsk_insert,
    stat_polynomial,
    two_row_maj_polynomials,
)


def show_tableau(label, rows):
    print(label)
    for row in rows:
        print("   ", " ".join(f"{v:2d}" for v in row))


# Row insertion sends a permutation to a pair of same-shape standard tableaux.
pi = (3, 2, 8, 5, 7, 4, 6, 1, 9)
P, Q = rsk_insert(pi)
print("permutation:", pi)
show_tableau("insertion tableau P:", P)
show_tableau("recording tableau Q:", Q)

# A permutation avoids 321 exactly when P has at most two rows, and charge is
# constant on each Knuth class (the permutations sharing a P).  So the charge
# polynomial over 321-avoiders only needs one charge evaluation per two-row
# tableau -- taken on its reading word -- weighted by the number of possible
# recording tableaux of that shape.
print()
print("two-row tableaux of size 3, their ballot words and Knuth-class charges:")
for w in enumerate_two_row_syt(3):
    rw = reading_word(ballot_to_tableau(w))
    print(f"  word {''.join(map(str, w))}  reading word {rw}  charge {charge(rw)}")

# Over one shape (n-r, r) those charges are distributed like the major index
# of the tableaux (evacuation carries one to the other), whose generating
# polynomial is the q-binomial difference [n choose r]_q - [n choose r-1]_q.
# So no tableau needs to be built: fast_ch_321 weights each shape's
# difference by its number of recording tableaux.
print("per-shape polynomials at size 3 (coefficients, lowest degree first):",
      two_row_maj_polynomials(3))
poly = fast_ch_321(15)
print()
print(f"size-15 charge polynomial over 321-avoiders: {len(poly.coeffs)} coefficients,")
print(f"  coefficient sum {poly.total()} (a Catalan number),")
print(f"  constant coefficient {poly.coeffs[0]},")
print(f"  higher coefficients all even: {all(c % 2 == 0 for c in poly.coeffs[1:])}")

# The number of two-row words is even exactly at sizes 2**k - 1, and there
# pairing ranks 2t with 2t+1 is a fixed-point-free involution on them.  The
# pairing follows rank order only: it keeps neither the shape nor the charge
# of the tableau, so it witnesses the even word count, not the even
# coefficients above.
print()
print(f"two-row words at size 7: {count_two_row(7)} (even)")
w = (1, 1, 2, 1, 2, 1, 1)
print(f"word {''.join(map(str, w))} has rank {ballot_rank(w)}; its partner is "
      f"{''.join(map(str, involution_phi(w)))} at rank {ballot_rank(involution_phi(w))}")

# The fast route agrees with brute-force enumeration wherever both run.
brute = stat_polynomial(7, [(3, 2, 1)], "ch")
print()
print("fast route equals enumeration at size 7:", fast_ch_321(7) == brute)
