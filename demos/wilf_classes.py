"""Partitioning pattern sets into st-Wilf equivalence classes.

Run with: python demos/wilf_classes.py
"""
from permstat import S3, f_image, st_wilf_classes, verify_theorem4


def show(report):
    lo, hi = report.n_range
    print(f"  statistic={report.stat}, sizes {lo}..{hi}")
    for cls in report.classes:
        members = ["{" + ", ".join("".join(map(str, t)) for t in sorted(m)) + "}" for m in cls]
        print("   ", " = ".join(members))


# Two pattern sets are equivalent for a statistic when the statistic's
# generating polynomials over their avoidance sets agree at every size.
# Over a finite size range this is decidable by direct computation.  Sets
# of length-3 patterns sweep the states of a search, not its avoiders, so
# sizes up to 14 cost a fraction of a second.
N_MAX = 14

print("classes of the six single length-3 patterns, charge:")
show(st_wilf_classes(([s] for s in S3), "ch", N_MAX))

print()
print("the same six patterns under the major index:")
maj = st_wilf_classes(([s] for s in S3), "maj", N_MAX)
show(maj)

# The two partitions are relabelings of each other: applying f to every
# pattern turns a major-index class into a charge class.
print()
print("f images of the maj classes (they are exactly the charge classes):")
for cls in maj.classes:
    images = [sorted(f_image(m)) for m in cls]
    print("   ", [["".join(map(str, t)) for t in m] for m in images])

# Among the fourteen eligible pattern pairs exactly one class has four
# members; the rest are singletons.
print()
print("pattern pairs, charge:")
report = verify_theorem4(N_MAX, "ch")
print("  class sizes:", report.class_sizes())
quad = next(cls for cls in report.classes if len(cls) == 4)
print("  the quadruple:", [sorted("".join(map(str, t)) for t in m) for m in quad])
