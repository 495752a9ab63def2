"""Expansion bounds: how fast the inverse word maps stretch refined sets.

The level-n bound is the worst stretch over all admissible length-n
words; its n-th roots converge (supermultiplicativity), and the limit
sitting above or below 1 separates healthy covers from hopeless ones.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from moebius_systems import ArcSet, builtin
from moebius_systems.systems import with_cover

bi = builtin("binary")
print("signed binary, bundled cover:")
print(f"  {'n':>2} {'Q_n':>12} {'Q_n^(1/n)':>12}")
for n, q in bi.expansion_rate_bound(6).table:
    print(f"  {n:>2} {q:>12.6f} {q ** (1 / n):>12.6f}")
print("  the level-4 bound reaches 1 with no rotation words: certified there.")

print("\nsame maps, cover degraded to the full circle everywhere:")
trivial = with_cover(bi, {s: ArcSet.full_circle() for s in bi.alphabet.symbols})
est = trivial.expansion_rate_bound(8)
for n, q in est.table[:6]:
    print(f"  {n:>2} {q:>12.6f} {q ** (1 / n):>12.6f}")
for w in est.warnings:
    print("  warning:", w)
print("  (the zero run alone forces Q_n <= 2^-n here)")
