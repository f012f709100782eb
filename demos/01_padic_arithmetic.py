"""Exact p-adic scalars: valuations, digit expansions, exp and log.

Run:  python3 demos/01_padic_arithmetic.py
"""

from fractions import Fraction

from iwahori import ScalarRing, padic_exp, padic_log

p = 7
Zp = ScalarRing(p, prec=12)

print("== the base ring ==")
x = Zp.from_int(p ** 2 + p ** 3)
print(f"x = p^2 + p^3          -> {x.digit_string()}   val = {x.val()}")
u = Zp.from_fraction(Fraction(3, 5))
print(f"3/5 as a 7-adic unit   -> {u.digit_string()}")
print(f"unit check: (3/5) * (5/3) = {(u * Zp.from_fraction(Fraction(5, 3))).digit_string()}")

print()
print("== exactness at the precision cap ==")
capped = Zp.from_int(p ** 12)
print(f"p^12 at precision 12: val reported as None (>= {capped.val_cap()}), "
      f"never rounded")
zero = Zp.zero()
print(f"an exact zero reports valuation {zero.val()}")

print()
print("== exp and log on their domains ==")
e7 = padic_exp(Zp.from_int(p))
print(f"exp(7)                 -> {e7.digit_string()}")
print(f"val(exp(7) - 1)        -> {(e7 - 1).val()}")
print(f"log(exp(7)) == 7       -> {padic_log(e7) == Zp.from_int(p)}")
print(f"exp(7)*exp(7)==exp(14) -> {e7 * e7 == padic_exp(Zp.from_int(2 * p))}")

print()
print("== exp of a zero at the cap ==")
print(f"exp(p^12) at precision 12 -> {padic_exp(capped).digit_string()}, not an exact 1")
