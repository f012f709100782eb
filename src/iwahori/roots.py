"""Root data for the split groups handled here: SL2, SL3 and Sp4.

Characters and cocharacters are integer coordinate vectors.  For SL_n the
character lattice is Z^n modulo the all-ones vector and cocharacters are
the sum-zero vectors, so the dot-product pairing is well defined.  For Sp4
the conventions follow the epsilon-coordinates of the four-dimensional
symplectic group with antidiagonal form: simple roots a = e1 - e2 and
b = 2*e2, positive roots {a, b, a+b, 2a+b}, and half-sum delta = (2, 1),
i.e. delta(t_{a,b}) = a^2 b on the diagonal torus chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache


def _dot(x, y):
    return sum(a * b for a, b in zip(x, y))


@dataclass(frozen=True)
class WeylElement:
    """Orthogonal integer matrix acting on character coordinates.

    The same matrix acts on cocharacters because all our reflection
    matrices are orthogonal (permutations or signed permutations), so the
    contragredient equals the matrix itself.
    """

    matrix: tuple
    word: tuple

    def act(self, vec):
        return tuple(_dot(row, vec) for row in self.matrix)

    def compose(self, other: "WeylElement") -> "WeylElement":
        # (self*other).act = self.act(other.act(.))
        n = len(self.matrix)
        mat = tuple(
            tuple(sum(self.matrix[i][k] * other.matrix[k][j] for k in range(n))
                  for j in range(n))
            for i in range(n))
        return WeylElement(mat, self.word + other.word)

    def inverse(self) -> "WeylElement":
        mat = tuple(tuple(row[i] for row in self.matrix) for i in range(len(self.matrix)))
        return WeylElement(mat, tuple(reversed(self.word)))

    @cached_property
    def name(self) -> str:
        return "e" if not self.word else "*".join(f"s{i + 1}" for i in self.word)

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)


class RootDatum:
    """Roots, coroots, heights, Weyl group and pairing data for one type."""

    def __init__(self, name, dim, simple_roots, pos_roots, coroots, cochar_basis):
        self.name = name
        self.dim = dim
        self.simple_roots = [tuple(r) for r in simple_roots]
        self.rank = len(self.simple_roots)
        self.cochar_basis = [tuple(c) for c in cochar_basis]
        self._coroot = {tuple(r): tuple(c) for r, c in coroots.items()}
        for r, c in list(self._coroot.items()):
            self._coroot[tuple(-x for x in r)] = tuple(-x for x in c)
        # The height functional lives in the span of the cocharacter basis
        # and pairs to 1 with every simple root.
        mat = [[Fraction(_dot(self.simple_roots[i], self.cochar_basis[j]))
                for j in range(self.rank)] for i in range(self.rank)]
        coeffs = solve_exact(mat, [Fraction(1)] * self.rank)
        hvec = tuple(
            sum(coeffs[j] * Fraction(self.cochar_basis[j][i]) for j in range(self.rank))
            for i in range(dim))
        self._height = {}
        for r in pos_roots:
            ht = _dot(r, hvec)
            if ht.denominator != 1 or ht < 1:
                raise ValueError(f"{r} is not a positive root for {name}")
            self._height[tuple(r)] = int(ht)
            self._height[tuple(-x for x in r)] = -int(ht)
        self._scale = math.lcm(*(q.denominator for q in coeffs))
        self._scaled_hvec = tuple(int(self._scale * q) for q in hvec)
        self.positive_roots = sorted(
            (tuple(r) for r in pos_roots), key=lambda r: (self._height[r], r))
        self.negative_roots = [tuple(-x for x in r) for r in self.positive_roots]
        self.delta = tuple(
            Fraction(sum(r[i] for r in self.positive_roots), 2) for i in range(dim))
        # simple-root coordinates are read off the first rank chart coordinates,
        # whose minor of the simple roots is invertible for every datum here
        minor = [[r[k] for r in self.simple_roots] for k in range(self.rank)]
        units = [[int(i == k) for i in range(self.rank)] for k in range(self.rank)]
        self._minor_inverse = list(zip(*(solve_exact(minor, e) for e in units)))
        self.nonsimple_coordinates = [self.simple_coordinates(r) for r in self.positive_roots
                                      if r not in self.simple_roots]

    # -- basic queries --------------------------------------------------

    def roots(self):
        return self.positive_roots + self.negative_roots

    def height(self, root) -> int:
        return self._height[tuple(root)]

    def coroot(self, root):
        return self._coroot[tuple(root)]

    def simple_coordinates(self, vec):
        """The integer coordinates of vec in the simple roots, or None when
        vec is off the root lattice or (SL_n) off the span of the roots."""
        coords = [_dot(row, vec) for row in self._minor_inverse]
        if any(c.denominator != 1 for c in coords):
            return None
        coords = tuple(int(c) for c in coords)
        # the minor rebuilds the first rank coordinates, but not the others
        rebuilt = [sum(c * s[k] for c, s in zip(coords, self.simple_roots))
                   for k in range(self.dim)]
        return coords if rebuilt == list(vec) else None

    def coxeter_number(self) -> int:
        return 1 + max(self._height[r] for r in self.positive_roots)

    def pairing(self, char_vec, cochar_vec):
        return _dot(char_vec, cochar_vec)

    def delta_pairings(self):
        """Exact values of <delta, coroot> over the positive roots."""
        out = {}
        for r in self.positive_roots:
            v = _dot(self.delta, self.coroot(r))
            out[r] = int(v) if Fraction(v).denominator == 1 else v
        return out

    # -- Weyl group -------------------------------------------------------

    @lru_cache(maxsize=None)
    def identity_weyl(self) -> WeylElement:
        """The identity, built once per datum."""
        n = self.dim
        return WeylElement(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), ())

    def simple_reflection(self, i: int) -> WeylElement:
        alpha = self.simple_roots[i]
        cov = self._coroot[alpha]
        n = self.dim
        mat = tuple(
            tuple(int(r == c) - alpha[r] * cov[c] for c in range(n))
            for r in range(n))
        return WeylElement(mat, (i,))

    def weyl_group(self):
        return list(self._weyl_elements())

    @lru_cache(maxsize=None)
    def _weyl_elements(self):
        gens = [self.simple_reflection(i) for i in range(self.rank)]
        seen = {self.identity_weyl(): self.identity_weyl()}
        frontier = [self.identity_weyl()]
        while frontier:
            nxt = []
            for w in frontier:
                for s in gens:
                    ws = w.compose(s)
                    if ws not in seen:
                        seen[ws] = ws
                        nxt.append(ws)
            frontier = nxt
        return tuple(sorted(seen.values(), key=lambda w: (len(w.word), w.word)))

    def weyl_length(self, w: WeylElement) -> int:
        """Length via the root-inversion count |Phi+ inter w*Phi-|."""
        return sum(1 for r in self.positive_roots if r not in self.positive_image(w))

    def act_root(self, w: WeylElement, root):
        img = w.act(root)
        if img not in self._height:
            raise ValueError(f"{w.name} does not permute the roots: {root} -> {img}")
        return img

    def intersection_nonempty(self, w: WeylElement, w2: WeylElement) -> bool:
        """Whether w*Phi+ and w2*Phi- share a root; true exactly for w != w2."""
        return self.intersection_witness(w, w2) is not None

    @lru_cache(maxsize=None)
    def positive_image(self, w: WeylElement):
        """w*Phi+, built once per w."""
        return frozenset(self.act_root(w, r) for r in self.positive_roots)

    @lru_cache(maxsize=None)
    def negative_image(self, w: WeylElement):
        """w*Phi-, built once per w."""
        return frozenset(self.act_root(w, r) for r in self.negative_roots)

    def intersection_witness(self, w: WeylElement, w2: WeylElement):
        """The least root of w*Phi+ inter w2*Phi-."""
        return min(self.positive_image(w) & self.negative_image(w2), default=None)

    # -- adapted cocharacters -----------------------------------------------

    @lru_cache(maxsize=None)
    def adapted_cocharacter(self, w: WeylElement):
        """Integral cocharacter mu = w(a*mu0) with <w*alpha, mu> = a*ht(alpha) > 0
        for every positive alpha, plus the scale a: the least a >= 1 making
        a*mu0 integral in X_*, where <alpha, mu0> = ht(alpha)."""
        return w.act(self._scaled_hvec), self._scale


def solve_exact(matrix, rhs):
    """Solve a small square system exactly over Fractions; raises on a
    singular matrix."""
    n = len(rhs)
    a = [[Fraction(matrix[i][j]) for j in range(n)] + [Fraction(rhs[i])]
         for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular system")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def _sl_datum(n: int) -> RootDatum:
    def e(i, j):
        v = [0] * n
        v[i], v[j] = 1, -1
        return tuple(v)

    simple = [e(i, i + 1) for i in range(n - 1)]
    pos = [e(i, j) for i in range(n) for j in range(n) if i < j]
    coroots = {r: r for r in pos}  # type A: coroot = root in these coordinates
    basis = simple  # simply connected: X_* is the coroot lattice
    return RootDatum(f"sl{n}", n, simple, pos, coroots, basis)


def _sp4_datum() -> RootDatum:
    a, b = (1, -1), (0, 2)
    ab, aab = (1, 1), (2, 0)
    pos = [a, b, ab, aab]
    coroots = {a: (1, -1), b: (0, 1), ab: (1, 1), aab: (1, 0)}
    basis = [(1, -1), (0, 1)]  # coroot lattice basis (alpha-co, beta-co)
    return RootDatum("sp4", 2, [a, b], pos, coroots, basis)


_DATA = {}


def get_root_datum(name: str) -> RootDatum:
    key = name.lower()
    if key not in _DATA:
        if key == "sl2":
            _DATA[key] = _sl_datum(2)
        elif key == "sl3":
            _DATA[key] = _sl_datum(3)
        elif key == "sp4":
            _DATA[key] = _sp4_datum()
        else:
            raise ValueError(f"unsupported group {name!r}; pick sl2, sl3 or sp4")
    return _DATA[key]
