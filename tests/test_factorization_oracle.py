"""An independent factorization oracle: instead of LDU elimination, refine
all batch parameters one congruence level at a time, reading each level's
corrections off the Lie-algebra digit of the residual.  Successive digit
passes converge because the corrections at the lowest unresolved level are
exact and higher mixing terms land strictly deeper.  The oracle shares no
code path with iwahori_factorize beyond scalar arithmetic, so agreement of
the parameter values is a real cross-check, not a round trip.
"""

import random

from iwahori.groups import ChevalleyGroup
from iwahori.axioms import sample_iwahori

P, N = 7, 12


def digitwise_factorize(G, g, w, p, N):
    """Digit-refinement factorization of g in G over Z_p mod p^N; returns
    (neg, torus, pos) parameter integer representatives in the same batch
    order as iwahori_factorize."""
    neg_batch, pos_batch = G.batches(w)
    rank = G.datum.rank
    neg = [0] * len(neg_batch)
    tor = [1] * rank
    pos = [0] * len(pos_batch)
    box = G.ring.ppow(N)

    def build():
        return G.from_parameters(
            [(r, x) for r, x in zip(neg_batch, neg)],
            [G.ring.from_int(s) for s in tor],
            [(r, x) for r, x in zip(pos_batch, pos)])

    for _ in range(40 * N):
        m = build()
        resid = m.inv() * g
        # lowest unresolved congruence level of the residual
        level = None
        for i in range(G.n):
            for j in range(G.n):
                e = resid.sub_identity_entry(i, j)
                v = e.pival()
                if v is not None and v is not float("inf"):
                    level = v if level is None else min(level, v)
        if level is None or level >= N:
            break
        k = level
        pk = G.ring.ppow(k)

        def digit(i, j):
            e = resid.sub_identity_entry(i, j)
            return (e.co[0] // pk) % p

        for idx, root in enumerate(neg_batch):
            (i0, j0, s0) = G.dirs[root][0]
            d = digit(i0, j0) if s0 == 1 else (-digit(i0, j0)) % p
            neg[idx] = (neg[idx] + d * pk) % box
        for idx, root in enumerate(pos_batch):
            (i0, j0, s0) = G.dirs[root][0]
            d = digit(i0, j0) if s0 == 1 else (-digit(i0, j0)) % p
            pos[idx] = (pos[idx] + d * pk) % box
        # additive shadow of the multiplicative diagonal recipe
        for idx, recipe in enumerate(G.torus_recipe):
            d = sum(e * digit(i, i) for i, e in recipe) % p
            tor[idx] = (tor[idx] * (1 + d * pk)) % box
    else:
        raise AssertionError("digitwise refinement did not converge")
    return neg, tor, pos


def _agrees(G, g, w, p, N):
    neg, tor, pos = digitwise_factorize(G, g, w, p, N)
    fact = G.iwahori_factorize(g, w)
    return ([x.co[0] for _, x in fact.negative] == neg
            and [x.co[0] for _, x in fact.positive] == pos
            and all(s_got == G.ring.from_int(s_want)
                    for s_got, s_want in zip(fact.torus_coordinates, tor)))


def test_digitwise_oracle_agrees_with_elimination():
    for name in ("sl2", "sl3", "sp4"):
        G = ChevalleyGroup(name, p=P, prec=N)
        weyl = G.datum.weyl_group()
        rng = random.Random(71)
        for w in (weyl[0], weyl[-1], weyl[len(weyl) // 2]):
            for _ in range(5):
                assert _agrees(G, sample_iwahori(G, rng, w), w, P, N), (name, w.name)


def test_digitwise_oracle_over_every_twist_prime_and_precision():
    # every Weyl twist at p in {5, 7, 11, 13} (p = 5 fails the Sp4 gate
    # p - 1 > h) and N in {1, 2, 3, 12}, where N = 1 and 2 leave the
    # parameters a digit or two; seeded per configuration
    cases = 0
    for name, primes in (("sl2", (5, 7, 11, 13)), ("sl3", (5, 7, 11, 13)), ("sp4", (7, 11, 13))):
        for p in primes:
            for N in (1, 2, 3, 12):
                G = ChevalleyGroup(name, p=p, prec=N)
                for w in G.datum.weyl_group():
                    rng = random.Random(f"{name}:{p}:{N}:{w.name}")
                    for _ in range(2):
                        g = sample_iwahori(G, rng, w)
                        assert _agrees(G, g, w, p, N), (name, p, N, w.name)
                        cases += 1
    assert cases == 2 * (4 * 4 * 2 + 4 * 4 * 6 + 3 * 4 * 8)
