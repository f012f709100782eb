from iwahori.roots import get_root_datum

SL2 = get_root_datum("sl2")
SL3 = get_root_datum("sl3")
SP4 = get_root_datum("sp4")


def test_heights():
    a, b = (1, -1), (0, 2)
    assert SP4.height((2, 0)) == 3  # highest root 2a + b
    for d in (SL2, SL3, SP4):
        for s in d.simple_roots:
            assert d.height(s) == 1
    assert SL3.height((1, 0, -1)) == 2  # coefficient-sum oracle: a1 + a2


def test_coxeter_numbers():
    assert SP4.coxeter_number() == 4
    assert SL2.coxeter_number() == 2
    assert SL3.coxeter_number() == 3  # ht(a1 + a2) + 1


def test_weyl_enumeration_and_lengths():
    W = SP4.weyl_group()
    assert len(W) == 8
    assert len(SL2.weyl_group()) == 2
    assert len(SL3.weyl_group()) == 6
    ident = SP4.identity_weyl()
    assert SP4.weyl_length(ident) == 0
    longest = max(W, key=SP4.weyl_length)
    assert SP4.weyl_length(longest) == len(SP4.positive_roots) == 4
    # closure under composition
    for w in W:
        for v in W:
            assert w.compose(v) in set(W)


def test_length_matches_reduced_words():
    # BFS over simple generators gives reduced words; the inversion-count
    # formula must agree, exhaustively for Sp4 and SL3.
    for d in (SP4, SL3):
        for w in d.weyl_group():
            assert d.weyl_length(w) == len(w.word)


def test_sign_partition_of_positive_roots():
    for d in (SP4, SL3):
        for w in d.weyl_group():
            flipped = sum(1 for r in d.positive_roots
                          if d.height(d.act_root(w.inverse(), r)) < 0)
            assert flipped == d.weyl_length(w)
            for r in d.positive_roots:
                img = d.act_root(w, r)
                assert (d.height(img) > 0) != (d.height(img) < 0)


def test_intersection_nonempty():
    W = SP4.weyl_group()
    pairs = 0
    for w in W:
        for v in W:
            expected = w != v
            assert SP4.intersection_nonempty(w, v) == expected
            pairs += expected
    assert pairs == 56
    s = SL2.weyl_group()[1]
    assert SL2.intersection_nonempty(SL2.identity_weyl(), s)
    # explicit root listing: s_a sends a to -a, so a lies in 1*Phi+ and s_a*Phi-
    assert SP4.intersection_witness(SP4.identity_weyl(), SP4.simple_reflection(0)) is not None


def intersection_witness_ref(datum, w, w2):
    """The former witness: a generator over w*Phi+ tested against
    -(w2*Phi+), and its min."""
    plus2 = datum.positive_image(w2)
    return min((r for r in datum.positive_image(w) if tuple(-c for c in r) in plus2),
               default=None)


def test_witnesses_and_names_match_the_former_code():
    for datum in (SL2, SL3, SP4):
        W = datum.weyl_group()
        for w in W:
            assert w.name == ("e" if not w.word else "*".join(f"s{i + 1}" for i in w.word))
            for v in W:
                assert datum.intersection_witness(w, v) == intersection_witness_ref(datum, w, v)


def test_adapted_cocharacters():
    mu, a = SL2.adapted_cocharacter(SL2.identity_weyl())
    assert a == 2 and mu == (1, -1)  # mu0 = coroot/2, doubled
    assert SL2.pairing((1, -1), mu) == 2
    mu3, a3 = SL3.adapted_cocharacter(SL3.identity_weyl())
    assert a3 == 1 and mu3 == (1, 0, -1)
    mu4, a4 = SP4.adapted_cocharacter(SP4.identity_weyl())
    assert a4 == 2 and mu4 == (3, 1)
    vals = [SP4.pairing(r, mu4) for r in SP4.positive_roots]
    assert vals == [a4 * SP4.height(r) for r in SP4.positive_roots]
    assert sorted(vals) == [2, 2, 4, 6]  # a*(1,1,2,3)


def test_adapted_positive_for_all_w():
    for d in (SL2, SL3, SP4):
        for w in d.weyl_group():
            mu, a = d.adapted_cocharacter(w)
            for r in d.positive_roots:
                assert d.pairing(d.act_root(w, r), mu) == a * d.height(r) > 0


def test_delta_pairings():
    for d in (SL2, SL3, SP4):
        dp = d.delta_pairings()
        for s in d.simple_roots:
            assert dp[s] == 1
    assert SP4.delta == (2, 1)  # delta(t_{a,b}) = a^2 b in the torus chart
    assert SP4.delta_pairings()[(2, 0)] == 2  # <delta, (2a+b) coroot>
    assert SP4.delta_pairings()[(1, 1)] == 3


def test_sp4_root_inventory():
    assert SP4.positive_roots == [(0, 2), (1, -1), (1, 1), (2, 0)]
    assert set(SP4.simple_roots) == {(1, -1), (0, 2)}
    assert SP4.coroot((1, -1)) == (1, -1)
    assert SP4.coroot((0, 2)) == (0, 1)
    assert SP4.coroot((1, 1)) == (1, 1)
    assert SP4.coroot((2, 0)) == (1, 0)
    for r in SP4.roots():
        assert SP4.pairing(r, SP4.coroot(r)) == 2
