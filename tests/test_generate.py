"""Seeded generators: determinism and advertised invariants."""

import random

from fglog import (
    build_hopf_algebra,
    builtin_algebra,
    check_axioms,
    check_cocycle,
    lemma_law,
)
from fglog.generate import (
    random_cocycle,
    random_logarithm,
    random_rational,
    random_symmetric_candidate,
)
from test_fgl import QTU_HALF


class TestGenerators:
    def test_seed_determinism(self, qt1):
        a = random_cocycle(qt1, 3)
        b = random_cocycle(qt1, 3)
        assert (a - b).is_zero()
        ga = random_logarithm(qt1, 5, 6)
        gb = random_logarithm(qt1, 5, 6)
        assert (ga - gb).is_zero()

    def test_cocycles_always_pass(self, qt1, qtu):
        """Also over an algebra with a generator that is not primitive,
        which takes no part in the symmetric products."""
        for algebra in (qt1, qtu, build_hopf_algebra(QTU_HALF)):
            rng = random.Random(11)
            for _ in range(20):
                c = random_cocycle(algebra, rng)
                assert check_cocycle(c).passed
                assert (c - c.permute((1, 0))).is_zero()

    def test_candidates_symmetric_counit_zero(self, qt2):
        rng = random.Random(23)
        for _ in range(20):
            c = random_symmetric_candidate(qt2, rng)
            assert (c - c.permute((1, 0))).is_zero()
            assert c.apply_slot(0, "counit").is_zero()
            assert c.apply_slot(1, "counit").is_zero()

    def test_biconditional_sample(self, qt2):
        """check_cocycle(c) agrees with check_axioms(c + X + Y) on random
        symmetric counit-zero candidates."""
        rng = random.Random(5)
        seen = {True: 0, False: 0}
        for _ in range(30):
            c = random_symmetric_candidate(qt2, rng)
            is_cocycle = check_cocycle(c).passed
            is_law = check_axioms(lemma_law(qt2, c)).passed
            assert is_cocycle == is_law
            seen[is_cocycle] += 1
        assert seen[True] and seen[False]

    def test_no_positive_degree_gives_zero(self):
        """Over the trivial algebra Q zero is the only cocycle and the only
        candidate."""
        trivial = builtin_algebra("trivial")
        for seed in range(5):
            for c in (random_cocycle(trivial, seed),
                      random_symmetric_candidate(trivial, seed)):
                assert c.is_zero() and c.arity == 2

    def test_logarithm_shape(self, qt1):
        import math
        g = random_logarithm(qt1, 9, 6)
        assert g.order == math.inf
        assert g.coeff((1,)).full_counit() == 1
        assert g.constant_term().is_zero()
        assert all(sum(e) <= 6 for e, _ in g.sorted_terms())

    def test_random_rational_bounds(self):
        rng = random.Random(1)
        for _ in range(50):
            q = random_rational(rng, num_bound=3, den_bound=2, nonzero=True)
            assert q != 0
            assert abs(q.numerator) <= 3 * 2
