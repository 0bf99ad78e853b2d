"""Moore families, closure queries and the lattice of abstract domains."""

import random

import pytest

from abspres import (
    AbstractDomain,
    CapacityError,
    SetFamily,
    SpaceMismatchError,
    StateSpace,
    closure_of,
    domain_join,
    domain_leq,
    domain_meet,
    enumerate_moore_families,
    family_of_names,
    moore_close,
    powerset_domain,
    top_domain,
)

from conftest import brute_moore_close, brute_moore_families, domain_as_frozensets

SPACE4 = StateSpace.of("1", "2", "3", "4")


def mu(compact):
    return AbstractDomain(SPACE4, image=family_of_names(SPACE4, compact).masks)


MU = {
    1: mu(["", "12", "3", "4", "1234"]),
    2: mu(["", "12", "3", "4", "34", "1234"]),
    3: mu(["", "12", "3", "4", "34", "123", "124", "1234"]),
    4: mu(["12", "123", "124", "1234"]),
    5: mu(["", "12", "123", "124", "1234"]),
}


class TestMooreClose:
    def test_empty_family_gives_top(self):
        out = moore_close(SetFamily.of(SPACE4, []))
        assert out == top_domain(SPACE4)

    def test_three_set_seed(self):
        seed = family_of_names(SPACE4, ["12", "123", "124"])
        assert moore_close(seed) == MU[4]

    def test_against_subset_meet_enumeration(self):
        rng = random.Random(5117)
        space = StateSpace.of("a", "b", "c", "d", "e")
        universe = frozenset(space.names)
        for _ in range(25):
            masks = [rng.randrange(1 << 5) for _ in range(6)]
            fam = SetFamily.of(space, masks)
            got = domain_as_frozensets(moore_close(fam))
            want = brute_moore_close(
                universe, [frozenset(space.names_of(m)) for m in masks]
            )
            assert got == want

    def test_idempotent_and_monotone(self):
        rng = random.Random(7)
        for _ in range(20):
            masks = [rng.randrange(16) for _ in range(4)]
            fam = SetFamily.of(SPACE4, masks)
            once = moore_close(fam)
            again = moore_close(once.image)
            assert once == again
            bigger = SetFamily.of(SPACE4, masks + [rng.randrange(16)])
            assert once.masks <= moore_close(bigger).masks

    def test_mixed_spaces_rejected(self):
        other = StateSpace.of("x", "y")
        with pytest.raises(SpaceMismatchError):
            SetFamily.of(SPACE4, [other.set_of(["x"])])
        with pytest.raises(SpaceMismatchError):
            domain_meet(MU[1], top_domain(other))
        with pytest.raises(SpaceMismatchError):
            domain_join(MU[1], top_domain(other))
        with pytest.raises(SpaceMismatchError):
            domain_leq(MU[1], top_domain(other))
        with pytest.raises(SpaceMismatchError):
            closure_of(MU[1], other.set_of(["x"]))


class TestClosureQueries:
    def test_singleton_closures_in_mu5(self):
        assert closure_of(MU[5], SPACE4.set_of(["3"])) == SPACE4.set_of(["1", "2", "3"])
        # smallest member containing 4 is {1,2,4}
        assert closure_of(MU[5], SPACE4.set_of(["4"])) == SPACE4.set_of(["1", "2", "4"])

    def test_top_is_closed(self):
        for dom in MU.values():
            assert closure_of(dom, SPACE4.full) == SPACE4.full

    def test_closure_laws(self):
        for dom in MU.values():
            for s in range(16):
                sset = SPACE4.set_from_mask(s)
                mu_s = dom.closure(sset)
                assert sset <= mu_s
                assert dom.closure(mu_s) == mu_s
                for t in range(16):
                    if s & ~t == 0:
                        assert mu_s <= dom.closure(SPACE4.set_from_mask(t))

    def test_adjunction_on_closed_sets(self):
        for dom in MU.values():
            for s in range(16):
                for x in dom.masks:
                    left = dom.closure_mask(s) & ~x == 0
                    right = s & ~x == 0
                    assert left == right


class TestDomainOrder:
    def test_reflexive(self):
        for dom in MU.values():
            assert domain_leq(dom, dom)

    def test_top_is_greatest(self):
        for dom in MU.values():
            assert domain_leq(dom, top_domain(SPACE4))

    def test_mu3_refines_mu2(self):
        assert domain_leq(MU[3], MU[2])
        assert not domain_leq(MU[2], MU[3])

    def test_meet_with_top_is_neutral(self):
        for dom in MU.values():
            assert domain_meet(dom, top_domain(SPACE4)) == dom

    def test_join_idempotent(self):
        for dom in MU.values():
            assert domain_join(dom, dom) == dom

    def test_meet_is_moore_closure_of_union(self):
        got = domain_meet(MU[1], MU[2])
        want = brute_moore_close(
            frozenset(SPACE4.names),
            domain_as_frozensets(MU[1]) | domain_as_frozensets(MU[2]),
        )
        assert domain_as_frozensets(got) == want

    def test_lattice_laws_on_enumeration(self):
        doms = list(enumerate_moore_families(2))
        assert len(doms) == 7
        for a in doms:
            for b in doms:
                assert domain_meet(a, b) == domain_meet(b, a)
                assert domain_join(a, b) == domain_join(b, a)
                assert domain_join(a, domain_meet(a, b)) == a
                assert domain_meet(a, domain_join(a, b)) == a
                for c in doms:
                    assert domain_meet(domain_meet(a, b), c) == domain_meet(
                        a, domain_meet(b, c)
                    )
                    assert domain_join(domain_join(a, b), c) == domain_join(
                        a, domain_join(b, c)
                    )

    def test_lattice_laws_sampled_at_three_states(self):
        doms = list(enumerate_moore_families(3))
        rng = random.Random(31)
        for _ in range(300):
            a, b, c = (rng.choice(doms) for _ in range(3))
            assert domain_meet(a, b) == domain_meet(b, a)
            assert domain_join(a, domain_meet(a, b)) == a
            assert domain_meet(domain_meet(a, b), c) == domain_meet(
                a, domain_meet(b, c)
            )


class TestEnumeration:
    def test_counts(self):
        assert len(list(enumerate_moore_families(0))) == 1
        assert len(list(enumerate_moore_families(1))) == 2
        assert len(list(enumerate_moore_families(2))) == 7
        assert len(list(enumerate_moore_families(3))) == 61

    def test_matches_set_based_oracle(self):
        for n in range(3):
            universe = frozenset(str(i + 1) for i in range(n))
            want = {frozenset(f) for f in brute_moore_families(universe)}
            got = {domain_as_frozensets(d) for d in enumerate_moore_families(n)}
            assert got == want

    def test_no_duplicates_at_three(self):
        fams = [d.masks for d in enumerate_moore_families(3)]
        assert len(fams) == len(set(fams))

    def test_four_state_stream_is_structurally_sound(self):
        # no frozen count at n = 4; spot-validate the stream instead
        seen = set()
        count = 0
        for dom in enumerate_moore_families(4):
            count += 1
            assert dom.masks not in seen
            seen.add(dom.masks)
            if count % 97 == 0:
                masks = dom.masks
                assert 0b1111 in masks
                assert all(a & b in masks for a in masks for b in masks)
        assert count > 61

    def test_capacity(self):
        with pytest.raises(CapacityError):
            list(enumerate_moore_families(5))


class TestRepresentation:
    def test_family_canonical_order_is_input_independent(self):
        f1 = SetFamily.of(SPACE4, [0b0011, 0b0100, 0b1111])
        f2 = SetFamily.of(SPACE4, [0b1111, 0b0011, 0b0100, 0b0011])
        assert f1 == f2

    def test_powerset_domain(self):
        dom = powerset_domain(SPACE4)
        assert len(dom) == 16
        for s in range(16):
            assert dom.closure_mask(s) == s

    def test_non_moore_image_rejected(self):
        with pytest.raises(Exception):
            AbstractDomain(SPACE4, image=family_of_names(SPACE4, ["12", "13"]).masks)

    def test_stateset_operators(self):
        s = SPACE4.set_of(["1", "2"])
        t = SPACE4.set_of(["2", "3"])
        assert (s & t).names == ("2",)
        assert (s | t).names == ("1", "2", "3")
        assert (~s).names == ("3", "4")
        assert "1" in s and "3" not in s


def _brute_is_moore(masks, full):
    return full in masks and all(a & b in masks for a in masks for b in masks)


class TestMooreCheckedWhereItEnters:
    """The Moore property is checked on images from outside the library,
    not on the families the library builds."""

    @pytest.fixture
    def no_moore_check(self, monkeypatch):
        from abspres import lattice

        def forbidden(*args):
            raise AssertionError("a library-built family was checked again")

        monkeypatch.setattr(lattice, "_is_moore", forbidden)

    def test_library_families_build_unchecked(self, no_moore_check):
        from abspres import Preorder, add, adp, forward_complete_shell
        from abspres.kripke import label_partition
        from abspres.languages import builtin_operator
        from abspres.partitions import iter_partitions
        from conftest import random_total_model

        rng = random.Random(707)
        ops = [builtin_operator("not"), builtin_operator("pre")]
        for _ in range(40):
            model = random_total_model(rng, max_states=4)
            space, full = model.space, model.space.full_mask
            universe = frozenset(space.names)
            seed = label_partition(model).family
            closed = moore_close(seed)
            assert domain_as_frozensets(closed) == brute_moore_close(
                universe, [frozenset(s.names) for s in seed]
            )
            shell = forward_complete_shell(closed, ops, model)
            for dom in shell.trace.iterations + (shell.domain,):
                assert _brute_is_moore(dom.masks, full)
            meet = domain_meet(closed, shell.domain)
            assert domain_as_frozensets(meet) == brute_moore_close(
                universe, domain_as_frozensets(closed) | domain_as_frozensets(shell.domain)
            )
            join = domain_join(closed, powerset_domain(space))
            assert join.masks == closed.masks and _brute_is_moore(join.masks, full)
            assert top_domain(space).masks == {full}
            assert len(powerset_domain(space)) == 1 << space.n
            for p in iter_partitions(space):
                assert _brute_is_moore(adp(p).masks, full)
            for r in (Preorder.identity(space), Preorder.total(space)):
                assert _brute_is_moore(add(r).masks, full)
        families = list(enumerate_moore_families(3))
        assert len(families) == 61
        assert all(_brute_is_moore(d.masks, 0b111) for d in families)

    def test_outside_images_are_still_checked(self, no_moore_check):
        with pytest.raises(AssertionError, match="checked again"):
            AbstractDomain(SPACE4, image=[0b1111])

    def test_non_moore_outside_images_are_rejected(self):
        from abspres import ValidationError

        for compact in (["12", "13"], ["12"], []):
            with pytest.raises(ValidationError, match="not a Moore family"):
                AbstractDomain(SPACE4, image=family_of_names(SPACE4, compact).masks)


class TestLargeSpaces:
    def test_no_state_cap(self):
        names = tuple(f"s{i}" for i in range(1000))
        space = StateSpace(names)
        assert space.n == 1000
        assert all(space.index(name) == i for i, name in enumerate(names))
        assert space.names_of(space.mask_of(["s999", "s3"])) == ("s3", "s999")
        with pytest.raises(CapacityError, match="DEFAULT_MAX_FAMILY"):
            powerset_domain(StateSpace(names[:21]))

    def test_index_errors(self):
        from abspres import ValidationError

        space = StateSpace.of("a", "b")
        for bad in ("c", ["a"], 0):
            with pytest.raises(ValidationError, match="unknown state name"):
                space.index(bad)
        with pytest.raises(ValidationError, match="duplicate"):
            StateSpace.of("a", "b", "a")

    def test_lex_key_reverses_the_bits(self):
        def reference(mask, n):
            key = 0
            for i in range(n):
                key = (key << 1) | ((mask >> i) & 1)
            return key

        for n in range(11):
            space = StateSpace(tuple(str(i) for i in range(n)))
            assert all(space.lex_key(m) == reference(m, n) for m in range(1 << n))
        space = StateSpace(tuple(str(i) for i in range(200)))
        rng = random.Random(200)
        for _ in range(500):
            m = rng.getrandbits(200)
            assert space.lex_key(m) == reference(m, 200)
