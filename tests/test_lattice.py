"""Moore families, closure queries and the lattice of abstract domains."""

import random

import pytest

from abspres import (
    AbstractDomain,
    CapacityError,
    SetFamily,
    SpaceMismatchError,
    StateSpace,
    domain_join,
    domain_leq,
    domain_meet,
    family_of_names,
    moore_close,
    powerset_domain,
    top_domain,
)

from conftest import brute_moore_close, domain_as_frozensets, iter_partitions, moore_families

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
            MU[1].closure(other.set_of(["x"]))


class TestClosureQueries:
    def test_singleton_closures_in_mu5(self):
        assert MU[5].closure(SPACE4.set_of(["3"])) == SPACE4.set_of(["1", "2", "3"])
        # smallest member containing 4 is {1,2,4}
        assert MU[5].closure(SPACE4.set_of(["4"])) == SPACE4.set_of(["1", "2", "4"])

    def test_top_is_closed(self):
        for dom in MU.values():
            assert dom.closure(SPACE4.full) == SPACE4.full

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
        doms = list(moore_families(2))
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
        doms = list(moore_families(3))
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
        assert len(list(moore_families(0))) == 1
        assert len(list(moore_families(1))) == 2
        assert len(list(moore_families(2))) == 7
        assert len(list(moore_families(3))) == 61

    def test_no_duplicates_at_three(self):
        fams = [d.masks for d in moore_families(3)]
        assert len(fams) == len(set(fams))

    def test_four_state_stream_is_structurally_sound(self):
        # no frozen count at n = 4; spot-validate the stream instead
        seen = set()
        count = 0
        for dom in moore_families(4):
            count += 1
            assert dom.masks not in seen
            seen.add(dom.masks)
            if count % 97 == 0:
                masks = dom.masks
                assert 0b1111 in masks
                assert all(a & b in masks for a in masks for b in masks)
        assert count > 61


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

    def test_full_mask_is_set_once_outside_equality_and_repr(self):
        a, b = StateSpace.of("1", "2", "3"), StateSpace(("1", "2", "3"))
        assert a == b and hash(a) == hash(b)
        assert a.full_mask == 0b111 and StateSpace(()).full_mask == 0
        assert "full_mask" in vars(a)
        assert repr(a) == "StateSpace(names=('1', '2', '3'))"

    def test_stateset_operators(self):
        s = SPACE4.set_of(["1", "2"])
        t = SPACE4.set_of(["2", "3"])
        assert (s & t).names == ("2",)
        assert (s | t).names == ("1", "2", "3")
        assert (~s).names == ("3", "4")
        assert "1" in s and "3" not in s


class TestSelect:
    def test_matches_members(self):
        # oracle: the bit walk of _members.  Mask 0, one bit at the top, and
        # sparse and dense masks of widths up to 4096 bits, over items of
        # exactly the mask's width and over longer ones
        from abspres.lattice import _members, _select

        rng = random.Random(7)
        masks = [(0, 0), (0, 1), (1, 1)]
        for width in (1, 2, 7, 8, 9, 63, 64, 65, 512, 4096):
            masks.append((1 << (width - 1), width))
            masks.append(((1 << width) - 1, width))
            for density in (0.01, 0.1, 0.5, 0.9):
                masks.append((sum(1 << k for k in range(width) if rng.random() < density), width))
        for mask, width in masks:
            for items in (list(range(100, 100 + width)), tuple(f"x{k}" for k in range(width + 3))):
                want = [items[k] for k in _members(mask)]
                assert list(_select(items, mask)) == want, (mask, width)
            assert list(_select(range(width), mask)) == list(_members(mask))

    def test_contract_is_a_nonnegative_mask_within_the_items(self):
        # bits at or past len(items) are dropped without a word, and a
        # negative mask's sign reads as a bit: why callers must keep a mask
        # ≥ 0 below 2^len(items)
        from abspres.lattice import _select

        assert list(_select("abc", 0b11010)) == ["b"]
        assert list(_select("abc", 1 << 3)) == []
        assert list(_select("abc", -1)) == ["a", "b"]


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

    def test_outside_images_are_still_checked(self, no_moore_check):
        with pytest.raises(AssertionError, match="checked again"):
            AbstractDomain(SPACE4, image=[0b1111])

    def test_non_moore_outside_images_are_rejected(self):
        from abspres import ValidationError

        for compact in (["12", "13"], ["12"], []):
            with pytest.raises(ValidationError, match="not a Moore family"):
                AbstractDomain(SPACE4, image=family_of_names(SPACE4, compact).masks)


class TestLazyMooreFamilies:
    """moore_close, domain_meet and top_domain are the lazy domains of their
    generators: they answer as the brute-force image does, build no image
    until it is listed, and listing refuses exactly past the bound."""

    @staticmethod
    def random_masks(rng, n):
        """Up to six masks over n states; in about a third of the draws the
        complements of disjoint non-empty sets, Σ among them at times."""
        full = (1 << n) - 1
        if rng.randrange(3):
            return [rng.randrange(1 << n) for _ in range(rng.randrange(7))]
        owner = [rng.randrange(n + 1) for _ in range(n)]
        sides = {sum(1 << s for s in range(n) if owner[s] == k) for k in range(n)} - {0}
        return [full & ~side for side in sides] + [full] * rng.randrange(2)

    @staticmethod
    def brute(space, masks):
        """The Moore closure of ``masks`` as a set of masks, by the oracle."""
        universe = frozenset(space.names)
        return {space.mask_of(s) for s in brute_moore_close(
            universe, [frozenset(space.names_of(m)) for m in masks])}

    @staticmethod
    def brute_pr(space, masks):
        """States grouped by membership: s and t share a block when every
        mask holds both or neither."""
        from abspres import Partition

        n = space.n
        return Partition.from_masks(space, {
            sum(1 << t for t in range(n) if all(m >> s & 1 == m >> t & 1 for m in masks))
            for s in range(n)
        })

    def test_lazy_domains_answer_as_the_brute_image(self):
        from abspres import pr

        rng = random.Random(2804)
        checked = 0
        for _ in range(300):
            n = rng.randint(1, 6)
            space = StateSpace(tuple(str(i) for i in range(n)))
            full = space.full_mask
            raw1, raw2 = self.random_masks(rng, n), self.random_masks(rng, n)
            want1, want2 = self.brute(space, raw1), self.brute(space, raw2)
            want_meet = self.brute(space, raw1 + raw2)
            d1 = moore_close(SetFamily.of(space, raw1))
            d2 = moore_close(SetFamily.of(space, raw2))
            cases = [
                (d1, want1),
                (domain_meet(d1, d2), want_meet),
                (domain_meet(d2, moore_close(SetFamily.of(space, raw1))), want_meet),
                (domain_meet(d1, top_domain(space)), want1),
            ]
            for dom, want in cases:
                eager = AbstractDomain(space, image=want)
                for x in range(1 << n):
                    assert dom.closure_mask(x) == min(
                        (m for m in want if x & ~m == 0), key=int.bit_count)
                    assert dom.contains(x) == (x in want)
                assert pr(dom) == self.brute_pr(space, want)
                assert domain_leq(dom, d1) == (want1 <= want)
                assert domain_leq(d2, dom) == (want <= want2)
                assert domain_leq(dom, eager) and domain_leq(eager, dom)
                # nothing above listed the image
                assert dom._masks is None
                assert dom == eager and hash(dom) == hash(eager)
                assert set(dom.masks) == want and full in want
                checked += 1
        assert checked == 1200

    def test_listing_refuses_exactly_past_the_bound(self, monkeypatch):
        from abspres import lattice

        rng = random.Random(2805)
        seen = {"2^k": 0, "reached": 0, "listed": 0}
        for _ in range(600):
            n = rng.randint(1, 6)
            space = StateSpace(tuple(str(i) for i in range(n)))
            full = space.full_mask
            raw = self.random_masks(rng, n)
            want = self.brute(space, raw)
            # the bound lies at the image's size or one or two either side
            bound = max(1, len(want) + rng.randint(-2, 2))
            monkeypatch.setattr(lattice, "DEFAULT_MAX_FAMILY", bound)
            sides = [full & ~g for g in set(raw) if g != full]
            disjoint = all(a & b == 0 for i, a in enumerate(sides) for b in sides[i + 1:])
            dom = moore_close(SetFamily.of(space, raw))
            try:
                assert set(dom.masks) == want
            except CapacityError as error:
                assert len(want) > bound
                k = len(sides)
                if disjoint:
                    assert len(want) == 1 << k
                    assert str(error) == (f"image of {k} generators has up to 2^{k} members, "
                                          f"over DEFAULT_MAX_FAMILY = {bound}")
                    seen["2^k"] += 1
                else:
                    assert str(error).startswith("image reached ")
                    assert f"over DEFAULT_MAX_FAMILY = {bound}" in str(error)
                    seen["reached"] += 1
            else:
                assert len(want) <= bound
                seen["listed"] += 1
        assert min(seen.values()) >= 50, seen

    def test_meet_close_refuses_at_the_bound_plus_one(self, monkeypatch):
        # a g's meets are counted as they are built: the refusal names
        # bound + 1 sets, and the family passed in never holds more than the
        # bound, where building all of a g's meets first reached up to twice it
        from abspres import lattice

        space = StateSpace(tuple(str(i) for i in range(8)))
        full = space.full_mask
        coatoms = [full & ~(1 << s) for s in range(8)]
        rng = random.Random(2906)
        cases = [(coatoms, bound) for bound in (50, 100, 200)]
        for _ in range(200):
            raw = self.random_masks(rng, 8)
            want = self.brute(space, raw)
            if len(want) > 2:
                cases.append((raw, rng.randint(1, len(want) - 1)))
        refused = 0
        for raw, bound in cases:
            monkeypatch.setattr(lattice, "DEFAULT_MAX_FAMILY", bound)
            closed = {full}
            with pytest.raises(CapacityError) as error:
                lattice.meet_close(closed, raw, "image")
            assert str(error.value) == (f"image reached {bound + 1} sets, "
                                        f"over DEFAULT_MAX_FAMILY = {bound}")
            assert len(closed) <= bound and closed <= self.brute(space, raw)
            refused += 1
        assert refused >= 150

    def test_building_lists_no_image(self, kpq, monkeypatch):
        from abspres import (
            coarsest_sp_partition,
            is_disjunctive,
            is_partitioning,
            is_sp_domain,
            lattice,
            pr,
            preset_language,
            semantic_closure,
        )
        from abspres.languages import _route

        calls = []
        listing = lattice.meet_close

        def counted(*args):
            calls.append(args[-1])
            return listing(*args)

        monkeypatch.setattr(lattice, "meet_close", counted)
        space = kpq.space
        coatoms = SetFamily.of(space, [space.full_mask & ~(1 << s) for s in range(space.n)])
        dom = moore_close(coatoms)
        meet = domain_meet(dom, moore_close(SetFamily.of(space, [0b00011, 0b11100])))
        top = top_domain(space)
        exef = preset_language("exef", kpq)
        assert _route(exef)[0] is None
        # the closure route: pr of the lazy Moore closure of S
        p = coarsest_sp_partition(exef, kpq)
        assert is_partitioning(dom) and is_disjunctive(dom) and is_sp_domain(dom, exef, kpq)
        assert pr(meet) == pr(dom) and domain_leq(meet, top) and not domain_leq(top, meet)
        assert calls == []
        assert p == self.brute_pr(space, semantic_closure(exef, kpq).masks)
        assert len(dom.masks) == 32
        assert calls == ["image"]


class TestLargeSpaces:
    def test_no_state_cap(self):
        names = tuple(f"s{i}" for i in range(1000))
        space = StateSpace(names)
        assert space.n == 1000
        assert all(space.index(name) == i for i, name in enumerate(names))
        assert space.names_of(space.mask_of(["s999", "s3"])) == ("s3", "s999")
        # ℘(Σ) answers at any size and is refused only when listed
        whole = powerset_domain(space)
        assert whole.closure_mask(space.mask_of(["s999", "s3"])) == space.mask_of(["s999", "s3"])
        with pytest.raises(CapacityError, match="DEFAULT_MAX_FAMILY"):
            whole.masks

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
