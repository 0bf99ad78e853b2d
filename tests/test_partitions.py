"""Partitions/preorders as domain abstractions: adp, pr, add, preord_of,
the structural shells and the Galois-insertion laws."""

import random

import pytest

from abspres import (
    AbstractDomain,
    KripkeModel,
    Partition,
    Preorder,
    SetFamily,
    StateSpace,
    ValidationError,
    add,
    adp,
    bisim_partition,
    domain_leq,
    family_of_names,
    is_disjunctive,
    is_partitioning,
    label_partition,
    largest_simulation,
    moore_close,
    powerset_domain,
    pr,
    preord_of,
    structural_shell,
    top_domain,
)
from abspres import partitions
from abspres.equivalences import equal_label_simulation
from abspres.kripke import load_model
from conftest import (
    block_loop_inner,
    block_loop_union,
    block_pair_refines,
    closure_pr,
    complement_closed,
    double_loop_preord_rows,
    iter_partitions,
    iter_preorders,
    label_set_partition,
    moore_families,
    random_model,
    row_column_kernel,
    union_closed,
    warshall_closure,
)
from test_cli import TestLargeModels as _LargeModels
from test_equivalences import lifted_model
from test_lattice import MU, SPACE4

P123 = Partition.of(SPACE4, [["1", "2"], ["3"], ["4"]])


class TestAdp:
    def test_three_block_partition(self):
        assert adp(P123) == MU[3]

    def test_trivial_partition(self):
        dom = adp(Partition.trivial(SPACE4))
        assert dom.masks == frozenset({0, SPACE4.full_mask})

    def test_closure_answers_without_materializing(self):
        p = Partition.of(SPACE4, [["1"], ["2"], ["3"], ["4"]])
        dom = adp(p)
        # closure queries use the block formula directly
        assert dom.closure_mask(0b0011) == 0b0011
        assert dom.closure_mask(0) == 0

    def test_sixteen_block_unions(self, kpq):
        p = Partition.of(kpq.space, [["1", "2"], ["3"], ["4"], ["5"]])
        unions = {0}
        for b in p.blocks:
            unions |= {u | b for u in unions}
        dom = adp(p)
        assert dom.masks == frozenset(unions)
        assert len(dom) == 16
        assert kpq.space.mask_of(["1", "2", "3"]) in dom.masks


class TestPr:
    def test_sample_domains_share_partition(self):
        for dom in MU.values():
            assert pr(dom) == P123

    def test_top_domain(self):
        assert pr(top_domain(SPACE4)) == Partition.trivial(SPACE4)

    def test_pr_adp_is_identity_up_to_five_states(self):
        for n in range(1, 6):
            space = StateSpace(tuple(str(i + 1) for i in range(n)))
            for p in iter_partitions(space):
                assert pr(adp(p)) == p


class TestPartitioning:
    def test_only_mu3_among_samples(self):
        verdicts = {i: is_partitioning(MU[i]) for i in MU}
        assert verdicts == {1: False, 2: False, 3: True, 4: False, 5: False}

    def test_seven_member_domain(self, a7):
        assert not is_partitioning(a7)

    def test_two_member_domain(self):
        assert is_partitioning(AbstractDomain(SPACE4, image={0, SPACE4.full_mask}))

    def test_three_way_equivalence_over_enumeration(self):
        # complement-closed  <=>  union-closed with singleton-closure partition
        # <=>  fixed by adp∘pr
        for dom in moore_families(3):
            space = dom.space
            closed_under_complement = is_partitioning(dom)
            union_closed = 0 in dom.masks and all(
                a | b in dom.masks for a in dom.masks for b in dom.masks
            )
            closures = [dom.closure_mask(1 << i) for i in range(space.n)]
            forms_partition = True
            seen = 0
            for c in set(closures):
                if c & seen:
                    forms_partition = False
                seen |= c
            if seen != space.full_mask:
                forms_partition = False
            assert closed_under_complement == (union_closed and forms_partition)
            assert closed_under_complement == (adp(pr(dom)) == dom)


class TestAddPreord:
    def test_identity_relation_gives_powerset(self):
        assert add(Preorder.identity(SPACE4)) == powerset_domain(SPACE4)

    def test_total_relation(self):
        dom = add(Preorder.total(SPACE4))
        assert dom.masks == frozenset({0, SPACE4.full_mask})

    def test_partition_as_preorder_matches_adp(self):
        for p in iter_partitions(SPACE4):
            assert add(Preorder.from_partition(p)) == adp(p)

    def test_preord_of_add_is_identity_up_to_four_states(self):
        for n in (2, 3, 4):
            space = StateSpace(tuple(str(i + 1) for i in range(n)))
            count = 0
            for r in iter_preorders(space):
                count += 1
                assert preord_of(add(r)) == r
            assert count > 1

    def test_seven_member_domain_preorder(self, a7, kpqr):
        r = preord_of(a7)
        assert r.holds("1", "2") and r.holds("2", "1")
        assert r.holds("3", "4") and not r.holds("4", "3")

    def test_powerset_preorder_is_identity(self):
        assert preord_of(powerset_domain(SPACE4)) == Preorder.identity(SPACE4)

    def test_given_relations_are_still_checked(self):
        # rows from outside the library run the row test: the constructor,
        # from_pairs (the CLI's --relation) and the enumeration
        space = StateSpace.of("a", "b", "c")
        with pytest.raises(ValidationError, match="not transitive"):
            Preorder(space, (0b011, 0b110, 0b100))
        with pytest.raises(ValidationError, match="not transitive"):
            Preorder.from_pairs(space, [("a", "b"), ("b", "c")])
        assert Preorder.from_pairs(space, [("a", "b"), ("b", "c"), ("a", "c")]).holds("a", "c")
        assert len(list(iter_preorders(space))) == 29

    def test_library_preorders_skip_the_transitivity_check(self, monkeypatch):
        # similarity, partition and domain preorders are preorders by
        # construction, so none of them runs the transitivity test
        import random

        from abspres.equivalences import check_bisimulation, largest_simulation
        from conftest import random_model

        calls = []
        test = partitions._is_transitive
        monkeypatch.setattr(partitions, "_is_transitive", lambda rows: calls.append(1) or test(rows))
        model = random_model(random.Random(200), 200)
        sim = largest_simulation(model)
        check_bisimulation(sim.kernel(), model)
        preord_of(add(sim))
        assert calls == []
        Preorder(model.space, sim.rows)
        assert calls == [1]

    def test_invalid_relations_rejected(self):
        space = StateSpace.of("a", "b", "c")
        with pytest.raises(ValidationError):
            Preorder(space, (0b010, 0b010, 0b100))  # a relates only to b
        with pytest.raises(ValidationError):
            Preorder(space, (0b011, 0b110, 0b100))  # a<=b, b<=c, not a<=c

    def test_rows_outside_the_space_rejected(self):
        # checked before the row test, which would index past the rows
        space = StateSpace.of("a", "b")
        with pytest.raises(ValidationError, match="row of 'a' names a state outside"):
            Preorder(space, (0b101, 0b010))
        with pytest.raises(ValidationError, match="row of 'b' names a state outside"):
            Preorder(space, (0b001, -1))


class TestRowsAgainstPairs:
    """The row tests against the pair loops they replace, kept in
    ``tests/conftest.py`` as oracles."""

    def test_transitivity_matches_warshall(self):
        # every reflexive relation over at most 4 states, by its off-diagonal bits
        for n in range(5):
            space = StateSpace(tuple(str(i + 1) for i in range(n)))
            off_diagonal = [(s, t) for s in range(n) for t in range(n) if s != t]
            preorders = []
            for bits in range(1 << len(off_diagonal)):
                rows = [1 << s for s in range(n)]
                for k, (s, t) in enumerate(off_diagonal):
                    if (bits >> k) & 1:
                        rows[s] |= 1 << t
                rows = tuple(rows)
                transitive = warshall_closure(rows) == rows
                assert partitions._is_transitive(rows) == transitive, rows
                if transitive:
                    preorders.append(Preorder(space, rows))
                else:
                    with pytest.raises(ValidationError, match="not transitive"):
                        Preorder(space, rows)
            assert sorted(r.rows for r in iter_preorders(space)) == sorted(r.rows for r in preorders)
            assert len(preorders) == (1, 1, 4, 29, 355)[n]

    def test_refines_matches_the_block_pairs(self):
        verdicts = set()
        for n in (4, 5):
            space = StateSpace(tuple(str(i + 1) for i in range(n)))
            every = list(iter_partitions(space))
            for p in every:
                for q in every:
                    verdicts.add(p.refines(q))
                    assert p.refines(q) == block_pair_refines(p, q), (p, q)
        assert verdicts == {True, False}


class TestBlockIndexMasks:
    """``inner`` and ``union`` read through the state → block index against
    the block loops they replace, kept in ``tests/conftest.py`` as oracles."""

    def test_inner_and_union_match_the_block_loops(self):
        # every mask over every partition of at most 6 states, so both sides
        # of inner's half-way switch are met; union's arguments run past the
        # block count by two bits, which name no block
        sides = set()
        for n in range(1, 7):
            space = StateSpace(tuple(str(i + 1) for i in range(n)))
            for p in iter_partitions(space):
                for mask in range(1 << n):
                    sides.add(2 * mask.bit_count() > n)
                    assert p.inner(mask) == block_loop_inner(p, mask), (p, mask)
                for bm in range(1 << (len(p) + 2)):
                    assert p.union(bm) == block_loop_union(p, bm), (p, bm)
        assert sides == {True, False}

    def test_the_index_is_no_field(self):
        # the index is built on first use and kept, yet two partitions with
        # the same blocks stay equal and hash alike
        space = StateSpace(tuple("abcd"))
        p = Partition.of(space, [["a", "c"], ["b"], ["d"]])
        q = Partition.of(space, [["d"], ["b"], ["c", "a"]])
        assert "_owner" not in vars(p)
        # canonical order puts {d} first and {a,c} last
        assert p.inner(space.mask_of("abc")) == 0b110
        assert p._owner == [2, 1, 2, 0] and "_owner" in vars(p)
        assert p._owner is p._owner
        assert p == q and hash(p) == hash(q)
        assert p.refines(q) and q.refines(p) and "_owner" in vars(q)


class TestDisjunctive:
    def test_seven_member_domain(self, a7):
        assert not is_disjunctive(a7)

    def test_partitioning_domains_are_disjunctive(self):
        for p in iter_partitions(SPACE4):
            assert is_disjunctive(adp(p))

    def test_characterization_over_enumeration(self):
        for dom in moore_families(3):
            assert is_disjunctive(dom) == (add(preord_of(dom)) == dom)


class TestStructuralShell:
    def test_partitioning_shell_of_mu5(self):
        assert structural_shell("partitioning", MU[5]) == MU[3]

    def test_idempotent_on_fixpoints(self):
        dom = adp(P123)
        assert structural_shell("partitioning", dom) == dom

    def test_disjunctive_shell_is_union_closure(self, a7, kpqr):
        got = structural_shell("disjunctive", a7)
        unions = {0}
        for m in a7.masks:
            unions |= {u | m for u in unions}
        # close under binary unions until stable
        stable = False
        while not stable:
            extra = {a | b for a in unions for b in unions} - unions
            stable = not extra
            unions |= extra
        assert got.masks == frozenset(unions)

    def test_shells_refine_over_enumeration(self):
        # both shells add sets: image(A) ⊆ image(shell(A)); the reverse
        # inclusion fails somewhere
        strict_p = strict_d = 0
        for dom in moore_families(3):
            for kind in ("partitioning", "disjunctive"):
                shell = structural_shell(kind, dom)
                assert dom.masks <= shell.masks
                assert domain_leq(shell, dom)
                assert structural_shell(kind, shell) == shell
                if kind == "partitioning":
                    assert is_partitioning(shell)
                    strict_p += shell.masks != dom.masks
                else:
                    assert is_disjunctive(shell)
                    strict_d += shell.masks != dom.masks
        assert strict_p and strict_d

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            structural_shell("modular", MU[1])


class TestGaloisInsertion:
    def test_adjunction_over_enumeration(self):
        space = StateSpace.of("1", "2", "3")
        partitions = list(iter_partitions(space))
        for dom in moore_families(3):
            for p in partitions:
                left = p.refines(pr(dom))
                right = domain_leq(adp(p), dom)
                assert left == right

    def test_domain_leq_matches_image_inclusion(self):
        # differential: domain_leq tests a2's generators only; the oracle
        # lists both images, on fresh copies so the lazy domains stay lazy
        space = StateSpace.of("1", "2", "3")

        def domains():
            out = list(moore_families(3))
            out += [adp(p) for p in iter_partitions(space)]
            out += [add(r) for r in iter_preorders(space)]
            return out

        lazy, listed = domains(), domains()
        leq = 0
        for d1, l1 in zip(lazy, listed):
            for d2, l2 in zip(lazy, listed):
                want = l2.masks <= l1.masks
                assert domain_leq(d1, d2) == want, (l1, l2)
                leq += want
        assert 500 <= leq <= len(lazy) ** 2 - 500

    def test_partition_order(self):
        fine = Partition.of(SPACE4, [["1"], ["2"], ["3"], ["4"]])
        assert fine.refines(P123)
        assert not P123.refines(fine)
        assert P123.refines(P123)


class TestCapacity:
    def test_adp_refuses_oversized_partitions(self):
        from abspres import CapacityError

        space = StateSpace(tuple(f"s{i}" for i in range(24)))
        dom = adp(Partition.identity(space))
        with pytest.raises(CapacityError, match="DEFAULT_MAX_FAMILY"):
            dom.masks

    @pytest.mark.parametrize("n", [24, 40])
    def test_lazy_domains_answer_at_any_size(self, n):
        # closure queries never list the 2^n members; listing them fails at once
        from abspres import CapacityError

        space = StateSpace(tuple(f"s{i}" for i in range(n)))
        some = 0b1011 << (n - 4)
        for dom in (adp(Partition.identity(space)), add(Preorder.identity(space))):
            assert dom.closure_mask(some) == some
            assert dom.contains(some) and dom.contains(0) and dom.contains(space.full_mask)
            assert pr(dom) == Partition.identity(space)
            with pytest.raises(CapacityError, match=f"2\\^{n} members, over DEFAULT_MAX_FAMILY"):
                dom.masks

    def test_powerset_answers_at_forty_states(self):
        # ℘(Σ) is the lazy domain of its co-atoms: closure, pr and preord_of
        # are identities, it is adp of the identity partition, and only
        # listing its 2^40 members is refused
        from abspres import CapacityError

        space = StateSpace(tuple(f"s{i}" for i in range(40)))
        whole, fine = powerset_domain(space), adp(Partition.identity(space))
        for some in (0, 0b1011 << 36, 0b1101, space.full_mask):
            assert whole.closure_mask(some) == some
        assert pr(whole) == Partition.identity(space)
        assert preord_of(whole) == Preorder.identity(space)
        assert domain_leq(whole, fine) and domain_leq(fine, whole)
        with pytest.raises(CapacityError, match="2\\^40 members, over DEFAULT_MAX_FAMILY"):
            whole.masks


class TestPartitionValidation:
    def test_overlap_rejected(self):
        with pytest.raises(ValidationError):
            Partition.of(SPACE4, [["1", "2"], ["2", "3"], ["4"]])

    def test_missing_cover_rejected(self):
        with pytest.raises(ValidationError):
            Partition.of(SPACE4, [["1", "2"], ["3"]])

    def test_empty_block_rejected(self):
        with pytest.raises(ValidationError):
            Partition.of(SPACE4, [["1", "2", "3", "4"], []])

    def test_repeated_block_rejected(self):
        with pytest.raises(ValidationError, match=r"partition block \{1,2\} is repeated"):
            Partition.of(SPACE4, [["1", "2"], ["1", "2"], ["3"], ["4"]])


class TestReadOffGenerators:
    """pr, the kernel, the label partition, preord_of and the shape tests
    read off generators and rows, against their definitions."""

    @staticmethod
    def agree(domain) -> tuple[bool, bool]:
        # the shape tests run first, so a lazy domain is still lazy; the
        # image oracles list at most 2^12 sets
        verdicts = is_partitioning(domain), is_disjunctive(domain)
        assert pr(domain) == closure_pr(domain)
        r = preord_of(domain)
        assert r.rows == double_loop_preord_rows(domain)
        assert r.kernel() == row_column_kernel(r)
        if len(domain._gens) <= 12:
            assert verdicts == (complement_closed(domain), union_closed(domain))
        return verdicts

    def test_every_moore_family_up_to_four_states(self):
        seen = set()
        for n in range(5):
            for dom in moore_families(n):
                seen.add(self.agree(dom))
                if n:
                    # the image's sets as labels
                    labels = tuple((str(i), m) for i, m in enumerate(sorted(dom.masks)))
                    model = KripkeModel(dom.space, (0,) * n, labels)
                    assert label_partition(model) == label_set_partition(model)
        assert seen == {(True, True), (False, True), (False, False)}

    def test_seeded_domains_and_models(self, tmp_path):
        seen = set()
        for seed in range(4):
            rng = random.Random(seed)
            n = rng.randint(30, 150)
            models = (
                random_model(rng, n),
                lifted_model(rng, n, stuck=seed % 2 == 1),
                load_model(_LargeModels.ring(tmp_path, n, seed=seed)),
            )
            for model in models:
                assert label_partition(model) == label_set_partition(model)
                sim = largest_simulation(model)
                assert sim.kernel() == row_column_kernel(sim)
                sets = [rng.randrange(1 << n) for _ in range(rng.randint(1, 12))]
                for dom in (
                    adp(bisim_partition(model)),
                    adp(label_partition(model)),
                    add(sim),
                    add(equal_label_simulation(model)),
                    moore_close(SetFamily.of(model.space, sets)),
                ):
                    verdicts = self.agree(dom)
                    if len(dom._gens) <= 12:
                        seen.add(verdicts)
        assert seen == {(True, True), (False, True), (False, False)}


class TestPartitionOrder:
    def test_blocks_in_lex_order(self):
        # blocks are sorted by their lowest members, descending, which for
        # disjoint blocks is the order of StateSpace.lex_key
        for n in range(1, 7):
            space = StateSpace(tuple(str(i + 1) for i in range(n)))
            for p in iter_partitions(space):
                assert p.blocks == tuple(sorted(p.blocks, key=space.lex_key))
        rng = random.Random(7)
        for n in (100, 1000, 10_000):
            space = StateSpace(tuple(f"s{i}" for i in range(n)))
            for k in (1, 2, rng.randint(3, 50), n // 3, n):
                blocks = [0] * k
                for s in range(n):
                    blocks[rng.randrange(k)] |= 1 << s
                blocks = [b for b in blocks if b]
                rng.shuffle(blocks)
                p = Partition.from_masks(space, blocks)
                assert p.blocks == tuple(sorted(blocks, key=space.lex_key)), (n, k)
