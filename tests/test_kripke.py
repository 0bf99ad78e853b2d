"""Models, transformers, label partitions and quotients."""

import random

import pytest

from abspres import (
    KripkeModel,
    Partition,
    StateSpace,
    ValidationError,
    label_partition,
    model_from_json,
    model_to_json,
    quotient,
    transformer,
    validate_model,
)

from conftest import iter_partitions, per_state_quotient, random_model, random_total_model


class TestValidation:
    def test_fixtures_are_total(self, tl, kpq, kpqr, k3):
        for model in (tl, kpq, kpqr, k3):
            validate_model(model)

    def test_stuck_state_is_named(self, kpq):
        succ = list(kpq.succ)
        succ[kpq.space.index("5")] = 0  # drop 5 -> 4
        broken = KripkeModel(kpq.space, tuple(succ), kpq.label_items)
        with pytest.raises(ValidationError, match="'5'"):
            validate_model(broken)

    def test_unknown_label_state(self):
        with pytest.raises(ValidationError):
            KripkeModel.of(["a"], [("a", "a")], {"p": ["zz"]})

    # each construction check names what it found, the first offender
    # included, although the checks fold all rows and labels at once
    def test_successors_outside_the_space(self, kpq):
        succ = list(kpq.succ)
        succ[2] |= 1 << kpq.n
        succ[4] |= 1 << kpq.n + 3
        with pytest.raises(ValidationError, match="successors of '3' fall outside the space"):
            KripkeModel(kpq.space, tuple(succ), kpq.label_items)
        with pytest.raises(ValidationError, match="successors of '1' fall outside"):
            KripkeModel(kpq.space, (-1,) + kpq.succ[1:], kpq.label_items)

    def test_label_outside_the_space(self, kpq):
        items = kpq.label_items + (("r", 1), ("s", 1 << kpq.n), ("t", 1 << kpq.n))
        with pytest.raises(ValidationError, match="label 's' falls outside the space"):
            KripkeModel(kpq.space, kpq.succ, items)

    def test_duplicate_label_names(self, kpq):
        items = kpq.label_items + (("r", 1), ("r", 2))
        with pytest.raises(ValidationError, match="duplicate label names"):
            KripkeModel(kpq.space, kpq.succ, items)
        # the duplicate is reported before a label outside the space
        with pytest.raises(ValidationError, match="duplicate label names"):
            KripkeModel(kpq.space, kpq.succ, items + (("r", 1 << kpq.n),))

    def test_space_and_width(self, kpq):
        with pytest.raises(ValidationError, match="nonempty state space"):
            KripkeModel(StateSpace(()), (), ())
        with pytest.raises(ValidationError, match="width does not match"):
            KripkeModel(kpq.space, kpq.succ[:-1], kpq.label_items)


class TestTransformers:
    def test_pre_examples(self, kpqr):
        got = transformer("pre", kpqr, kpqr.space.set_of(["3", "4"]))
        assert got == kpqr.space.set_of(["1", "2", "3", "5"])
        got = transformer("pre", kpqr, kpqr.space.set_of(["3"]))
        assert got == kpqr.space.set_of(["1", "2"])

    def test_limit_cases(self, kpqr):
        assert transformer("pre", kpqr, kpqr.space.empty) == kpqr.space.empty
        assert transformer("pre~", kpqr, kpqr.space.full) == kpqr.space.full

    def test_additivity_and_duality(self):
        rng = random.Random(23)
        for _ in range(20):
            model = random_total_model(rng, max_states=4)
            n = model.n
            full = model.space.full_mask
            for y1 in range(1 << n):
                for y2 in range(1 << n):
                    assert model.pre(y1 | y2) == model.pre(y1) | model.pre(y2)
                    assert model.post(y1 | y2) == model.post(y1) | model.post(y2)
                    assert model.cpre(y1 & y2) == model.cpre(y1) & model.cpre(y2)
                    assert model.cpost(y1 & y2) == model.cpost(y1) & model.cpost(y2)
            for y in range(1 << n):
                assert model.cpre(y) == full & ~model.pre(full & ~y)
                assert model.cpost(y) == full & ~model.post(full & ~y)

    def test_rows_and_transformers_match_their_definitions(self, kpq):
        # pre~ and post~ are computed as ∁ pre ∁ and ∁ post ∁, so all four
        # are judged by the set-builder definitions of the module docstring,
        # read straight off succ, on models with dead states and on a ∀∃
        # quotient with a stuck block
        rng = random.Random(31)
        models = [random_model(rng, rng.randint(1, 5)) for _ in range(80)]
        p = Partition.of(kpq.space, [["1", "2", "3", "4"], ["5"]])
        models.append(quotient("ae", kpq, p).model)
        assert sum(not m.is_total() for m in models) >= 5 and not models[-1].is_total()
        for model in models:
            n, succ = model.n, model.succ

            def mask(holds):
                return sum(1 << i for i in range(n) if holds(i))

            def moves(s, t):
                return (succ[s] >> t) & 1

            assert model.pred == tuple(mask(lambda s: moves(s, t)) for t in range(n))
            for y in range(1 << n):
                assert model.pre(y) == mask(lambda s: succ[s] & y)
                assert model.post(y) == mask(
                    lambda t: any((y >> s) & 1 and moves(s, t) for s in range(n))
                )
                assert model.cpre(y) == mask(lambda s: succ[s] & ~y == 0)
                assert model.cpost(y) == mask(
                    lambda t: all((y >> s) & 1 for s in range(n) if moves(s, t))
                )

    def test_unknown_kind(self, k3):
        with pytest.raises(ValidationError):
            transformer("next", k3, k3.space.full)


class TestLabelPartition:
    def test_five_state(self, kpq):
        assert label_partition(kpq) == Partition.of(
            kpq.space, [["1", "2", "3", "4"], ["5"]]
        )

    def test_traffic_light(self, tl):
        assert label_partition(tl) == Partition.of(tl.space, [["R", "RY"], ["G", "Y"]])

    def test_uniform_labels(self):
        model = KripkeModel.of(["a", "b"], [("a", "b"), ("b", "a")], {"p": ["a", "b"]})
        assert label_partition(model) == Partition.trivial(model.space)


class TestQuotient:
    def test_existential_five_state(self, kpq):
        p = Partition.of(kpq.space, [["1", "2"], ["3"], ["4"], ["5"]])
        q = quotient("ee", kpq, p)
        assert set(q.model.edges()) == {
            ("[1,2]", "[1,2]"),
            ("[1,2]", "[3]"),
            ("[3]", "[4]"),
            ("[4]", "[5]"),
            ("[5]", "[4]"),
        }
        assert q.total

    def test_existential_traffic_light(self, tl):
        p = Partition.of(tl.space, [["R", "RY"], ["G", "Y"]])
        q = quotient("ee", tl, p)
        assert set(q.model.edges()) == {
            ("[R,RY]", "[R,RY]"),
            ("[R,RY]", "[G,Y]"),
            ("[G,Y]", "[G,Y]"),
            ("[G,Y]", "[R,RY]"),
        }

    def test_identity_partition_is_isomorphic(self, kpq):
        q = quotient("ee", kpq, Partition.identity(kpq.space))
        # same structure modulo the canonical block ordering
        rename = {f"[{s}]": s for s in kpq.space.names}
        assert sorted((rename[a], rename[b]) for a, b in q.model.edges()) == sorted(
            kpq.edges()
        )
        got_labels = {
            name: {rename[s] for s in q.model.space.names_of(m)}
            for name, m in q.model.label_items
        }
        want_labels = {
            name: set(kpq.space.names_of(m)) for name, m in kpq.label_items
        }
        assert got_labels == want_labels

    def test_forall_exists_can_be_partial(self, kpq):
        p = Partition.of(kpq.space, [["1", "2", "3", "4"], ["5"]])
        q = quotient("ae", kpq, p)
        # state 4 has no successor inside the big block and 1 none in {5}
        assert not q.total
        validate_model(kpq)  # the parent stays total

    def test_forall_exists_on_bisimulation_blocks(self, kpq):
        p = Partition.of(kpq.space, [["1", "2"], ["3"], ["4"], ["5"]])
        q = quotient("ae", kpq, p)
        assert q.total
        assert set(q.model.edges()) == {
            ("[1,2]", "[1,2]"),
            ("[1,2]", "[3]"),
            ("[3]", "[4]"),
            ("[4]", "[5]"),
            ("[5]", "[4]"),
        }

    def test_block_labels_are_existential(self, kpq):
        p = Partition.of(kpq.space, [["1", "2", "3", "4"], ["5"]])
        q = quotient("ee", kpq, p)
        labels = dict(q.model.label_items)
        big = q.model.space.index("[1,2,3,4]")
        small = q.model.space.index("[5]")
        assert labels["p"] == 1 << big
        assert labels["q"] == 1 << small

    def test_unknown_kind(self, kpq):
        with pytest.raises(ValidationError):
            quotient("exists-forall", kpq, Partition.identity(kpq.space))

    def test_block_models_match_the_per_state_oracle(self):
        # ∃∃ rows by block post and ∀∃ rows by member, against one block
        # lookup per state: rows, labels and names, on seeded models with
        # stuck states, over every partition up to 4 states and random ones
        # past that
        rng = random.Random(3131)
        seen = {"stuck": 0, "partial": 0}
        for _ in range(60):
            model = random_model(rng, rng.randint(1, 7))
            if model.n <= 4:
                partitions = list(iter_partitions(model.space))
            else:
                partitions = []
                for _ in range(6):
                    picks = [rng.randrange(model.n) for _ in range(model.n)]
                    partitions.append(Partition.from_masks(model.space, {
                        sum(1 << s for s in range(model.n) if picks[s] == j) for j in set(picks)
                    }))
            seen["stuck"] += not model.is_total()
            for p in partitions:
                for kind in ("ee", "ae"):
                    q = quotient(kind, model, p)
                    want = per_state_quotient(kind, model, p)
                    assert q.model == want, (kind, p)
                    assert q.model.space.names == want.space.names
                    assert (q.parent, q.partition) == (model, p)
                    seen["partial"] += not q.total
        assert seen["stuck"] >= 5 and seen["partial"] >= 50, seen


class TestModelIO:
    def test_round_trip(self, kpq):
        doc = model_to_json(kpq)
        again = model_from_json(doc)
        assert again == kpq

    def test_dangling_transition_target(self):
        doc = {
            "states": ["1", "2"],
            "transitions": [["1", "2"], ["2", "zz"]],
            "labels": {},
        }
        with pytest.raises(ValidationError, match="'zz'"):
            model_from_json(doc)

    def test_missing_key(self):
        with pytest.raises(ValidationError, match="'transitions'"):
            model_from_json({"states": ["1"]})

    def test_duplicate_states(self):
        with pytest.raises(ValidationError):
            model_from_json({"states": ["1", "1"], "transitions": []})
