"""Partitions and preorders as abstractions of the lattice of abstract domains.

A partition P induces the partitioning domain adp(P) whose closure maps S to
the union of blocks meeting S; conversely pr(A) groups states with equal
singleton closures.  The pair (pr, adp) is a Galois insertion of the lattice
of partitions into the lattice of abstract domains, and ℙ = adp∘pr is the
partitioning-shell refinement.  Preorders play the same role for disjunctive
domains through add/preord_of, with 𝔻 = add∘preord_of the disjunctive shell.

Both shells are lower closure operators in the precision order, so the
assertable inclusion is image(A) ⊆ image(shell(A)).
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import ValidationError
from .lattice import (
    AbstractDomain,
    Mask,
    SetFamily,
    StateSet,
    StateSpace,
    _check_space,
    _classes,
    _join_rows,
    _mask_of,
    _members,
    _owners,
    _set_field,
    _Value,
    domain_leq,
)


class Partition(_Value):
    """Nonempty, pairwise disjoint blocks covering Σ, in canonical order."""

    _fields = ("space", "blocks")
    space: StateSpace
    blocks: tuple[Mask, ...]

    def __init__(self, space: StateSpace, blocks: tuple[Mask, ...]):
        union = 0
        for k, b in enumerate(blocks):
            if b == 0:
                raise ValidationError("partition blocks must be nonempty")
            if b & union:
                if b in blocks[:k]:
                    raise ValidationError(f"partition block {space.format_mask(b)} is repeated")
                raise ValidationError("partition blocks must be disjoint")
            union |= b
        if union != space.full_mask:
            raise ValidationError("partition blocks must cover the space")
        # disjoint blocks in lex_key order are in descending order of their lowest members
        ordered = tuple(sorted(blocks, key=lambda b: (b & -b).bit_length(), reverse=True))
        _set_field(self, "space", space)
        _set_field(self, "blocks", blocks if ordered == blocks else ordered)

    @staticmethod
    def of(space: StateSpace, blocks: Iterable[Iterable[str] | StateSet | Mask]) -> "Partition":
        return Partition(
            space,
            tuple(
                _mask_of(space, b) if isinstance(b, (StateSet, int)) else space.mask_of(b)
                for b in blocks
            ),
        )

    @staticmethod
    def from_masks(space: StateSpace, masks: Iterable[Mask]) -> "Partition":
        return Partition(space, tuple(masks))

    @staticmethod
    def identity(space: StateSpace) -> "Partition":
        return Partition(space, tuple(1 << i for i in range(space.n)))

    @staticmethod
    def trivial(space: StateSpace) -> "Partition":
        return Partition(space, (space.full_mask,))

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterator[StateSet]:
        return (StateSet(self.space, b) for b in self.blocks)

    def __repr__(self) -> str:
        return "{" + ", ".join(self.space.format_mask(b) for b in self.blocks) + "}"

    @property
    def family(self) -> SetFamily:
        return SetFamily.of(self.space, self.blocks)

    def block_containing(self, mask: Mask) -> Mask:
        """Union of blocks meeting ``mask`` (the adp closure)."""
        return _join_rows(self.blocks, self._meeting(mask & self.space.full_mask))

    # Block-index masks: bit i stands for ``blocks[i]``, the state order of
    # the block-level models built from this partition.

    @cached_property
    def _owner(self) -> list[int]:
        """The index of the block holding each state, built on first use; a
        cached attribute, not a field, so equality and hashing ignore it."""
        return _owners(self.space.n, self.blocks)

    def _meeting(self, mask: Mask) -> Mask:
        """Indices of the blocks that meet ``mask`` (a mask within the
        space), one step per block met: each step drops a whole block."""
        owner, blocks = self._owner, self.blocks
        bm = 0
        while mask:
            k = owner[(mask & -mask).bit_length() - 1]
            bm |= 1 << k
            mask &= ~blocks[k]
        return bm

    def inner(self, mask: Mask) -> Mask:
        """Indices of the blocks contained in ``mask``, read off its smaller
        side: the blocks of its members that it holds whole, or, when it
        holds more than half the states, every block but those that meet
        its complement."""
        owner, blocks = self._owner, self.blocks
        n = len(owner)
        mask &= (1 << n) - 1
        if 2 * mask.bit_count() > n:
            return ((1 << len(blocks)) - 1) ^ self._meeting(mask ^ ((1 << n) - 1))
        bm = 0
        while mask:
            k = owner[(mask & -mask).bit_length() - 1]
            if blocks[k] & ~mask == 0:
                bm |= 1 << k
            mask &= ~blocks[k]
        return bm

    def union(self, bm: Mask) -> Mask:
        """Union of the blocks whose indices are set in ``bm``, joined from
        its smaller side: the blocks it sets, or, when it sets more than
        half, the complement of the blocks it leaves out.  Bits past the
        last block are ignored."""
        every = (1 << len(self.blocks)) - 1
        bm &= every
        if 2 * bm.bit_count() > len(self.blocks):
            return self.space.full_mask & ~_join_rows(self.blocks, every & ~bm)
        return _join_rows(self.blocks, bm)

    def refines(self, other: "Partition") -> bool:
        """P ≼ Q: each block of P lies in the block of Q holding its lowest state."""
        _check_space(self, other, "partitions")
        owner, blocks = other._owner, other.blocks
        return all(b & ~blocks[owner[(b & -b).bit_length() - 1]] == 0 for b in self.blocks)


def _is_transitive(rows: Sequence[Mask]) -> bool:
    """Is the reflexive relation of ``rows`` transitive: R(R(s)) ⊆ R(s) for
    each row?  Each distinct row is joined once."""
    return all(_join_rows(rows, row) & ~row == 0 for row in set(rows))


class Preorder(_Value):
    """A reflexive and transitive relation as a dense row-mask matrix.

    ``rows[s]`` holds the mask {t | s R t}.  Rows given to the constructor
    are validated by rows, not pairs: each within the space and holding s,
    then R(R(s)) ⊆ R(s) (:func:`_is_transitive`).  The library's own
    preorders (similarities, partitions, ``preord_of``) are preorders by
    construction and are built through :meth:`_of_preorder`, unchecked.
    """

    _fields = ("space", "rows")
    space: StateSpace
    rows: tuple[Mask, ...]

    def __init__(self, space: StateSpace, rows: tuple[Mask, ...]):
        names = space.names
        if len(rows) != len(names):
            raise ValidationError("relation matrix width does not match the space")
        for s, row in enumerate(rows):
            if row & ~space.full_mask:
                raise ValidationError(f"row of {names[s]!r} names a state outside the space")
            if not (row >> s) & 1:
                raise ValidationError(f"relation is not reflexive at state {names[s]!r}")
        if not _is_transitive(rows):
            raise ValidationError("relation is not transitive")
        _set_field(self, "space", space)
        _set_field(self, "rows", rows)

    @classmethod
    def _of_preorder(cls, space: StateSpace, rows: tuple[Mask, ...]) -> "Preorder":
        """The relation of rows that are reflexive and transitive by construction."""
        r = object.__new__(cls)
        _set_field(r, "space", space)
        _set_field(r, "rows", rows)
        return r

    @staticmethod
    def from_pairs(space: StateSpace, pairs: Iterable[tuple[str, str]]) -> "Preorder":
        rows = [1 << i for i in range(space.n)]
        for s, t in pairs:
            rows[space.index(s)] |= 1 << space.index(t)
        return Preorder(space, tuple(rows))

    @staticmethod
    def identity(space: StateSpace) -> "Preorder":
        return Preorder._of_preorder(space, tuple(1 << i for i in range(space.n)))

    @staticmethod
    def total(space: StateSpace) -> "Preorder":
        return Preorder._of_preorder(space, tuple(space.full_mask for _ in range(space.n)))

    @staticmethod
    def from_partition(p: Partition) -> "Preorder":
        rows = tuple(p.blocks[k] for k in p._owner)
        return Preorder._of_preorder(p.space, rows)

    def holds(self, s: str, t: str) -> bool:
        return (self.rows[self.space.index(s)] >> self.space.index(t)) & 1 == 1

    def pairs(self) -> frozenset[tuple[str, str]]:
        names = self.space.names
        return frozenset(
            (names[s], names[t]) for s, row in enumerate(self.rows) for t in _members(row)
        )

    def kernel(self) -> Partition:
        """Partition induced by the symmetric kernel x R y ∧ y R x: the
        classes of the rows, as the rows holding t form column t, and in a
        preorder two columns are equal iff their states relate both ways."""
        return Partition.from_masks(self.space, _classes(self.space.n, self.rows))

    def __repr__(self) -> str:
        items = ", ".join(f"{s}≤{t}" for s, t in sorted(self.pairs()))
        return f"Preorder({items})"


def adp(p: Partition) -> AbstractDomain:
    """Partitioning domain of P: image = all unions of blocks (2^|P| sets).

    Its meet-irreducibles are the complements Σ∖B of the blocks, so it is
    the lazy domain they generate: the closure maps S to the union of blocks
    meeting S, at any size, and the image is built only on demand.
    """
    full = p.space.full_mask
    return AbstractDomain._of_generators(p.space, tuple(full & ~b for b in p.blocks))


def pr(a: AbstractDomain) -> Partition:
    """Partition of the equivalence s ≡_A s' ⇔ μ({s}) = μ({s'}): the
    classes of A's generators.  μ({s}) = ∩{g | s ∈ g}, so states in the same
    generators have one closure; and if μ({s}) = μ({s'}), a generator
    holding s holds μ({s}) ∋ s', and one holding s' holds s alike."""
    return Partition.from_masks(a.space, _classes(a.space.n, a._gens))


def is_partitioning(a: AbstractDomain) -> bool:
    """True iff the image is closed under complement, i.e. A = ℙ(A).  As
    image(A) ⊆ image(ℙ(A)) always holds, that is A ⊑ ℙ(A), which
    :func:`domain_leq` tests on ℙ(A)'s generators, listing no image."""
    return domain_leq(a, adp(pr(a)))


def add(r: Preorder) -> AbstractDomain:
    """Disjunctive domain of a preorder: unions of {pre_R({x}) | x ∈ Σ}, ∅
    included.

    Its meet-irreducibles are the complements Σ∖R(s) of the rows, so it is
    the lazy domain they generate: the closure is pre_R(S) = {y | ∃x ∈ S.
    y R x}, at any size, and the image is built only on demand.
    """
    full = r.space.full_mask
    return AbstractDomain._of_generators(r.space, tuple({full & ~row for row in r.rows}))


def preord_of(a: AbstractDomain) -> Preorder:
    """(x, y) ∈ result iff μ({x}) ⊆ μ({y}), i.e. x ∈ μ({y}): each generator
    holding y holds x.  So R(x) = ∩{Σ∖g | x ∉ g}, Σ when every g holds x, at
    the cost of the complements' sizes."""
    full = a.space.full_mask
    rows = [full] * a.space.n
    for g in a._gens:
        for x in _members(full & ~g):
            rows[x] &= ~g
    return Preorder._of_preorder(a.space, tuple(rows))


def is_disjunctive(a: AbstractDomain) -> bool:
    """True iff the image is closed under arbitrary unions, ∅ included (it
    makes {Σ} non-disjunctive), i.e. A = 𝔻(A).  As image(A) ⊆ image(𝔻(A))
    always holds, that is A ⊑ 𝔻(A), which :func:`domain_leq` tests on
    𝔻(A)'s generators, listing no image."""
    return domain_leq(a, add(preord_of(a)))


def structural_shell(kind: str, a: AbstractDomain) -> AbstractDomain:
    """Most abstract refinement of A that is partitioning (ℙ) or disjunctive (𝔻).

    ℙ(A) = adp(pr(A)) and 𝔻(A) = add(preord_of(A)); both are idempotent and
    satisfy image(A) ⊆ image(shell(A)).
    """
    if kind == "partitioning":
        return adp(pr(a))
    if kind == "disjunctive":
        return add(preord_of(a))
    raise ValidationError(f"unknown shell kind {kind!r}")
