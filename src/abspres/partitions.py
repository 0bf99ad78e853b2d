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

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .errors import CapacityError, SpaceMismatchError, ValidationError
from .lattice import (
    AbstractDomain,
    DEFAULT_MAX_FAMILY,
    Mask,
    SetFamily,
    StateSet,
    StateSpace,
)


@dataclass(frozen=True)
class Partition:
    """Nonempty, pairwise disjoint blocks covering Σ, in canonical order."""

    space: StateSpace
    blocks: tuple[Mask, ...]

    def __post_init__(self):
        ordered = tuple(sorted(set(self.blocks), key=self.space.lex_key))
        if ordered != self.blocks:
            object.__setattr__(self, "blocks", ordered)
        union = 0
        for b in self.blocks:
            if b == 0:
                raise ValidationError("partition blocks must be nonempty")
            if b & union:
                raise ValidationError("partition blocks must be disjoint")
            union |= b
        if union != self.space.full_mask:
            raise ValidationError("partition blocks must cover the space")

    @staticmethod
    def of(space: StateSpace, blocks: Iterable[Iterable[str] | StateSet | Mask]) -> "Partition":
        masks = []
        for b in blocks:
            if isinstance(b, StateSet):
                masks.append(b.mask)
            elif isinstance(b, int):
                masks.append(b)
            else:
                masks.append(space.mask_of(b))
        return Partition(space, tuple(masks))

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
        acc = 0
        for b in self.blocks:
            if b & mask:
                acc |= b
        return acc

    # Block-index masks: bit i stands for ``blocks[i]``, the state order of
    # the block-level models built from this partition.

    def meeting(self, mask: Mask) -> Mask:
        """Indices of the blocks that meet ``mask``."""
        bm = 0
        for i, b in enumerate(self.blocks):
            if b & mask:
                bm |= 1 << i
        return bm

    def inner(self, mask: Mask) -> Mask:
        """Indices of the blocks contained in ``mask``."""
        bm = 0
        for i, b in enumerate(self.blocks):
            if b & ~mask == 0:
                bm |= 1 << i
        return bm

    def union(self, bm: Mask) -> Mask:
        """Union of the blocks whose indices are set in ``bm``."""
        acc = 0
        for i, b in enumerate(self.blocks):
            if (bm >> i) & 1:
                acc |= b
        return acc

    def refines(self, other: "Partition") -> bool:
        """P ≼ Q: every block of P fits inside a block of Q."""
        if self.space != other.space:
            raise SpaceMismatchError("partitions over different spaces")
        for b in self.blocks:
            if not any(b & ~c == 0 for c in other.blocks):
                return False
        return True


def _transitive_closure(rows: Iterable[Mask]) -> tuple[Mask, ...]:
    """Warshall's closure of a relation given as row masks."""
    closure = list(rows)
    for k in range(len(closure)):
        for s in range(len(closure)):
            if (closure[s] >> k) & 1:
                closure[s] |= closure[k]
    return tuple(closure)


@dataclass(frozen=True)
class Preorder:
    """A reflexive and transitive relation as a dense row-mask matrix.

    ``rows[s]`` holds the mask {t | s R t}.  Transitivity is validated by
    comparing against Warshall's closure.
    """

    space: StateSpace
    rows: tuple[Mask, ...]

    def __post_init__(self):
        n = self.space.n
        if len(self.rows) != n:
            raise ValidationError("relation matrix width does not match the space")
        for s in range(n):
            if not (self.rows[s] >> s) & 1:
                raise ValidationError(
                    f"relation is not reflexive at state {self.space.names[s]!r}"
                )
        if _transitive_closure(self.rows) != self.rows:
            raise ValidationError("relation is not transitive")

    @staticmethod
    def from_pairs(space: StateSpace, pairs: Iterable[tuple[str, str]]) -> "Preorder":
        rows = [1 << i for i in range(space.n)]
        for s, t in pairs:
            rows[space.index(s)] |= 1 << space.index(t)
        return Preorder(space, tuple(rows))

    @staticmethod
    def identity(space: StateSpace) -> "Preorder":
        return Preorder(space, tuple(1 << i for i in range(space.n)))

    @staticmethod
    def total(space: StateSpace) -> "Preorder":
        return Preorder(space, tuple(space.full_mask for _ in range(space.n)))

    @staticmethod
    def from_partition(p: Partition) -> "Preorder":
        rows = [0] * p.space.n
        for b in p.blocks:
            for i in range(p.space.n):
                if (b >> i) & 1:
                    rows[i] = b
        return Preorder(p.space, tuple(rows))

    def holds(self, s: str, t: str) -> bool:
        return (self.rows[self.space.index(s)] >> self.space.index(t)) & 1 == 1

    def pairs(self) -> frozenset[tuple[str, str]]:
        names = self.space.names
        return frozenset(
            (names[s], names[t])
            for s in range(self.space.n)
            for t in range(self.space.n)
            if (self.rows[s] >> t) & 1
        )

    def pre_mask(self, mask: Mask) -> Mask:
        """pre_R(S) = {y | ∃x ∈ S. y R x}; the closure of add(R)."""
        acc = 0
        for y in range(self.space.n):
            if self.rows[y] & mask:
                acc |= 1 << y
        return acc

    def kernel(self) -> Partition:
        """Partition induced by the symmetric kernel x R y ∧ y R x."""
        n = self.space.n
        cols = [0] * n
        for s in range(n):
            row = self.rows[s]
            for t in range(n):
                if (row >> t) & 1:
                    cols[t] |= 1 << s
        classes = {self.rows[s] & cols[s] for s in range(n)}
        return Partition.from_masks(self.space, classes)

    def __repr__(self) -> str:
        items = ", ".join(f"{s}≤{t}" for s, t in sorted(self.pairs()))
        return f"Preorder({items})"


def _unions(masks: Iterable[Mask]) -> frozenset[Mask]:
    """Every union of some of the masks, the empty union ∅ included."""
    unions = {0}
    for m in masks:
        unions |= {u | m for u in unions}
    return frozenset(unions)


def adp(p: Partition) -> AbstractDomain:
    """Partitioning domain of P: image = all unions of blocks (2^|P| sets).

    The closure maps S to the union of blocks meeting S; the image is
    materialized only on demand, and is Moore by construction.
    """
    if 1 << len(p.blocks) > DEFAULT_MAX_FAMILY:
        raise CapacityError(f"adp image has 2^{len(p.blocks)} members (DEFAULT_MAX_FAMILY)")
    return AbstractDomain(
        p.space, image_fn=lambda: _unions(p.blocks), closure_fn=p.block_containing
    )


def pr(a: AbstractDomain) -> Partition:
    """Partition of the equivalence s ≡_A s' ⇔ μ({s}) = μ({s'})."""
    classes: dict[Mask, Mask] = {}
    for i in range(a.space.n):
        mu = a.closure_mask(1 << i)
        classes[mu] = classes.get(mu, 0) | (1 << i)
    return Partition.from_masks(a.space, classes.values())


def is_partitioning(a: AbstractDomain) -> bool:
    """True iff the image is closed under complement.

    Equivalent to adp(pr(A)) = A and to γ being additive with the singleton
    closures forming a partition; the equivalences are exercised by tests.
    """
    full = a.space.full_mask
    masks = a.masks
    return all((full & ~m) in masks for m in masks)


def add(r: Preorder) -> AbstractDomain:
    """Disjunctive domain of a preorder: unions of {pre_R({x}) | x ∈ Σ} plus ∅.

    The closure of add(R) is pre_R itself; the image is materialized only
    on demand, and is Moore by construction.
    """
    space = r.space
    generators = sorted({r.pre_mask(1 << x) for x in range(space.n)})
    if 1 << len(generators) > DEFAULT_MAX_FAMILY:
        raise CapacityError(f"add image has up to 2^{len(generators)} members (DEFAULT_MAX_FAMILY)")
    return AbstractDomain(
        space,
        image_fn=lambda: _unions(generators) | {space.full_mask},
        closure_fn=r.pre_mask,
    )


def preord_of(a: AbstractDomain) -> Preorder:
    """(x, y) ∈ result iff μ({x}) ⊆ μ({y})."""
    n = a.space.n
    closures = [a.closure_mask(1 << i) for i in range(n)]
    rows = []
    for x in range(n):
        row = 0
        for y in range(n):
            if closures[x] & ~closures[y] == 0:
                row |= 1 << y
        rows.append(row)
    return Preorder(a.space, tuple(rows))


def is_disjunctive(a: AbstractDomain) -> bool:
    """True iff the image is closed under arbitrary unions.

    Pairwise closure handles the finite nonempty unions; the empty union
    demands ∅ ∈ image (an additive γ must send the least abstract value
    to ∅), which is what makes {Σ} non-disjunctive.
    """
    masks = a.masks
    if 0 not in masks:
        return False
    return all(x | y in masks for x, y in combinations(masks, 2))


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


def iter_partitions(space: StateSpace) -> Iterator[Partition]:
    """All partitions of the space (Bell-number many); canonical block order."""

    def assign(i: int, blocks: list[list[int]]):
        if i == space.n:
            yield [sum(1 << s for s in b) for b in blocks]
            return
        for b in blocks:
            b.append(i)
            yield from assign(i + 1, blocks)
            b.pop()
        blocks.append([i])
        yield from assign(i + 1, blocks)
        blocks.pop()

    if space.n == 0:
        return
    for masks in assign(0, []):
        yield Partition.from_masks(space, masks)


def iter_preorders(space: StateSpace) -> Iterator[Preorder]:
    """All preorders over a small space, by filtering reflexive relations."""
    n = space.n
    if n > 4:
        raise CapacityError("preorder enumeration supports n ≤ 4")
    off_diagonal = [(s, t) for s in range(n) for t in range(n) if s != t]
    base = tuple(1 << i for i in range(n))
    for bits in range(1 << len(off_diagonal)):
        rows = list(base)
        for k, (s, t) in enumerate(off_diagonal):
            if (bits >> k) & 1:
                rows[s] |= 1 << t
        if _transitive_closure(rows) == tuple(rows):
            yield Preorder(space, tuple(rows))
