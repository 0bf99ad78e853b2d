"""Finite powerset lattices, Moore families and the lattice of abstract domains.

The concrete domain is ℘(Σ) for a finite state space Σ.  Subsets of Σ are
characteristic bit vectors packed into Python ints (bit i = state with
index i).  An abstract domain is represented by its Moore family of closed
sets: the image of an upper closure operator μ, meet-closed and containing
Σ.  With this representation γ is the identity on closed sets and
α(S) = μ(S) is the least closed superset, so every Galois-insertion law is
decidable by plain set arithmetic.

Domains are compared in the precision order: A1 ⊑ A2 ("A1 is more precise")
iff image(A2) ⊆ image(A1).

A state space may have any number of states.  The bound sits with each
route that builds a family over ℘(Σ): :data:`DEFAULT_MAX_FAMILY` for a
materialized family, :data:`MAX_ENUMERATION_STATES` for the enumeration.
The Moore property is checked once, where an image enters from outside the
library (``AbstractDomain(space, image=...)``); the families the library
builds itself (Moore closures, meets, joins, ℘(Σ), {Σ}, the enumeration,
shell rounds, and the meets of a lazy domain's generators) are Moore by
construction and are not checked again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import CapacityError, SpaceMismatchError, ValidationError

Mask = int

#: Default bound on the number of sets a single family may materialize.
DEFAULT_MAX_FAMILY = 1 << 20

#: Largest n accepted by enumerate_moore_families (count explodes beyond).
MAX_ENUMERATION_STATES = 4


@dataclass(frozen=True)
class StateSpace:
    """A named finite universe Σ with a fixed index order.

    Indices are stable for the lifetime of the space; all sets, families,
    partitions and models are relative to one space.  An empty space is
    permitted (it only occurs when enumerating families over Σ = ∅).
    """

    names: tuple[str, ...]
    _index: dict[str, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        index = {name: i for i, name in enumerate(self.names)}
        if len(index) != len(self.names):
            raise ValidationError(f"duplicate state names in {self.names!r}")
        object.__setattr__(self, "_index", index)

    @staticmethod
    def of(*names: str) -> "StateSpace":
        return StateSpace(tuple(names))

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def full_mask(self) -> Mask:
        return (1 << self.n) - 1

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name from a file
            raise ValidationError(f"unknown state name {name!r}") from None

    def mask_of(self, names: Iterable[str]) -> Mask:
        mask = 0
        for name in names:
            mask |= 1 << self.index(name)
        return mask

    def names_of(self, mask: Mask) -> tuple[str, ...]:
        return tuple(self.names[i] for i in range(self.n) if (mask >> i) & 1)

    def set_of(self, names: Iterable[str]) -> "StateSet":
        return StateSet(self, self.mask_of(names))

    def set_from_mask(self, mask: Mask) -> "StateSet":
        return StateSet(self, mask)

    @property
    def full(self) -> "StateSet":
        return StateSet(self, self.full_mask)

    @property
    def empty(self) -> "StateSet":
        return StateSet(self, 0)

    def lex_key(self, mask: Mask) -> int:
        """Order key: lexicographic on the characteristic vector (the mask's
        n bits reversed, so index 0 is the most significant)."""
        return int(format(mask, f"0{self.n}b")[::-1], 2)

    def format_mask(self, mask: Mask) -> str:
        return "{" + ",".join(self.names_of(mask)) + "}"


@dataclass(frozen=True)
class StateSet:
    """A subset of Σ as a characteristic vector over a fixed space."""

    space: StateSpace
    mask: Mask

    def __post_init__(self):
        if self.mask < 0 or self.mask > self.space.full_mask:
            raise ValidationError(f"mask {self.mask:#x} is not over {self.space.names}")

    def _check(self, other: "StateSet") -> None:
        if self.space != other.space:
            raise SpaceMismatchError(
                f"sets over different spaces: {self.space.names} vs {other.space.names}"
            )

    def __and__(self, other: "StateSet") -> "StateSet":
        self._check(other)
        return StateSet(self.space, self.mask & other.mask)

    def __or__(self, other: "StateSet") -> "StateSet":
        self._check(other)
        return StateSet(self.space, self.mask | other.mask)

    def __invert__(self) -> "StateSet":
        return StateSet(self.space, self.space.full_mask & ~self.mask)

    def __le__(self, other: "StateSet") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def __contains__(self, name: str) -> bool:
        return (self.mask >> self.space.index(name)) & 1 == 1

    def __iter__(self) -> Iterator[str]:
        return iter(self.space.names_of(self.mask))

    def __len__(self) -> int:
        return bin(self.mask).count("1")

    def __repr__(self) -> str:
        return self.space.format_mask(self.mask)

    @property
    def names(self) -> tuple[str, ...]:
        return self.space.names_of(self.mask)


SetLike = Union[StateSet, Mask]


def _mask_of(space: StateSpace, s: SetLike) -> Mask:
    if isinstance(s, StateSet):
        if s.space != space:
            raise SpaceMismatchError("set over a different space")
        return s.mask
    return s


@dataclass(frozen=True)
class SetFamily:
    """A duplicate-free collection of subsets of one space, canonically ordered.

    The canonical order is lexicographic on characteristic vectors, so
    equality of families is equality of representations.
    """

    space: StateSpace
    masks: tuple[Mask, ...]

    def __post_init__(self):
        ordered = tuple(sorted(set(self.masks), key=self.space.lex_key))
        if ordered != self.masks:
            object.__setattr__(self, "masks", ordered)

    @staticmethod
    def of(space: StateSpace, sets: Iterable[SetLike]) -> "SetFamily":
        return SetFamily(space, tuple(_mask_of(space, s) for s in sets))

    @staticmethod
    def from_names(space: StateSpace, groups: Iterable[Iterable[str]]) -> "SetFamily":
        return SetFamily.of(space, [space.mask_of(g) for g in groups])

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self) -> Iterator[StateSet]:
        return (StateSet(self.space, m) for m in self.masks)

    def __contains__(self, s: SetLike) -> bool:
        return _mask_of(self.space, s) in set(self.masks)

    def __repr__(self) -> str:
        return "{" + ", ".join(self.space.format_mask(m) for m in self.masks) + "}"

    def mask_set(self) -> frozenset[Mask]:
        return frozenset(self.masks)


def meet_close(closed: set[Mask], fresh: Iterable[Mask]) -> set[Mask]:
    """Add ``fresh`` to the meet-closed set ``closed`` and re-close it under
    intersection, in place; returns the masks added."""
    added = {m for m in fresh if m not in closed}
    closed |= added
    pending = list(added)
    while pending:
        m = pending.pop()
        for other in list(closed):
            meet = m & other
            if meet not in closed:
                closed.add(meet)
                added.add(meet)
                pending.append(meet)
    return added


def _is_moore(space: StateSpace, masks: frozenset[Mask]) -> bool:
    if space.full_mask not in masks:
        return False
    items = list(masks)
    for i, a in enumerate(items):
        for b in items[i + 1 :]:
            if a & b not in masks:
                return False
    return True


class AbstractDomain:
    """A Moore family of closed sets over one space; houses μ, α and γ.

    A domain is stored as generators, masks whose meets are its image, and
    has one closure rule, μ(X) = ∩{g | X ⊆ g}.  An ``image`` given to the
    constructor is its own generator list, and is checked to be a Moore
    family (it holds Σ and is closed under intersection): it is data from
    outside the library.  The library's own constructors skip that check:
    :meth:`_of_moore` takes an image that is Moore by construction, with
    the generators it was closed from when there are any (:func:`moore_close`
    keeps its input), and :meth:`_of_generators` a lazy domain (adp and add
    pass their meet-irreducibles), which answers closure and membership at
    any size.
    Its image is built on demand, every meet of its k generators by
    doubling, and refused before anything is built when 2^k is over
    :data:`DEFAULT_MAX_FAMILY`.  Equality, hashing and iteration force the
    image.
    """

    __slots__ = ("space", "_gens", "_masks", "_hash")

    def __init__(self, space: StateSpace, image: Iterable[SetLike]):
        masks = frozenset(_mask_of(space, s) for s in image)
        if not _is_moore(space, masks):
            raise ValidationError(
                "image is not a Moore family (must contain the whole space "
                "and be closed under intersection)"
            )
        self.space, self._gens, self._masks, self._hash = space, masks, masks, None

    @classmethod
    def _of_moore(
        cls,
        space: StateSpace,
        masks: frozenset[Mask],
        gens: Optional[Sequence[Mask]] = None,
    ) -> "AbstractDomain":
        """The domain of an image that is a Moore family by construction;
        ``gens``, distinct masks whose meets are that image, defaults to the
        image itself."""
        domain = cls.__new__(cls)
        domain.space, domain._masks, domain._hash = space, masks, None
        domain._gens = masks if gens is None else gens
        return domain

    @classmethod
    def _of_generators(cls, space: StateSpace, gens: tuple[Mask, ...]) -> "AbstractDomain":
        """The lazy domain M(gens); ``gens`` holds distinct masks."""
        domain = cls.__new__(cls)
        domain.space, domain._gens, domain._masks, domain._hash = space, gens, None, None
        return domain

    @property
    def masks(self) -> frozenset[Mask]:
        if self._masks is None:
            k = len(self._gens)
            if 1 << k > DEFAULT_MAX_FAMILY:
                raise CapacityError(
                    f"image of {k} generators has up to 2^{k} members, "
                    f"over DEFAULT_MAX_FAMILY = {DEFAULT_MAX_FAMILY}"
                )
            image = {self.space.full_mask}
            for g in self._gens:
                image |= {m & g for m in image}
            self._masks = frozenset(image)
        return self._masks

    @property
    def image(self) -> SetFamily:
        return SetFamily.of(self.space, self.masks)

    def __len__(self) -> int:
        return len(self.masks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AbstractDomain):
            return NotImplemented
        return self.space == other.space and self.masks == other.masks

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.space, self.masks))
        return self._hash

    def __repr__(self) -> str:
        return f"AbstractDomain({self.image!r})"

    def closure_mask(self, s: SetLike) -> Mask:
        """μ(S): the least image member containing S."""
        mask = _mask_of(self.space, s)
        acc = self.space.full_mask
        for g in self._gens:
            if mask & ~g == 0:
                acc &= g
        return acc

    def closure(self, s: StateSet) -> StateSet:
        return StateSet(self.space, self.closure_mask(s))

    # α and γ under the closed-set representation.
    alpha = closure

    def gamma(self, s: StateSet) -> StateSet:
        if not self.contains(s):
            raise ValidationError(f"{s!r} is not a member of the domain image")
        return s

    def contains(self, s: SetLike) -> bool:
        mask = _mask_of(self.space, s)
        if self._masks is None:
            return self.closure_mask(mask) == mask
        return mask in self._masks


def moore_close(family: SetFamily) -> AbstractDomain:
    """Least Moore family containing the input: M(X) = {∧S | S ⊆ X}.

    Always contains Σ (the empty meet) and is idempotent.  The input's masks
    stay the generators, so closure and :func:`domain_leq` scan them, not
    the image.
    """
    closed = {family.space.full_mask}
    meet_close(closed, family.masks)
    return AbstractDomain._of_moore(family.space, frozenset(closed), family.masks)


def closure_of(domain: AbstractDomain, s: StateSet) -> StateSet:
    """μ(S) = intersection of all image members containing S."""
    return domain.closure(s)


def domain_leq(a1: AbstractDomain, a2: AbstractDomain) -> bool:
    """A1 ⊑ A2 (A1 at least as precise): image(A2) ⊆ image(A1).

    A Moore family contains another exactly when it contains the other's
    generators, so only those of A2 are tested and a lazy A2 is never
    listed."""
    if a1.space != a2.space:
        raise SpaceMismatchError("domains over different spaces")
    return all(a1.contains(g) for g in a2._gens)


def domain_meet(a1: AbstractDomain, a2: AbstractDomain) -> AbstractDomain:
    """Greatest lower bound in precision (reduced product): M(img₁ ∪ img₂)."""
    if a1.space != a2.space:
        raise SpaceMismatchError("domains over different spaces")
    closed = set(a1.masks)
    meet_close(closed, a2.masks)
    return AbstractDomain._of_moore(a1.space, frozenset(closed))


def domain_join(a1: AbstractDomain, a2: AbstractDomain) -> AbstractDomain:
    """Least upper bound in precision: img₁ ∩ img₂ (meet-closed automatically)."""
    if a1.space != a2.space:
        raise SpaceMismatchError("domains over different spaces")
    return AbstractDomain._of_moore(a1.space, a1.masks & a2.masks)


def powerset_domain(space: StateSpace) -> AbstractDomain:
    """The identical abstraction ℘(Σ): every subset is closed."""
    if 1 << space.n > DEFAULT_MAX_FAMILY:
        raise CapacityError(
            f"℘(Σ) would have 2^{space.n} members, over DEFAULT_MAX_FAMILY = {DEFAULT_MAX_FAMILY}"
        )
    return AbstractDomain._of_moore(space, frozenset(range(1 << space.n)))


def top_domain(space: StateSpace) -> AbstractDomain:
    """The most abstract domain {Σ} (λx.⊤)."""
    return AbstractDomain._of_moore(space, frozenset({space.full_mask}))


def enumerate_moore_families(n: int) -> Iterator[AbstractDomain]:
    """Yield every Moore family over an n-state space exactly once.

    Candidates are all subsets of ℘(Σ) containing Σ, filtered for
    meet-closure.  n is capped because the count explodes (n = 4 already
    gives 2480 families out of 65536 candidates).
    """
    if n < 0 or n > MAX_ENUMERATION_STATES:
        raise CapacityError(
            f"enumeration supports 0 ≤ n ≤ MAX_ENUMERATION_STATES = {MAX_ENUMERATION_STATES}, "
            f"got {n}"
        )
    space = StateSpace(tuple(str(i + 1) for i in range(n)))
    full = space.full_mask
    subsets = 1 << n
    for candidate in range(1 << subsets):
        if not (candidate >> full) & 1:
            continue
        members = [m for m in range(subsets) if (candidate >> m) & 1]
        ok = True
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                if not (candidate >> (a & b)) & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield AbstractDomain._of_moore(space, frozenset(members))


def family_of_names(space: StateSpace, compact: Sequence[str]) -> SetFamily:
    """Build a family from compact set strings: "" is ∅, "124" is {1,2,4}.

    Only usable when every state name is a single character; test fixtures
    and built-in examples satisfy that.
    """
    groups = []
    for text in compact:
        groups.append([c for c in text])
    return SetFamily.from_names(space, groups)
