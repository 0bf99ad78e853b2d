"""Finite powerset lattices, Moore families and the lattice of abstract domains.

The concrete domain is ℘(Σ) for a finite state space Σ.  Subsets of Σ are
characteristic bit vectors packed into Python ints (bit i = state with
index i).  An abstract domain is its Moore family of closed sets: the image
of an upper closure operator μ, meet-closed and containing Σ.  Any set of
generators fixes that family as their meets, so a domain is stored as
generators and its image is listed only when asked for.  γ is the identity
on closed sets and α(S) = μ(S) is the least closed superset, the meet of
the generators holding S, so every Galois-insertion law is decidable by
plain set arithmetic.

Domains are compared in the precision order: A1 ⊑ A2 ("A1 is more precise")
iff image(A2) ⊆ image(A1).

A state space may have any number of states.  A listed family over ℘(Σ)
is bounded by :data:`DEFAULT_MAX_FAMILY` (:func:`meet_close` checks it per
generator, and a domain's image of 2^k members is refused before it is
built).  It is read where it is checked, so setting it raises it.  The
Moore property is checked once, where an image enters from outside the
library (``AbstractDomain(space, image=...)``); the families the library
builds itself (joins, shell rounds, and the meets of a domain's
generators) are Moore by construction and are not checked again.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress
from operator import attrgetter, or_
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import CapacityError, SpaceMismatchError, ValidationError

Mask = int

#: Default bound on the number of sets a single family may materialize.
DEFAULT_MAX_FAMILY = 1 << 20


def _check_family(what: str, size: int) -> None:
    """Refuse a family of ``size`` sets over :data:`DEFAULT_MAX_FAMILY`."""
    if size > DEFAULT_MAX_FAMILY:
        raise CapacityError(
            f"{what} reached {size} sets, over DEFAULT_MAX_FAMILY = {DEFAULT_MAX_FAMILY}"
        )


def _check_space(a, b, what: str) -> None:
    """Refuse two values with a ``space`` (sets, partitions, preorders,
    domains, models) over different spaces: the one check of them all."""
    if a.space != b.space:
        raise SpaceMismatchError(f"{what} over different spaces")


def _members(mask: Mask) -> Iterator[int]:
    """The indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


#: Maps the digits b"0" and b"1" to the bytes 0 and 1, so that a mask's
#: binary digits read lowest first are the selectors of :func:`_select`.
_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _select(items: Sequence, mask: Mask) -> Iterator:
    """The items at the set bits of ``mask``, lowest first: item i for
    each member i of ``mask``, as :func:`_members` lists them, picked in C.

    ``mask`` must be ≥ 0 and have no set bit at or above ``len(items)``:
    ``compress`` stops at the end of ``items`` and drops such bits without
    a word, and a negative mask's ``-`` sign reads as a set bit.  It pays
    on wide, dense masks (the relation search's batches of up to 2^12
    completions); on a few bits of a small model :func:`_members` is
    faster.
    """
    return compress(items, format(mask, "b")[::-1].encode().translate(_DIGIT_BITS))


def _join_rows(rows: Sequence[Mask], y: Mask) -> Mask:
    """The union of ``rows[i]`` over the members i of ``y``."""
    acc = 0
    while y:
        low = y & -y
        acc |= rows[low.bit_length() - 1]
        y ^= low
    return acc


def _owners(n: int, blocks: Sequence[Mask]) -> list[int]:
    """The index in ``blocks`` of the block holding each of the n states,
    for disjoint blocks that cover them."""
    owner = [0] * n
    for k, b in enumerate(blocks):
        while b:
            low = b & -b
            owner[low.bit_length() - 1] = k
            b ^= low
    return owner


def _classes(n: int, masks: Iterable[Mask]) -> list[Mask]:
    """The classes of the n states that no mask of ``masks`` separates.  A
    mask and its complement separate the same states, so each is read by its
    smaller side: a state's key lists the masks whose side holds it, and
    equal keys mean the same masks hold both.  Cost: n plus the sides."""
    full = (1 << n) - 1
    keys: list[list[int]] = [[] for _ in range(n)]
    for i, m in enumerate(masks):
        for s in _members(m if 2 * m.bit_count() <= n else full & ~m):
            keys[s].append(i)
    classes: dict[tuple[int, ...], Mask] = {}
    for s, key in enumerate(map(tuple, keys)):
        classes[key] = classes.get(key, 0) | 1 << s
    return list(classes.values())


def _transpose(rows: Sequence[Mask]) -> tuple[Mask, ...]:
    """The columns of a square matrix of row masks: bit s of column t is
    bit t of row s."""
    cols = [0] * len(rows)
    for s, row in enumerate(rows):
        bit = 1 << s
        for t in _members(row):
            cols[t] |= bit
    return tuple(cols)


#: Sets an attribute of a :class:`_Value` in its constructor, past its
#: refusing ``__setattr__``.
_set_field = object.__setattr__


class _Value:
    """Base of the library's immutable values, with the behaviour of a
    frozen dataclass and no code generated at import.

    A subclass names its compared fields, in order, in ``_fields`` and sets
    every attribute once, in its own ``__init__``, through
    :data:`_set_field`; its checks run there, before or after the fields are
    set.  Assigning or deleting an attribute afterwards raises
    :class:`AttributeError`.  Two values are equal when they are of the same
    class and their compared fields are equal, the hash is ``hash`` of the
    tuple of those fields, and the repr is ``Class(field=value, ...)`` over
    them.  Attributes outside ``_fields`` (a derived index, a resolved
    function) take no part in any of the three.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls._fields)
        # attrgetter of one name gives the bare value; the key is a tuple
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda value: (get(value),))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


class StateSpace(_Value):
    """A named finite universe Σ with a fixed index order.

    Indices are stable for the lifetime of the space; all sets, families,
    partitions and models are relative to one space.  An empty space is
    permitted, though a Kripke model refuses one, so it arises only where a
    caller builds Σ = ∅ itself.  Only ``names`` is compared.
    """

    _fields = ("names",)
    names: tuple[str, ...]
    _index: dict[str, int]
    #: Σ as a mask, (1 << n) - 1, set once: every set operation reads it.
    full_mask: Mask

    def __init__(self, names: tuple[str, ...]):
        index = {name: i for i, name in enumerate(names)}
        if len(index) != len(names):
            raise ValidationError(f"duplicate state names in {names!r}")
        _set_field(self, "names", names)
        _set_field(self, "_index", index)
        _set_field(self, "full_mask", (1 << len(index)) - 1)

    @staticmethod
    def of(*names: str) -> "StateSpace":
        return StateSpace(tuple(names))

    @property
    def n(self) -> int:
        return len(self.names)

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
        return tuple(self.names[i] for i in _members(mask & self.full_mask))

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


class StateSet(_Value):
    """A subset of Σ as a characteristic vector over a fixed space."""

    _fields = ("space", "mask")
    space: StateSpace
    mask: Mask

    def __init__(self, space: StateSpace, mask: Mask):
        if mask < 0 or mask > space.full_mask:
            raise ValidationError(f"mask {mask:#x} is not over {space.names}")
        _set_field(self, "space", space)
        _set_field(self, "mask", mask)

    def __and__(self, other: "StateSet") -> "StateSet":
        _check_space(self, other, "sets")
        return StateSet(self.space, self.mask & other.mask)

    def __or__(self, other: "StateSet") -> "StateSet":
        _check_space(self, other, "sets")
        return StateSet(self.space, self.mask | other.mask)

    def __invert__(self) -> "StateSet":
        return StateSet(self.space, self.space.full_mask & ~self.mask)

    def __le__(self, other: "StateSet") -> bool:
        _check_space(self, other, "sets")
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


class SetFamily(_Value):
    """A duplicate-free collection of subsets of one space, canonically ordered.

    The canonical order is lexicographic on characteristic vectors, so
    equality of families is equality of representations.
    """

    _fields = ("space", "masks")
    space: StateSpace
    masks: tuple[Mask, ...]

    def __init__(self, space: StateSpace, masks: tuple[Mask, ...]):
        ordered = tuple(sorted(set(masks), key=space.lex_key))
        _set_field(self, "space", space)
        _set_field(self, "masks", masks if ordered == masks else ordered)

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


def meet_close(closed: set[Mask], fresh: Iterable[Mask], what: str) -> set[Mask]:
    """Add the meets of ``fresh`` to the Moore family ``closed``, in place;
    returns the masks added.  Each new g adds {m ∩ g | m ∈ closed}, which
    keeps ``closed`` meet-closed, as (m ∩ g) ∩ m' = (m ∩ m') ∩ g.  The meets
    are built one by one, so the first g whose meets pass
    :data:`DEFAULT_MAX_FAMILY` raises, naming ``what``, at the meet that
    makes bound + 1 sets, and ``closed`` itself never passes the bound."""
    added: set[Mask] = set()
    for g in fresh:
        if g not in closed:
            room = DEFAULT_MAX_FAMILY - len(closed)
            meets = set()
            for m in closed:
                meet = m & g
                if meet not in closed:
                    meets.add(meet)
                    if len(meets) > room:
                        _check_family(what, len(closed) + len(meets))
            closed |= meets
            added |= meets
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
    has one closure rule, μ(X) = ∩{g | X ⊆ g}, so closure, membership and
    :func:`domain_leq` scan the generators and answer at any size.  An
    ``image`` given to the constructor is its own generator list, and is
    checked to be a Moore family (it holds Σ and is closed under
    intersection): it is data from outside the library.  The library's own
    domains come from :meth:`_of_generators`, which skips that check.
    Their image is listed on demand by :func:`meet_close` from {Σ}, which
    refuses past :data:`DEFAULT_MAX_FAMILY`; when the complements of the
    generators other than Σ are pairwise disjoint (adp, ℘(Σ), add of an
    equivalence) the image has exactly 2^k members, and a 2^k over the bound
    is refused before anything is built.  Equality, hashing and iteration
    list the image.
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
    def _of_generators(
        cls, space: StateSpace, gens: Sequence[Mask], image: Optional[frozenset[Mask]] = None
    ) -> "AbstractDomain":
        """The domain M(gens); ``gens`` holds distinct masks, and ``image``,
        when the caller already holds it, is M(gens)."""
        domain = cls.__new__(cls)
        domain.space, domain._gens, domain._masks, domain._hash = space, gens, image, None
        return domain

    @property
    def masks(self) -> frozenset[Mask]:
        if self._masks is None:
            full = self.space.full_mask
            sides = [full & ~g for g in self._gens if g != full]
            k = len(sides)
            # pairwise disjoint sides meet in 2^k distinct ways
            disjoint = sum(map(int.bit_count, sides)) == reduce(or_, sides, 0).bit_count()
            if disjoint and 1 << k > DEFAULT_MAX_FAMILY:
                raise CapacityError(
                    f"image of {k} generators has up to 2^{k} members, "
                    f"over DEFAULT_MAX_FAMILY = {DEFAULT_MAX_FAMILY}"
                )
            image = {full}
            meet_close(image, self._gens, "image")
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

    Always contains Σ (the empty meet) and is idempotent.  It is the lazy
    domain of the input's masks: closure and :func:`domain_leq` scan them,
    and the image is listed only when asked for.
    """
    return AbstractDomain._of_generators(family.space, family.masks)


def domain_leq(a1: AbstractDomain, a2: AbstractDomain) -> bool:
    """A1 ⊑ A2 (A1 at least as precise): image(A2) ⊆ image(A1).

    A Moore family contains another exactly when it contains the other's
    generators, so only those of A2 are tested and a lazy A2 is never
    listed."""
    _check_space(a1, a2, "domains")
    return all(a1.contains(g) for g in a2._gens)


def domain_meet(a1: AbstractDomain, a2: AbstractDomain) -> AbstractDomain:
    """Greatest lower bound in precision (reduced product): M(img₁ ∪ img₂),
    the lazy domain of both domains' generators, as each image is the meets
    of its own."""
    _check_space(a1, a2, "domains")
    return AbstractDomain._of_generators(a1.space, tuple(dict.fromkeys((*a1._gens, *a2._gens))))


def domain_join(a1: AbstractDomain, a2: AbstractDomain) -> AbstractDomain:
    """Least upper bound in precision: img₁ ∩ img₂ (meet-closed automatically)."""
    _check_space(a1, a2, "domains")
    image = a1.masks & a2.masks
    return AbstractDomain._of_generators(a1.space, image, image)


def powerset_domain(space: StateSpace) -> AbstractDomain:
    """The identical abstraction ℘(Σ): every subset is closed.

    It is the lazy domain of its co-atoms Σ∖{s}, so closure is the identity
    at any size and only listing its 2^n members is bounded."""
    full = space.full_mask
    return AbstractDomain._of_generators(space, tuple(full & ~(1 << s) for s in range(space.n)))


def top_domain(space: StateSpace) -> AbstractDomain:
    """The most abstract domain {Σ} (λx.⊤): no generators, Σ being the empty
    meet."""
    return AbstractDomain._of_generators(space, ())


def family_of_names(space: StateSpace, compact: Sequence[str]) -> SetFamily:
    """Build a family from compact set strings: "" is ∅, "124" is {1,2,4}.

    Only usable when every state name is a single character; test fixtures
    and built-in examples satisfy that.
    """
    groups = []
    for text in compact:
        groups.append([c for c in text])
    return SetFamily.from_names(space, groups)
