"""Exception types shared across the library."""


class CayleyCodesError(Exception):
    """Base class for all library errors."""


class GroupTableError(CayleyCodesError):
    """A candidate multiplication table failed validation.

    ``reason`` is one of "not-square", "bad-index", "no-identity",
    "not-latin-square", "missing-inverse", "non-associative"; ``witness``
    is the first failing index tuple found by a lexicographic scan.
    """

    def __init__(self, reason, witness=None):
        self.reason = reason
        self.witness = witness
        msg = reason if witness is None else f"{reason}: witness {witness}"
        super().__init__(msg)


class BoundExceededError(CayleyCodesError):
    """A group over its order bound, or a search past its node budget."""


def node_counter(search: str, budget: int):
    """A function to call once per node of `search`; the call that goes
    past `budget` nodes raises BoundExceededError."""
    nodes = iter(range(budget))

    def count():
        if next(nodes, None) is None:
            raise BoundExceededError(
                f"{search} node budget exceeded: more than {budget} search nodes"
            )

    return count


class GroupSpecError(CayleyCodesError):
    """A group spec string or element expression failed to parse."""
