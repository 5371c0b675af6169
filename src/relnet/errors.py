"""Exception types shared across the package, and the range rule that raises one."""


class RelnetError(Exception):
    """Base class for all relnet errors."""


class InvalidNodeId(RelnetError):
    """A node id falls outside the valid range 0..n-1."""


class FormatError(RelnetError):
    """A file does not match its declared on-disk format."""


class TooSmall(RelnetError):
    """Graph size below the minimum for the requested construction."""


class TooLarge(RelnetError):
    """Requested sample or size exceeds what the input provides."""


class EdgeSaturation(RelnetError):
    """The static-model edge sampler exhausted its attempt budget.

    Carries the number of consecutive failed draws at the point of abort.
    """

    def __init__(self, message: str, attempts: int):
        super().__init__(message)
        self.attempts = attempts


class InvalidValue(RelnetError, ValueError):
    """A spec field holds a value its rules forbid. `field` names the field
    and `rule` the rest of the message, so a caller can name it its own way
    (`read_spec` names the `relnet train` flag or the sweep-spec key)."""

    def __init__(self, field: str, rule: str):
        super().__init__(f"{field} {rule}")
        self.field = field
        self.rule = rule


class TooManyCommunities(RelnetError):
    """More communities requested than the node count supports."""


class TooManyNodes(RelnetError):
    """More graph nodes than hidden units; the partition is infeasible."""


class ShapeError(RelnetError):
    """Array or graph shapes do not line up."""


class NumericError(RelnetError):
    """A non-finite value appeared where finite numbers are required."""


class FitError(RelnetError):
    """A least-squares fit is rank-deficient or under-determined, or has a
    result that is not finite."""


class WorkerLost(RelnetError):
    """A sweep pool worker died before delivering its cell's record."""


def require_at_least(low: int, **values) -> None:
    """Raise InvalidValue naming the first of `values` (field=value) below `low`."""
    for name, value in values.items():
        if value < low:
            raise InvalidValue(name, f"must be >= {low}, got {value}")
