"""Exception hierarchy shared by all analysis modules."""

from __future__ import annotations


class ReqLatticeError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ReqLatticeError):
    """Malformed input file; carries the offending line when known."""

    def __init__(self, message: str, *, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        prefix = ("" if path is None else str(path)) + ("" if line is None else f":{line}")
        super().__init__(f"{prefix}: {message}" if prefix else message)


class ValidationError(ReqLatticeError):
    """Corpus or change-set content violates an invariant.

    ``code`` is machine-readable (e.g. ``DANGLING_REF``); ``item_id`` names the
    offending element when one exists.
    """

    def __init__(self, code: str, message: str, *, item_id: str | None = None):
        self.code = code
        self.item_id = item_id
        super().__init__(f"{code}: {message}")


class CycleError(ReqLatticeError):
    """The refinement relation is cyclic; ``cycle`` is one witness loop."""

    def __init__(self, cycle: list[str]):
        self.cycle = list(cycle)
        super().__init__("refinement cycle: " + " -> ".join(self.cycle + self.cycle[:1]))


class UnknownIdError(ReqLatticeError):
    """An id does not resolve within the corpus."""

    def __init__(self, item_id: str):
        self.item_id = item_id
        super().__init__(f"unknown id: {item_id}")


class MissingAdoptedByError(ReqLatticeError):
    """Modify of a general-set requirement without an adoptedBy declaration."""

    def __init__(self, target: str):
        self.target = target
        super().__init__(
            f"modify of general-set item {target!r} requires adoptedBy to name the "
            "jurisdictions adopting the new version"
        )


class PartitionMismatchError(ReqLatticeError):
    """Partitions handed to a check were computed from a different corpus."""


class DegenerateMatrixError(ReqLatticeError):
    """Decision matrix has no discriminating criterion left."""


class UnknownRequirementError(ReqLatticeError):
    """An alternative scores a requirement outside the conflict set."""

    def __init__(self, item_id: str):
        self.item_id = item_id
        super().__init__(f"requirement not in the conflict set: {item_id}")


class IOFailure(ReqLatticeError):
    """File could not be read or written; wraps the OS error with the path."""

    def __init__(self, path: str, cause: OSError):
        self.path = str(path)
        self.cause = cause
        super().__init__(f"{path}: {cause}")
