"""Exception types raised by the library.

Everything user-facing derives from CostModelError so callers (and the
CLI) can catch input problems with one handler.
"""


class CostModelError(Exception):
    """Base class for all model/profile/analysis input errors."""


class ParseError(CostModelError):
    """Malformed model or profile text (syntax or schema violation)."""


class ValidationError(CostModelError):
    """A graph violates a structural invariant."""


class ShapeError(ValidationError):
    """Shape inference failed for a node."""


class ProfileError(CostModelError):
    """A hardware profile is malformed or incomplete."""


class ComparisonError(CostModelError):
    """Reports cannot be compared (e.g. different targets)."""


class EnumerationLimitError(CostModelError):
    """A graph has more topological orders or min-peak search states than
    the caller allowed."""
