"""Exception hierarchy for the pgroups package."""


class PGroupError(Exception):
    """Base class for all pgroups errors."""


class NotOddPrime(PGroupError):
    """The prime argument is not an odd prime (p = 2 is rejected everywhere)."""


class InvalidWord(PGroupError):
    """A relation word references an out-of-range or non-later generator."""


class InconsistentPresentation(PGroupError):
    """A pc presentation fails the overlap test or the p-power-order check."""


class SizeLimitExceeded(PGroupError):
    """A construction would exceed the hard element cap."""


class NotAutomorphism(PGroupError):
    """The supplied generator images do not extend to an automorphism."""


class OrderMismatch(PGroupError):
    """A built object does not have the order (or class) it must have."""


class NotAbelian(PGroupError):
    """An abelian group was required."""


class NotNormal(PGroupError):
    """A normal subgroup was required."""


class BudgetExceeded(PGroupError):
    """An enumeration exceeded its configured budget."""


class UnknownName(PGroupError):
    """Unknown catalog entry name."""


class ParamOutOfRange(PGroupError):
    """Catalog parameter outside its documented range."""


class FormatError(PGroupError):
    """Malformed pgroup-v1 document."""


class NotAnEtaSeries(PGroupError):
    """The supplied series is not an eta-series of the required shape."""


class InvariantViolation(PGroupError):
    """A property that must hold for every finite p-group failed.

    Any raise of a subclass is either a bug in this library or a genuine
    counterexample; neither is recoverable, so these are never caught
    internally.
    """


class NoValidS(InvariantViolation):
    """No shift parameter satisfies the uniserial power-shift identity."""


class ValidationFailed(InvariantViolation):
    """A constructed filtration failed its own certification conditions."""


class TheoremViolated(InvariantViolation):
    """An omega-subgroup exponent bound failed."""
