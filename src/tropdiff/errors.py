"""Exception types shared across the package."""


class TropdiffError(Exception):
    """Base class for all errors raised by this package."""


class ArityError(TropdiffError, ValueError):
    """Mixed lattice arities, bad coordinates, or variable indices out of range."""


class FieldError(TropdiffError, ValueError):
    """Incompatible coefficient fields, or sqrt(d) used without a quadratic field."""


class PrecisionError(TropdiffError, ValueError):
    """A query needs coefficients beyond the known precision of a truncated series."""


class ParseError(TropdiffError, ValueError):
    """Syntax or validation error in DSL input, annotated with a position."""

    def __init__(self, message: str, text: str = "", pos: int | None = None):
        self.message = message
        self.text = text
        self.pos = pos
        if pos is not None:
            super().__init__(f"{message} (at position {pos})")
        else:
            super().__init__(message)


# The candidate count above which `enumerate_solutions` refuses a scan; it
# lives here, beside its error, so the CLI's option table loads no algebra.
DEFAULT_CANDIDATE_CAP = 100_000


class CandidateCapError(TropdiffError, RuntimeError):
    """Enumeration refused: `estimate` candidates (None: 2^bits or more) exceed the cap."""

    def __init__(self, estimate: int | None, cap: int, bits: int | None = None):
        self.estimate = estimate
        self.cap = cap
        # a long estimate is shown by its magnitude: str() of an int over
        # 4300 digits raises, and its digits would say nothing more
        if estimate is not None:
            bits = estimate.bit_length() - 1
        shown = f"2^{bits} or more" if estimate is None or estimate >= 10**30 else estimate
        super().__init__(
            f"enumeration would visit an estimated {shown} candidate tuples, "
            f"exceeding the cap of {cap}"
        )


class SampleCapError(TropdiffError, RuntimeError):
    """A derivative sample refused: it would hold more polynomials than the cap."""
