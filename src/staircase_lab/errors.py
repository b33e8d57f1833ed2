"""Exception types shared across the package."""


class StaircaseLabError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(StaircaseLabError):
    """Malformed model or scan configuration (unknown key, bad value, missing section)."""


class TwistViolated(StaircaseLabError):
    """d2h/dx dx' is not strictly negative."""


class DegenerateTwist(TwistViolated):
    """Twist bound could not be certified (vanishing mixed partial)."""


class NoConvergence(StaircaseLabError):
    """No multistart reached the residual tolerance."""


class SaddleOnly(StaircaseLabError):
    """Every converged critical point has indefinite second variation."""


class DegenerateFamily(StaircaseLabError):
    """Phonon gap at tolerance zero: no isolated orbits, heteroclinics undefined."""


class OverlapDetected(StaircaseLabError):
    """Locking intervals overlap beyond float slop: convexity violation upstream."""

    def __init__(self, msg, pairs=None):
        super().__init__(msg)
        self.pairs = pairs or []


class NonconvexTerm(StaircaseLabError):
    """An estimator term is negative beyond tolerance."""


class InsufficientSamples(StaircaseLabError):
    """Probe window does not contain enough computed rationals."""


class EmptyTable(StaircaseLabError):
    """Operation requires a non-empty beta table."""


class NegativeU(StaircaseLabError):
    """Flatness gap u(delta) negative beyond tolerance: bad c_plus or non-minimal beta."""


class CorruptRecord(StaircaseLabError):
    """Cache record failed checksum validation."""


class VersionConflict(StaircaseLabError):
    """Cache already holds a record for this key with materially different payload."""
