"""Exception hierarchy shared by all modules."""


class SL2TorusError(Exception):
    """Base class for all library errors."""


class DeterminantError(SL2TorusError):
    """Input matrix does not have unit determinant."""

    def __init__(self, det):
        self.det = det
        super().__init__(f"matrix determinant is {det!r}, expected 1")


class ClassificationAmbiguous(SL2TorusError):
    """|tr| is within tolerance of 2 but the matrix is neither close enough
    to a scalar matrix nor far enough from one to decide B vs C."""

    def __init__(self, detail=""):
        super().__init__(f"classification ambiguous near |tr| = 2: {detail}")


class NotCommuting(SL2TorusError):
    """The two matrices do not commute within tolerance."""

    def __init__(self, norm):
        self.norm = norm
        super().__init__(f"commutator norm {norm!r} exceeds tolerance")


class ForbiddenCombo(SL2TorusError):
    """A type combination that cannot occur for commuting pairs showed up,
    which signals a tolerance failure on near-degenerate input."""

    def __init__(self, combo):
        self.combo = combo
        super().__init__(f"forbidden type combination {combo}")


class DegenerateCC(SL2TorusError):
    """The CC construction produced a vanishing coupling scalar; the pair is
    effectively a B-combination at the working tolerance."""


class ParamOutOfRange(SL2TorusError):
    """Canonical parameters violate their sector's allowed ranges."""
