"""Exception types shared across the package.

Every error carries a stable ``code`` string so the command line tool can
report machine readable failures without exposing tracebacks.
"""


class KitError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"


class CertificationFailed(RuntimeError):
    """A construction broke a fact it is supposed to guarantee.

    Not bad input, so not a KitError: the command line records it as a
    failed claim.  Other runtime errors (recursion overflow, missing
    features) are crashes and are never reported as claims.
    """


def certify(condition: bool, message: str) -> None:
    """Guard for theorem-backed postconditions; raises CertificationFailed."""
    if not condition:
        raise CertificationFailed(f"certification failed: {message}")


# ---- parsing and enumeration ----------------------------------------------

class CycleSyntaxError(KitError):
    code = "syntax"


class RepeatedPoint(KitError):
    code = "repeated-point"


class PointOutOfRange(KitError):
    code = "point-out-of-range"


class CapExceeded(KitError):
    code = "cap-exceeded"


class DegreeMismatch(KitError):
    code = "degree-mismatch"


class NotTransitive(KitError):
    code = "not-transitive"


# ---- subgroups and blocks ---------------------------------------------------

class NotASubgroup(KitError):
    code = "not-a-subgroup"


class DomainTooLarge(KitError):
    code = "domain-too-large"


# ---- coset graphs and orbitals ---------------------------------------------

class NotInvolution(KitError):
    code = "not-involution"


class InsideSubgroup(KitError):
    code = "inside-subgroup"


class NotSelfPaired(KitError):
    code = "not-self-paired"


class NotSymmetric(KitError):
    code = "not-symmetric"


# ---- quotients ---------------------------------------------------------------

class NotInvariant(KitError):
    code = "not-invariant"

    def __init__(self, message: str, vertices: tuple = ()):
        super().__init__(message)
        self.vertices = vertices  # of a block that a generator splits, if given


class NotQuotientArc(KitError):
    code = "not-quotient-arc"


class TrivialQuotient(KitError):
    code = "trivial-quotient"


class NotNested(KitError):
    code = "not-nested"


class DegenerateQuotient(KitError):
    code = "degenerate-quotient"


# ---- designs -----------------------------------------------------------------

class NotUniformBlocks(KitError):
    code = "not-uniform-blocks"


class NotUniformPoints(KitError):
    code = "not-uniform-points"


class DegenerateDesign(KitError):
    code = "degenerate-design"


class NotPolarity(KitError):
    code = "not-polarity"


class NotFlagTransitive(KitError):
    code = "not-flag-transitive"


class AmbiguousBlockAction(KitError):
    code = "ambiguous-block-action"


class NoBlockAction(KitError):
    code = "no-block-action"


# ---- covers, extensions, reconstructions ------------------------------------

class TwistNotHomomorphism(KitError):
    code = "twist-not-homomorphism"


class InverseSymmetryViolated(KitError):
    code = "inverse-symmetry-violated"


class NotCompatible(KitError):
    code = "not-compatible"


class InvalidChain(KitError):
    code = "invalid-chain"


class ValencyTooSmall(KitError):
    code = "valency-too-small"


class NotSubgraph(KitError):
    code = "not-subgraph"


class NoStrictChain(KitError):
    code = "no-strict-chain"


class DegenerateInvolution(KitError):
    code = "degenerate-involution"


class NotSemidirect(KitError):
    code = "not-semidirect"
