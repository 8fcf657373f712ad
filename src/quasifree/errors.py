"""Exception hierarchy shared by all quasifree modules: every error raised is
a QuasifreeError, and also a ValueError (bad input) or an ArithmeticError
(failed computation).  cli._OUTCOMES maps each class to its exit code."""


class QuasifreeError(Exception):
    """Base class for every error raised by this package."""


class NotSquare(QuasifreeError, ValueError):
    """A matrix argument has the wrong shape: not square, or not matching its partners."""


class NotHermitian(QuasifreeError, ValueError):
    """A matrix failed its Hermiticity (for an alpha block, symmetry) tolerance check."""


class NumericalFailure(QuasifreeError, ArithmeticError):
    """A numerical routine diverged, overflowed or missed its accuracy contract."""


class OracleFailure(NumericalFailure):
    """The Fock oracle's integrated density matrix left the physical set
    (trace drift or a negative eigenvalue); a smaller step may cure it."""


class Resonant(QuasifreeError, ArithmeticError):
    """The Sylvester operator is singular: an eigenvalue of p equals minus an
    eigenvalue of q, so no unique solution exists."""


class NotCP(QuasifreeError, ValueError):
    """The bath is not completely positive (Kossakowski matrix not PSD)."""


class NonPhysicalInput(QuasifreeError, ValueError):
    """A state is not physical: a covariance violates V + Sigma/2 >= 0, a
    moment block or occupation is negative, a density matrix lacks unit
    trace, or a squeezing parameter has modulus >= 1."""


class Unstable(QuasifreeError, ArithmeticError):
    """The drift matrix has an eigenvalue with non-negative real part, so no
    unique asymptotic state exists."""


class WrongModeCount(QuasifreeError, ValueError):
    """An operation received a mode count other than the one it needs."""


class EmptyNullSpace(QuasifreeError, ValueError):
    """The partial-transposed initial covariance has no null vector; the
    generation witness is inapplicable."""


class NotNullVector(QuasifreeError, ValueError):
    """The supplied witness vector is not in the required null space."""


class DomainError(QuasifreeError, ValueError):
    """An argument lies outside the domain of the routine: a non-finite
    entry, a negative time or step, a Fock cutoff below 2, scalars outside a
    closed form's domain, or a grid or propagation too large to represent."""


class TruncationLeak(QuasifreeError, ArithmeticError):
    """Population reached the top of the truncated Fock space; the oracle
    result cannot be trusted."""


class ConfigError(QuasifreeError, ValueError):
    """A run configuration, its file or its command line, is malformed or
    inconsistent."""
