"""Exception types shared across the package."""


class AfcecError(Exception):
    """Base class for all afcec errors."""


class NotPositiveDefinite(AfcecError):
    """A matrix required to be SPD failed its Cholesky factorization."""


class RankDeficient(AfcecError):
    """A least-squares system is singular even after regularization."""


class DegenerateCluster(AfcecError):
    """A cluster's covariance cannot be made positive definite."""


class AllClustersDegenerate(AfcecError):
    """Every cluster failed estimation; no model can be produced."""


class InvalidConfig(AfcecError):
    """An engine or CLI configuration value is out of range."""


class BeyondCurvatureCenter(AfcecError):
    """Corrected density requested where the normal map folds (factor <= 0)."""


class InvalidSpec(AfcecError):
    """A generator configuration is malformed."""


class ParseError(AfcecError):
    """CSV input could not be parsed. Carries 1-based row/col when known."""

    def __init__(self, message, row=None, col=None):
        super().__init__(message)
        self.row = row
        self.col = col


class IoError(AfcecError):
    """An I/O or serialization failure."""


class SchemaVersionMismatch(IoError):
    """A model file declares a schema version this library cannot read."""


class ZeroResidualWarning(UserWarning):
    """Residual variance hit its floor; points lie (nearly) exactly on a curve."""
