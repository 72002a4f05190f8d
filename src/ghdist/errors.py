"""Exception types raised across the toolkit.

Each class names the contract it enforces; messages carry the witnessing
indices or values so callers can report failures without re-deriving them.
"""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


# metric validation

class AsymmetricMatrix(ToolkitError):
    pass


class NonzeroDiagonal(ToolkitError):
    pass


class NegativeDistance(ToolkitError):
    pass


class TriangleViolation(ToolkitError):
    def __init__(self, i: int, j: int, k: int, lhs: float, rhs: float):
        self.triple = (i, j, k)
        super().__init__(
            f"triangle inequality fails at ({i}, {j}, {k}): "
            f"d[{i}][{k}] = {lhs} > d[{i}][{j}] + d[{j}][{k}] = {rhs}"
        )


class IndexOutOfRange(ToolkitError):
    pass


class EmptySubset(ToolkitError):
    pass


class SpacesDiffer(ToolkitError):
    pass


class NegativeScale(ToolkitError):
    pass


# model constructors

class NegativeLength(ToolkitError):
    pass


class TooFewPoints(ToolkitError):
    pass


class OddOrder(ToolkitError):
    pass


class LambdaTooSmall(ToolkitError):
    pass


class DisconnectedGraph(ToolkitError):
    pass


# correspondences

class InvalidCorrespondence(ToolkitError):
    pass


class LambdaOutOfRange(ToolkitError):
    pass


class CoverageGap(ToolkitError):
    pass


# line witnesses

class NotLipschitz(ToolkitError):
    def __init__(self, i: int, j: int, excess: float):
        self.pair = (i, j)
        self.excess = excess
        super().__init__(
            f"values violate the 1-Lipschitz constraint at ({i}, {j}) by {excess}"
        )


class TooLarge(ToolkitError):
    pass


class InvalidWitness(ToolkitError):
    pass


class NotAntipodalInvolution(ToolkitError):
    pass


# bound producers

class NotRound(ToolkitError):
    pass


class CExceedsDiameter(ToolkitError):
    pass


class StaleCertificate(ToolkitError):
    pass


class InconsistentBounds(ToolkitError):
    pass


# segment vs circle

class NegativeLambda(ToolkitError):
    pass


class CertificateFailed(ToolkitError):
    pass


# command line

class InputError(ToolkitError):
    pass


class VerificationFailed(ToolkitError):
    pass
