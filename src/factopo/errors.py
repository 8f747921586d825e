"""Exception types shared across the package."""


class FactopoError(Exception):
    pass


class NotACategory(FactopoError):
    """Raised with the first violated category law."""


class EnumerationBudgetExceeded(FactopoError):
    """An exhaustive scan ran past the configured step budget."""


class FactorizerContractViolation(FactopoError):
    """A factorizer returned legs that do not compose to the input or lie
    outside their classes."""


class NotARing(FactopoError):
    """Raised with the first violated ring axiom."""


class NotALattice(FactopoError):
    """A meet or join table breaks a lattice law, named with its pair."""


class InvalidSpec(FactopoError):
    """Malformed build specification for a ring, complex or map."""


class NotAPrime(FactopoError):
    pass


class InvalidFamily(FactopoError):
    """Covering-family data does not match the requested topology."""


class IdentityViolation(FactopoError):
    """A simplicial identity fails on the stored tables."""


class TruncationTooLow(FactopoError):
    """The requested construction needs simplices above the stored dimension."""


class NotSimplicial(FactopoError):
    """A map fails to commute with faces or degeneracies."""


class NotEquivariant(FactopoError):
    pass


class NotLinear(FactopoError):
    pass


class ParseError(FactopoError):
    """Input file rejected before any computation, with a field path."""


class OutputError(FactopoError):
    """The report cannot be written, or the --out file named with its
    path cannot."""


class UsageError(FactopoError):
    pass

