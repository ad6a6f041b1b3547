"""Exception hierarchy shared by all cellnet modules."""


class CellnetError(Exception):
    """Base class for all domain errors raised by this package."""


class NetError(CellnetError):
    """Structurally ill-formed net, unknown node, or illegal firing."""


class OccurrenceError(NetError):
    """Net fails the occurrence-net conditions (cycles, backward or
    self conflicts), or a marking is not admissible."""


class CompositionError(CellnetError):
    """Parallel/sequential composition preconditions violated."""


class TermError(CellnetError):
    """Ill-typed term or failed term normalization."""


class TermSyntaxError(TermError):
    """Textual term form could not be parsed."""


class CompileError(CellnetError):
    """Net-to-term translation failed (e.g. not a single s-cell)."""


class WiringError(CellnetError):
    """Wiring/place-set mismatch in the matrix backend."""


class InterfaceWidthError(CellnetError):
    """An interface exceeds the configured width cap; the dense matrix
    would blow up exponentially."""


class DeltaError(CellnetError):
    """Missing or inconsistent probability assignment for a constant."""


class InferenceError(CellnetError):
    """State/predicate mismatch or zero-validity conditioning."""


class FileFormatError(CellnetError):
    """A net/delta/state file violates its documented grammar."""
