"""Shared exception types; the CLI maps them to exit codes."""


class SynthError(Exception):
    """Base class for all tool errors."""


class InputError(SynthError):
    """Bad user input: model/property syntax, unknown identifiers, bad flags.

    ``kind`` is a stable machine-readable tag (e.g. ``non-simple-guard``),
    ``pos`` an optional (line, column) pair.
    """

    def __init__(self, message, kind="input", pos=None):
        super().__init__(message)
        self.kind = kind
        self.pos = pos


class CapacityError(SynthError):
    """A configured resource limit was exceeded (box points, stored states,
    deadlock-negation expansion, the wall-clock ``--time-limit``)."""


class SoundnessError(SynthError):
    """An internal soundness check failed: a stored zone is empty at a
    valuation of its extension, a successor has valuations its predecessor
    lacks, a stored bound lies outside the widening range, or a matrix
    that must be canonical is not.  It means a defect in the tool, not in
    the input."""


class EvaluationError(SynthError):
    """An expression or zone was evaluated outside its domain."""
