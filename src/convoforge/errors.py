"""Exception hierarchy shared across the toolkit.

Corpus construction and navigation raise structure errors; I/O raises
serialization errors; transformers raise contract errors. Everything
derives from ConvoForgeError so callers can catch broadly.

Each class declares its command-line exit code in ``exit_code``: 1 for a
domain failure (the default), 2 for I/O or format (a missing or malformed
file or column, a count or version mismatch).
"""


class ConvoForgeError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


# -- corpus structure ------------------------------------------------------

class DuplicateIdError(ConvoForgeError):
    pass


class DanglingReplyError(ConvoForgeError):
    pass


class CrossConversationReplyError(ConvoForgeError):
    pass


class CycleDetectedError(ConvoForgeError):
    pass


class MultipleRootsError(ConvoForgeError):
    pass


class NoRootError(ConvoForgeError):
    pass


class UnknownConversationError(ConvoForgeError):
    pass


class UnknownSpeakerError(ConvoForgeError):
    pass


# -- serialization / import ------------------------------------------------

class IoFailureError(ConvoForgeError):
    exit_code = 2


class IntegrityViolationError(ConvoForgeError):
    """Refusal to persist or accept a corpus that fails integrity checks."""

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = violations or []


class UnserializableValueError(ConvoForgeError):
    """A metadata value standard JSON cannot hold, such as NaN, Infinity or a set."""


class MissingFileError(ConvoForgeError):
    exit_code = 2


class MalformedRecordError(ConvoForgeError):
    exit_code = 2

    def __init__(self, message, line_number=None):
        super().__init__(message)
        self.line_number = line_number


class CountMismatchError(ConvoForgeError):
    exit_code = 2


class UnsupportedVersionError(ConvoForgeError):
    exit_code = 2


class IrreconcilableCollisionError(ConvoForgeError):
    pass


class MissingColumnError(ConvoForgeError):
    exit_code = 2


# -- transformer contract --------------------------------------------------

class NotFittedError(ConvoForgeError):
    pass


class MissingAnnotationError(ConvoForgeError):
    pass


class EmptySelectionError(ConvoForgeError):
    pass


class PipelineStageError(ConvoForgeError):
    """Wraps the first error raised by a pipeline stage, naming its index."""

    def __init__(self, stage_index, stage_name, cause):
        super().__init__(f"stage {stage_index} ({stage_name}): {cause}")
        self.stage_index = stage_index
        self.stage_name = stage_name


# -- analysis --------------------------------------------------------------

class EmptyClassError(ConvoForgeError):
    pass


class EmptyVocabularyError(ConvoForgeError):
    pass


class DegenerateLabelsError(ConvoForgeError):
    pass


class DimensionMismatchError(ConvoForgeError):
    pass


class MissingLabelError(ConvoForgeError):
    pass
