"""Exception hierarchy shared across the toolkit.

A corpus that breaks a structural rule is one IntegrityViolationError,
whether it is built, loaded, merged or saved; I/O raises serialization
errors; transformers raise contract errors. Everything derives from
ConvoForgeError so callers can catch broadly.

Each class declares its command-line exit code in ``exit_code``: 1 for a
domain failure (the default), 2 for I/O or format (a missing or malformed
file or column, a count or version mismatch).
"""


class ConvoForgeError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


# -- corpus structure ------------------------------------------------------

class IntegrityViolationError(ConvoForgeError):
    """A corpus that fails check_integrity; ``violations`` is its whole report."""

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = violations or []


class DuplicateIdError(ConvoForgeError):
    """A speaker or utterance id given twice to build_corpus, which a dict cannot hold."""


class NoRootError(ConvoForgeError):
    pass


class UnknownConversationError(ConvoForgeError):
    pass


class UnknownSpeakerError(ConvoForgeError):
    pass


# -- serialization / import ------------------------------------------------

class IoFailureError(ConvoForgeError):
    exit_code = 2


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
