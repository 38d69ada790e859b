"""Exception and warning types raised across the library.

Every domain error derives from FileExpertsError so callers (and the CLI)
can catch one base class and map the concrete type to an error code; every
warning derives from FileExpertsWarning, which the CLI reports as one JSON
line per distinct message.
"""


class FileExpertsError(Exception):
    """Base class for all errors raised by this library."""


class FileExpertsWarning(UserWarning):
    """Base class for all warnings issued by this library."""


# -- repository mining ------------------------------------------------------

class RepositoryNotFound(FileExpertsError):
    """The given path is not a readable git repository."""


class BranchNotFound(FileExpertsError):
    """The requested branch does not exist in the repository."""


class CorruptHistory(FileExpertsError):
    """An object referenced by the history could not be read."""


class GitWarning(FileExpertsWarning):
    """A git call exited 0 but wrote to stderr, which may mean a setting
    changed its answer (``diff.renameLimit`` turning renames into additions,
    say); the message is git's text."""


# -- diffing and features ----------------------------------------------------

class InvalidThreshold(FileExpertsError):
    """A threshold parameter is outside [0, 1]."""


class UnknownLanguage(FileExpertsError):
    """No conditional-keyword table is configured for the language."""


class FileNotInHistory(FileExpertsError):
    """The file does not exist at the reference version of the history."""


class PairNotInHistory(FileExpertsError):
    """The developer never touched the file in the mined history."""


class CorruptFeatureTable(FileExpertsError):
    """A feature CSV is not in the format this library writes."""


class InvalidLanguageConfig(FileExpertsError):
    """A language table cannot be read, is not JSON or lacks a required key."""


# -- expertise scoring -------------------------------------------------------

class NegativeInput(FileExpertsError):
    """A count passed to the authorship formula is negative."""


class UnscoredOraclePair(FileExpertsError):
    """A labeled (developer, file) pair has no expertise score."""


class EmptyOracle(FileExpertsError):
    """The declared-expert set is empty, so recall is undefined."""


class TooFewSamples(FileExpertsError):
    """Not enough samples for the requested folds or statistic."""


class InvalidCount(FileExpertsError, ValueError):
    """A fold count or a per-developer file cap is below its minimum."""


# -- worker processes --------------------------------------------------------

class WorkerDied(FileExpertsError):
    """A forked worker exited without returning a unit it took; the message
    names the unit and the workers' exit codes (a negative code is the
    signal that killed the worker)."""


# -- machine learning --------------------------------------------------------

class SingleClassData(FileExpertsError):
    """Training data contains only one class."""


class ZeroVarianceWarning(FileExpertsWarning):
    """A feature column is constant and was passed through unscaled."""


# -- statistics and study tooling --------------------------------------------

class LengthMismatch(FileExpertsError):
    """Paired vectors have different lengths."""


class ConstantInput(FileExpertsError):
    """A correlation input is constant, so the coefficient is undefined."""


class TooFewRepos(FileExpertsError):
    """Quartile filtering needs at least four repositories."""


class InvalidKnowledgeValue(FileExpertsError):
    """A survey knowledge value is outside the 1..5 scale."""


class InvalidGroundTruth(FileExpertsError):
    """A ground-truth CSV is unreadable, lacks a column or has a row of the wrong width."""


class InvalidRepoMetrics(FileExpertsError):
    """A corpus metrics CSV is unreadable, lacks a column, has a bad row or
    count, or names a repository twice."""


# -- command-line input ------------------------------------------------------

class InvalidReferenceTime(FileExpertsError):
    """A --reference-time value is not an ISO 8601 timestamp, or a reference
    time precedes the mined history's own."""


class UnreadableAliasMap(FileExpertsError):
    """An --alias-map file cannot be opened or read as UTF-8 CSV."""


class InvalidColumnMap(FileExpertsError):
    """A --column-map item is not of the form logical=actual, names no
    ground-truth column, or maps two logical columns to one header."""


class NoScores(FileExpertsError):
    """No developer has a score for the file asked about."""
