"""Exception types raised by the :mod:`repro` library."""


class ReproError(Exception):
    """Base class for all library-specific errors."""


class GraphError(ReproError):
    """Raised for malformed graph inputs (bad vertex ids, bad edges)."""


class LabelingError(ReproError):
    """Raised when a labeling scheme is misused (unknown vertex, bad level)."""


class QueryError(ReproError):
    """Raised for invalid queries (e.g. an endpoint is inside the forbidden set)."""


class EncodingError(ReproError):
    """Raised when a serialized label cannot be decoded."""


class LabelCorruptionError(EncodingError):
    """Raised when stored label bytes fail an integrity check.

    Distinguishes *damaged data* (bit rot, truncation, tampering —
    detected by the v2 database checksums or a failed decode) from
    structurally unreadable input; catching :class:`EncodingError`
    still catches both.
    """


class DatabaseTruncationError(EncodingError):
    """Raised when a label database file ends before a record does.

    Distinguishes a *truncated tail* (the classic torn-write artifact:
    every byte present parses, the file just stops mid-record) from an
    *in-place corrupted record* (framing intact, checksum wrong — a
    :class:`LabelCorruptionError`).  ``repro fsck`` reports the two
    with distinct messages and exit codes.
    """


class RoutingError(ReproError):
    """Raised when packet forwarding cannot make progress."""


class DurabilityError(ReproError):
    """Raised by the crash-consistent durability layer (:mod:`repro.durability`)."""


class StorageCorruptionError(DurabilityError):
    """Raised when a WAL or snapshot fails an integrity check it cannot
    have failed under the crash model.

    A torn WAL *tail* is expected after a crash and is truncated
    silently; a bad snapshot or WAL *header* is not survivable damage
    (both are written atomically) and must surface, never be guessed
    around.
    """


class SimulatedCrashError(DurabilityError):
    """Raised by :class:`repro.durability.fs.SimulatedFS` at an armed
    kill-point: the simulated process dies mid-write/flush/rename."""


class RolloutError(ReproError):
    """Raised by the versioned label rollout layer (:mod:`repro.rollout`).

    Covers lifecycle misuse — committing a generation that was never
    staged, aborting a committed generation, loading a manifest that
    does not exist.  Damage to manifest *bytes* is storage corruption
    and raises :class:`StorageCorruptionError` instead.
    """


class ObservabilityError(ReproError):
    """Raised by the metrics/tracing layer (:mod:`repro.obs`).

    Misuse of the registry — re-registering a metric name under a
    different type, mismatched histogram buckets, negative counter
    increments, malformed metric names — fails loudly instead of
    producing exporter output that silently disagrees between runs.
    """


class ServiceError(ReproError):
    """Raised by the sharded label-serving tier (:mod:`repro.service`)."""


class GatewayError(ServiceError):
    """Raised by the async admission-control gateway (:mod:`repro.gateway`).

    Covers lifecycle and scheduler misuse — submitting to a closed
    gateway, awaiting a virtual-time loop that has deadlocked (every
    task blocked with no pending wakeup), mismatched clocks between the
    gateway and its service.  Overload itself is *not* an error: shed
    requests resolve normally with an explicit
    :class:`~repro.service.frontend.DegradationReason`.
    """


class ScenarioError(ReproError):
    """Raised by the declarative scenario layer (:mod:`repro.scenario`).

    Parse failures carry the 1-based ``line`` (and, when known, the
    ``field``) of the offending trace text, so a broken scenario file
    points at itself instead of at the replay machinery.  Semantic
    problems found while compiling a trace against a concrete graph
    (a ball center outside the vertex range, a rollout edge the graph
    does not have) raise the same type without a line.
    """

    def __init__(
        self,
        message: str,
        line: int | None = None,
        field: str | None = None,
    ) -> None:
        prefix = ""
        if line is not None:
            prefix = f"line {line}: "
            if field is not None:
                prefix = f"line {line}: field {field!r}: "
        elif field is not None:
            prefix = f"field {field!r}: "
        super().__init__(prefix + message)
        self.line = line
        self.field = field
