"""Distance labeling schemes — the paper's core contribution.

* :class:`FailureFreeLabeling` — the Section 2.1 "overview" scheme: a
  ``(1+ε)``-approximate distance labeling with no fault tolerance.
* :class:`ForbiddenSetLabeling` — the main result (Theorem 2.1): a
  forbidden-set ``(1+ε)``-approximate distance labeling scheme.
"""

from repro.labeling.failure_free import FailureFreeLabeling
from repro.labeling.label import LevelLabel, VertexLabel
from repro.labeling.params import ParamSchedule
from repro.labeling.scheme import ForbiddenSetLabeling, LabelingOptions
from repro.labeling.decoder import (
    FaultSet,
    QueryResult,
    decode_distance,
    normalize_faults,
)
from repro.labeling.encoding import decode_label, encode_label, encoded_bit_length
from repro.labeling.kernel import KernelDecoder
from repro.labeling.weighted import WeightedForbiddenSetLabeling

__all__ = [
    "KernelDecoder",
    "WeightedForbiddenSetLabeling",
    "FailureFreeLabeling",
    "FaultSet",
    "ForbiddenSetLabeling",
    "LabelingOptions",
    "LevelLabel",
    "ParamSchedule",
    "QueryResult",
    "VertexLabel",
    "decode_distance",
    "decode_label",
    "encode_label",
    "encoded_bit_length",
    "normalize_faults",
]
