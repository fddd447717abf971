"""Array-native decode kernel: flat label arena, CSR sketch, array Dijkstra.

The kernel is the one engine that answers forbidden-set distance
queries (:func:`repro.labeling.decoder.decode_distance` is its
one-shot form).  It runs the paper's query procedure on flat int
arrays instead of nested dicts:

* :mod:`~repro.labeling.kernel.arena` interns labels once into flat
  fragments with precomputed protected-ball bitmaps;
* :mod:`~repro.labeling.kernel.engine` runs the per-query filter →
  merge → CSR → Dijkstra pipeline over reusable buffers (no hot-path
  dict/set allocation, enforced by RPL013);
* :mod:`~repro.labeling.kernel.npops` holds the optional numpy
  vectorizations behind the same interface;
* :mod:`~repro.labeling.kernel.decoder` is the stable entry point —
  :class:`KernelDecoder` with ``decode`` / ``decode_batch``.

See ``docs/kernel.md`` for the data layout and the differential
harness that checks every answer against the test-only reference
decoder in ``tests/reference_decoder.py``.
"""

from repro.labeling.kernel.arena import HAVE_NUMPY, Fragment, LabelArena
from repro.labeling.kernel.decoder import KernelDecoder
from repro.labeling.kernel.engine import DecodeEngine

__all__ = [
    "HAVE_NUMPY",
    "Fragment",
    "LabelArena",
    "KernelDecoder",
    "DecodeEngine",
]
