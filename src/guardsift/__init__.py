"""Guard-side Tor cell-trace toolkit.

Synthetic traffic generation with ground truth, circuit sanitization,
time-based segmentation, linked-leg (Conflux) analysis, featurization,
and open-world evaluation metrics.

Importing the package imports none of its modules: import each name from
the module that defines it (``from guardsift.trace import Trace``), so a
process pays only for the stages it uses.
"""

__version__ = "0.1.0"
