"""Most-likely program estimation over grammar rewriting rules.

A grammar is compiled into top-down, bottom-up, and creation rewriting
rules; annotated ASTs grow one rule application at a time under learned
per-step probabilities, with type constraints and size bounds pruning the
beam.  The ``condsynth`` layer instantiates the engine for ranking guard
conditions mined from a code corpus.

The package root binds only ``__version__``: every other name is imported
from its module (``from progest.condsynth import load_corpus``).
"""

__version__ = "0.1.0"
