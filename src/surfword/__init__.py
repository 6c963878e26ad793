"""Classification of compact surfaces presented as polygon edge words.

A surface is given as a cyclic word: each letter is a polygon edge,
appearing once (a free boundary edge) or twice (a glued pair), with an
apostrophe marking reversed direction.  :func:`normalize` reduces any
such word by elementary rewrites to a normal form (sphere, orientable
of genus g, or nonorientable of genus k, each with a count of boundary
components) and returns a step-by-step trace that :func:`replay` can
verify.  The invariants module classifies the same words by an
independent route (Euler characteristic, orientability, boundary
tracing) for cross-checking.
"""

from . import invariants, normalform, rewrite, words
from .words import *
from .rewrite import *
from .normalform import *
from .invariants import *

__version__ = "0.1.0"

__all__ = words.__all__ + rewrite.__all__ + normalform.__all__ + invariants.__all__
