"""Wireframe geometry toolkit.

Parses line drawings into wireframes: sets of junction points joined by
straight segments, tied together by a binary incidence matrix.  The package
covers ground-truth derivation from raw line annotations, a grid / angle-bin
codec for learned junction predictors, the matching losses, heat-map based
wireframe construction, a probabilistic Hough baseline, and tolerance-based
precision/recall evaluation.  Names are imported from their modules, as in
``from wireframe.geometry import Point``.
"""

__version__ = "0.1.0"
