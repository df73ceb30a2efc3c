"""Wireframe geometry toolkit.

Parses line drawings into wireframes: sets of junction points joined by
straight segments, tied together by a binary incidence matrix.  The package
covers ground-truth derivation from raw line annotations, a grid / angle-bin
codec for learned junction predictors, the matching losses, heat-map based
wireframe construction, a probabilistic Hough baseline, and tolerance-based
precision/recall evaluation.
"""

from .geometry import (
    Branch,
    GeometryError,
    Junction,
    Point,
    Segment,
    SegmentIntersection,
    Wireframe,
    angle_diff,
    build_incidence,
    direction_deg,
    normalize_angle,
    point_segment_distance,
    segment_intersection,
)

__all__ = [
    "Branch",
    "GeometryError",
    "Junction",
    "Point",
    "Segment",
    "SegmentIntersection",
    "Wireframe",
    "angle_diff",
    "build_incidence",
    "direction_deg",
    "normalize_angle",
    "point_segment_distance",
    "segment_intersection",
]

__version__ = "0.1.0"
