"""Helpers shared by the test modules."""

import numpy as np
from hypothesis import settings

from wireframe.annotate import rasterize_segments

# `pytest --hypothesis-profile=ci`: the same 1,000 draws on every run, so
# rare cases (ulp edges of the number spelling) are tried each time alike;
# a test's own @settings still wins
settings.register_profile("ci", max_examples=1000, derandomize=True, deadline=None)


def segment_pixels(s, width, height):
    """The (n, 2) intp pixels (x, y) of one segment, from a to b; (0, 2)
    when it misses the image."""
    blocks = list(rasterize_segments(np.array([[s.a.x, s.a.y, s.b.x, s.b.y]]), width, height))
    return np.column_stack([np.concatenate([b[k] for b in blocks] or [np.zeros(0, np.intp)])
                            for k in (0, 1)])
