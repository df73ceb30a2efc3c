import threading

import numpy as np
import pytest

from wireframe.geometry import GeometryError
from wireframe.synth import make_scene, make_scenes


def test_small_image_raises_in_bounded_time():
    # a 64x64 image leaves a 16 px window for crossings: the redraws give
    # up after a bounded number of attempts instead of looping forever
    outcome = []

    def attempt():
        try:
            make_scene(np.random.default_rng(0), 64, 64)
            outcome.append(None)
        except GeometryError as e:
            outcome.append(e)

    worker = threading.Thread(target=attempt, daemon=True)
    worker.start()
    worker.join(timeout=30.0)
    assert outcome, "make_scene(64x64) did not return within 30 s"
    assert isinstance(outcome[0], GeometryError) and "64x64" in str(outcome[0])


@pytest.mark.parametrize("width, height", [(16, 16), (49, 320), (320, 1)])
def test_image_too_small_for_a_segment(width, height):
    with pytest.raises(GeometryError, match=f"{width}x{height}"):
        make_scene(np.random.default_rng(0), width, height)


@pytest.mark.parametrize("seed, count", [(-1, 1), (True, 1), (1.5, 1), (0, -1)])
def test_make_scenes_rejects_bad_seed_and_count(seed, count):
    with pytest.raises(GeometryError):
        make_scenes(seed, count)
