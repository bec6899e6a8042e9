"""Shared fixtures and independent oracles for the test suite."""

import numpy as np
import pytest

from anchorpose.codec import build_anchor_set
from anchorpose.geom import Intrinsics
from anchorpose.synth import (
    OccluderSpec,
    SceneConfig,
    _render,
    make_model,
    random_pose,
    tight_roi,
)

# ── Independent rotation oracles (axis-angle, no package rotation code) ──

def rodrigues(axis, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    k = np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def random_rotation_aa(rng: np.random.Generator) -> np.ndarray:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return rodrigues(axis, rng.uniform(0.0, np.pi))


# ── Canonical small test camera / scenes ──

TEST_K = Intrinsics(300.0, 300.0, 160.0, 120.0)


def small_config(seed: int, *, occluded: bool = False, **kw) -> SceneConfig:
    return SceneConfig(
        seed=seed, width=320, height=240, intrinsics=TEST_K,
        depth_range=(0.7, 1.4),
        occluders=OccluderSpec() if occluded else None, **kw,
    )


def scene_bundle(seed: int = 3, *, shape: str = "blob", n_points: int = 2500,
                 scale: float = 0.12, res: int = 64, k: int = 32):
    """(model, anchors, scene, roi) for one unoccluded rendered scene."""
    model = make_model(shape, n_points, scale, 7)
    cfg = small_config(seed)
    pose = random_pose(np.random.default_rng(seed), cfg)
    scene = _render(model, pose, cfg)
    anchors = build_anchor_set(model, k)
    return model, anchors, scene, tight_roi(scene, res)


@pytest.fixture(scope="session")
def blob_model():
    return make_model("blob", 2500, 0.12, 7)


@pytest.fixture(scope="session")
def blob_anchors(blob_model):
    return build_anchor_set(blob_model, 32)


@pytest.fixture(scope="session")
def blob_bundle():
    return scene_bundle(3)
