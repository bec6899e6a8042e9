"""Pose recovery from dense correspondences with classical solvers.

Three routes are provided and jointly exercised by the ablation harness:

* ``solve_3d3d`` — weighted closed-form least-squares alignment of
  object-frame and camera-frame point sets (SVD with determinant
  correction, so a proper rotation is always returned);
* ``solve_2d3d`` — Gauss-Newton on pixel reprojection residuals. The state
  is (R, t); each step solves the 6x6 normal equations of the analytic
  Jacobians for a left so(3) x R^3 update R <- exp([w]x) R, t <- t + dt
  (Sola et al., "A micro Lie theory for state estimation in robotics"), and
  a step-halving line search keeps the objective strictly decreasing. The
  solve stops once the step's predicted decrease is below the rounding
  error of the objective;
* ``solve_fused`` — joint Gauss-Newton over both residual families,
  balanced by per-family noise scales.

``ransac`` wraps either route with seeded hypothesize-and-verify outlier
rejection. All minimal samples are drawn in one vectorized pass, and 3d-3d
hypotheses are solved and scored in one batched pass. All solvers are pure
functions of their inputs (and seed), and reports carry the route used as
``mode`` metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .codec import AnchorSet, decode_points
from .correspondence import DenseMaps
from .camera_crop import crop_affine
from .geom import NEAR_EPS, Intrinsics, Pose


# A cell's mask value must exceed this for the cell to yield a correspondence.
MASK_THRESHOLD = 0.5
# Residual scales of the fused objective: meters, pixels.
SIGMA_M, SIGMA_PX = 0.005, 1.0
# RANSAC inlier tolerance per mode: meters of 3d-3d alignment error, pixels
# of reprojection error.
RANSAC_INLIER_TOL = {"3d3d": 0.01, "2d3d": 2.0}
RANSAC_ITERS = 256  # hypotheses of a ransac call that does not set max_iters


class NoForeground(ValueError):
    """No usable correspondence cell in the maps."""


class Degenerate(ValueError):
    """Too few or collinear points, or a missing point family, for a solve."""


# Kept only because perfbench/workloads.py imports this name; it can go once
# that file catches SOLVE_ERRORS.
DegenerateConfiguration = Degenerate


class NoConsensus(RuntimeError):
    """RANSAC found no hypothesis with at least 10% inlier support."""


# What a solve raises when its correspondences yield no pose.
SOLVE_ERRORS = (NoForeground, Degenerate, NoConsensus)


@dataclass
class CorrSet:
    """Dense correspondences: object points plus camera points and/or pixels.

    ``img_pts`` are in the crop (output-cell) frame, matching the crop
    intrinsics; ``weights`` are nonnegative per-correspondence confidences.
    """

    obj_pts: np.ndarray                 # (N, 3) object frame, meters
    cam_pts: np.ndarray | None = None   # (N, 3) camera frame, meters
    img_pts: np.ndarray | None = None   # (N, 2) pixels, crop frame
    weights: np.ndarray | None = None   # (N,) nonnegative

    def __post_init__(self):
        self.obj_pts = np.ascontiguousarray(np.asarray(self.obj_pts, dtype=np.float64))
        n = len(self.obj_pts)
        if self.obj_pts.ndim != 2 or self.obj_pts.shape[1] != 3:
            raise ValueError("obj_pts must be (N, 3)")
        if self.cam_pts is None and self.img_pts is None:
            raise ValueError("need cam_pts and/or img_pts")
        if self.cam_pts is not None:
            self.cam_pts = np.ascontiguousarray(np.asarray(self.cam_pts, dtype=np.float64))
            if self.cam_pts.shape != (n, 3):
                raise ValueError("cam_pts length/shape mismatch")
        if self.img_pts is not None:
            self.img_pts = np.ascontiguousarray(np.asarray(self.img_pts, dtype=np.float64))
            if self.img_pts.shape != (n, 2):
                raise ValueError("img_pts length/shape mismatch")
        for name in ("obj_pts", "cam_pts", "img_pts"):
            pts = getattr(self, name)
            if pts is not None and not np.all(np.isfinite(pts)):
                raise ValueError(f"{name} must be finite")
        if self.weights is None:
            self.weights = np.ones(n)
        else:
            self.weights = np.asarray(self.weights, dtype=np.float64)
            if self.weights.shape != (n,):
                raise ValueError("weights length mismatch")
        if not np.all(np.isfinite(self.weights)) or self.weights.min() < 0:
            raise ValueError("weights must be finite and >= 0")
        if not self.weights.sum() > 0:
            raise ValueError("weights must not all be zero")

    def __len__(self) -> int:
        return len(self.obj_pts)

    def subset(self, indices) -> "CorrSet":
        idx = np.asarray(indices)
        return CorrSet(
            self.obj_pts[idx],
            None if self.cam_pts is None else self.cam_pts[idx],
            None if self.img_pts is None else self.img_pts[idx],
            self.weights[idx],
        )


@dataclass
class SolveReport:
    pose: Pose
    inlier_count: int
    rmse: float
    iterations: int
    mode: str
    trace: list = field(default_factory=list, repr=False)

    def to_json(self) -> dict:
        return {
            "pose": self.pose.to_json(),
            "inlier_count": int(self.inlier_count),
            "rmse": float(self.rmse),
            "iterations": int(self.iterations),
            "mode": self.mode,
        }


def extract_correspondences(maps: DenseMaps, anchors: AnchorSet) -> CorrSet:
    """One correspondence per foreground cell with valid geometry.

    Cells must clear ``MASK_THRESHOLD``, decode to a foreground region
    class (background-class cells are dropped), and carry a valid grid
    sample. Object points come from anchor + residual decoding, weights
    from the mask value.
    """
    if maps.anchors.object_id != anchors.object_id:
        raise ValueError(
            f"maps coded against {maps.anchors.object_id!r}, got {anchors.object_id!r}"
        )
    classes = maps.classes
    sel = (maps.mask > MASK_THRESHOLD) & (classes < anchors.k) & maps.grids.valid
    if not sel.any():
        raise NoForeground("no cell passes mask/class/validity selection")
    obj = decode_points(classes[sel], maps.residual[sel], anchors)
    img = crop_affine(maps.grids.roi).apply(maps.grids.uv[sel])
    return CorrSet(obj, maps.grids.cam_xyz[sel].copy(), img, maps.mask[sel].copy())


def _spread_ok(pts: np.ndarray) -> np.ndarray:
    """Whether each (..., N, 3) point set spans more than a line."""
    centered = pts - pts.mean(axis=-2, keepdims=True)
    s = np.linalg.svd(centered, compute_uv=False)
    return s[..., 1] > 1e-9 * np.maximum(s[..., 0], 1e-12)


def _check_spread(pts: np.ndarray, minimum: int) -> None:
    """Reject sets that are too small or (near-)collinear."""
    if len(pts) < minimum:
        raise Degenerate(f"need >= {minimum} points, got {len(pts)}")
    if not _spread_ok(pts):
        raise Degenerate("points are (near-)collinear")


def _kabsch(obj: np.ndarray, cam: np.ndarray, w: np.ndarray):
    """Weighted alignment of (..., N, 3) point sets under normalized (..., N)
    weights. Returns (R, t) of shapes (..., 3, 3) and (..., 3); the
    determinant correction makes every R a proper rotation."""
    o_bar = (w[..., None, :] @ obj)[..., 0, :]
    c_bar = (w[..., None, :] @ cam)[..., 0, :]
    do = obj - o_bar[..., None, :]
    dc = cam - c_bar[..., None, :]
    h = (do * w[..., None]).swapaxes(-1, -2) @ dc
    u, _, vt = np.linalg.svd(h)
    v, ut = vt.swapaxes(-1, -2), u.swapaxes(-1, -2)
    d = np.sign(np.linalg.det(v @ ut))
    flip = np.ones(d.shape + (3,))
    flip[..., 2] = d
    rot = (v * flip[..., None, :]) @ ut
    t = c_bar - (rot @ o_bar[..., None])[..., 0]
    return rot, t


def solve_3d3d(corr: CorrSet) -> SolveReport:
    """Weighted closed-form alignment minimizing sum w ||R a + t - b||^2."""
    if corr.cam_pts is None:
        raise Degenerate("3d-3d solving requires cam_pts")
    _check_spread(corr.obj_pts, 3)
    w = corr.weights / corr.weights.sum()
    rot, t = _kabsch(corr.obj_pts, corr.cam_pts, w)
    pose = Pose(rot, t)
    resid = pose.apply(corr.obj_pts) - corr.cam_pts
    rmse = float(np.sqrt((w * (resid ** 2).sum(axis=1)).sum()))
    return SolveReport(pose, len(corr), rmse, 1, "3d3d")


# ---------------------------------------------------------------------------
# Gauss-Newton machinery: state (R, t), left update R <- exp([w]x) R, t <- t + dt.
# A residual family returns its flat residual vector and, when ``jac`` is
# true, also the (len, 6) Jacobian with respect to (w, dt).

def _so3_exp(w: np.ndarray) -> np.ndarray:
    """Rodrigues' formula; ``np.sinc`` keeps it exact down to w = 0."""
    theta = math.sqrt(float(w @ w))
    wx = np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])
    a = np.sinc(theta / np.pi)                     # sin(theta) / theta
    b = 0.5 * np.sinc(theta / (2.0 * np.pi)) ** 2  # (1 - cos(theta)) / theta^2
    return np.eye(3) + a * wx + b * (wx @ wx)


def _metric_residuals(obj, cam, scale, rot, t, jac=False):
    """Scaled 3d-3d residuals (R a + t - b) * scale, (N, 3) flattened.

    Jacobian rows: d(R a + t)/d(w, dt) = [-[R a]x, I], times the scale.
    """
    q = obj @ rot.T
    r = ((q + t - cam) * scale[:, None]).ravel()
    if not jac:
        return r
    q0, q1, q2 = (q * scale[:, None]).T
    zero = np.zeros(len(q))
    j = np.stack([zero, q2, -q1, scale, zero, zero,
                  -q2, zero, q0, zero, scale, zero,
                  q1, -q0, zero, zero, zero, scale], axis=1)
    return r, j.reshape(-1, 6)


def _pixel_residuals(obj, img, scale, rot, t, k: Intrinsics, jac=False):
    """Scaled reprojection residuals (pi(R a + t) - x) * scale, (N, 2) flattened.

    Jacobian rows: g^T [-[R a]x, I] = [(R a) x g, g] for each row g of the
    pinhole derivative d(u, v)/d(R a + t) = [[fx/z, 0, -fx x/z^2],
    [0, fy/z, -fy y/z^2]], times the scale. Where the NEAR_EPS depth clamp is
    active the depth derivative is 0.
    """
    q = obj @ rot.T
    p = q + t
    z = np.maximum(p[:, 2], NEAR_EPS)
    uv = np.column_stack([k.fx * p[:, 0] / z + k.cx, k.fy * p[:, 1] / z + k.cy])
    r = ((uv - img) * scale[:, None]).ravel()
    if not jac:
        return r
    front = p[:, 2] > NEAR_EPS
    a, b = k.fx / z * scale, k.fy / z * scale
    cu = np.where(front, -a * p[:, 0] / z, 0.0)
    cv = np.where(front, -b * p[:, 1] / z, 0.0)
    q0, q1, q2 = q.T
    zero = np.zeros(len(q))
    j = np.stack([q1 * cu, q2 * a - q0 * cu, -q1 * a, a, zero, cu,
                  q1 * cv - q2 * b, -q0 * cv, q0 * b, zero, b, cv], axis=1)
    return r, j.reshape(-1, 6)


_EPS = float(np.finfo(np.float64).eps)


def _gauss_newton(residual_fn, pose: Pose, max_iters: int, step_tol: float = 1e-10):
    """Gauss-Newton on (R, t) with a step-halving line search.

    Each step solves the 6x6 normal equations for the left so(3) x R^3
    increment (w, dt). The solve stops before the line search once the
    predicted decrease -g.delta is not above len(r) * eps * phi, the
    worst-case rounding error of the sum phi (Madsen, Nielsen & Tingleff,
    "Methods for Non-Linear Least Squares Problems", 2004, sec. 3). The
    accepted-objective trace is strictly decreasing. Returns
    (R, t, iterations, trace).
    """
    rot, t = pose.rotation, pose.translation
    r = residual_fn(rot, t)
    phi = float(r @ r)
    if not np.isfinite(phi):
        raise Degenerate("initial state is invalid")
    trace = [phi]
    iters = 0
    for it in range(max_iters):
        iters = it + 1
        r, jac = residual_fn(rot, t, True)
        g = jac.T @ r
        delta = np.linalg.lstsq(jac.T @ jac, -g, rcond=None)[0]
        # Converged: no step can show a decrease this far below phi's rounding.
        if not -float(g @ delta) > len(r) * _EPS * phi:
            break
        alpha = 1.0
        accepted = False
        while alpha >= 2.0 ** -20:
            rot_new = _so3_exp(alpha * delta[:3]) @ rot
            t_new = t + alpha * delta[3:]
            r_new = residual_fn(rot_new, t_new)
            phi_new = float(r_new @ r_new)
            if phi_new < phi:  # False for NaN: a non-finite trial is rejected
                rot, t, phi = rot_new, t_new, phi_new
                trace.append(phi)
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break
        if float(np.linalg.norm(alpha * delta)) < step_tol:
            break
    return rot, t, iters, trace


def solve_2d3d(corr: CorrSet, k: Intrinsics, init: Pose | None = None) -> SolveReport:
    """Gauss-Newton on weighted reprojection residuals.

    The initial pose defaults to the closed-form 3d-3d solution when camera
    points are available, otherwise to identity rotation at 1 m depth.
    Hitting the iteration limit flags non-convergence via
    ``iterations == 100``; a report is still returned.
    """
    if corr.img_pts is None:
        raise Degenerate("2d-3d solving requires img_pts")
    _check_spread(corr.obj_pts, 6)
    if init is None:
        if corr.cam_pts is not None:
            init = solve_3d3d(corr).pose
        else:
            init = Pose(np.eye(3), np.array([0.0, 0.0, 1.0]))

    sw = np.sqrt(corr.weights)
    obj = corr.obj_pts
    img = corr.img_pts

    def residuals(rot, t, jac=False):
        return _pixel_residuals(obj, img, sw, rot, t, k, jac)

    rot, t, iters, trace = _gauss_newton(residuals, init, max_iters=100)
    pose = Pose(rot, t)
    err = _pixel_residuals(obj, img, np.ones(len(obj)), rot, t, k).reshape(-1, 2)
    w = corr.weights / corr.weights.sum()
    rmse = float(np.sqrt((w * (err ** 2).sum(axis=1)).sum()))
    return SolveReport(pose, len(corr), rmse, iters, "2d3d", trace)


def solve_fused(corr: CorrSet, k: Intrinsics, *, sigma_m: float = SIGMA_M,
                sigma_px: float = SIGMA_PX, seed: int = 0, init: Pose | None = None,
                ransac_iters: int = 128) -> SolveReport:
    """Joint Gauss-Newton over metric and reprojection residuals.

    Each correspondence contributes its 3d-3d residual scaled by 1/sigma_m
    and its pixel residual scaled by 1/sigma_px. Initialization comes from
    robust 3d-3d RANSAC (``ransac_iters`` hypotheses at the 3d3d
    ``RANSAC_INLIER_TOL``) unless an explicit pose is given.
    """
    if corr.cam_pts is None or corr.img_pts is None:
        raise ValueError("fused solving requires both cam_pts and img_pts")
    _check_spread(corr.obj_pts, 3)
    if init is None:
        init = ransac(corr, "3d3d", inlier_tol=RANSAC_INLIER_TOL["3d3d"],
                      max_iters=ransac_iters, seed=seed).pose

    sw = np.sqrt(corr.weights)
    obj, cam, img = corr.obj_pts, corr.cam_pts, corr.img_pts
    s_m, s_px = sw / sigma_m, sw / sigma_px

    def residuals(rot, t, jac=False):
        m = _metric_residuals(obj, cam, s_m, rot, t, jac)
        px = _pixel_residuals(obj, img, s_px, rot, t, k, jac)
        if not jac:
            return np.concatenate([m, px])
        return np.concatenate([m[0], px[0]]), np.concatenate([m[1], px[1]])

    rot, t, iters, trace = _gauss_newton(residuals, init, max_iters=100)
    pose = Pose(rot, t)
    r = residuals(rot, t)
    rmse = float(np.sqrt((r @ r) / (5.0 * corr.weights.sum())))
    return SolveReport(pose, len(corr), rmse, iters, "fused", trace)


def _draw_samples(rng: np.random.Generator, n: int, m: int, h: int) -> np.ndarray:
    """(h, m) uniform ordered draws of m distinct indices in [0, n).

    Column c draws from the n - c indices left and is bumped past the
    earlier picks in ascending order, which maps it onto the c-th
    complement without replacement.
    """
    samples = np.empty((h, m), dtype=np.intp)
    for c in range(m):
        pick = rng.integers(0, n - c, h)
        for earlier in np.sort(samples[:, :c], axis=1).T:
            pick += pick >= earlier
        samples[:, c] = pick
    return samples


def _best_3d3d(corr: CorrSet, samples: np.ndarray, inlier_tol: float):
    """All (H, 3) minimal-sample hypotheses at once: batched collinearity
    test and Kabsch, then residuals scored as (N, H) planes, one GEMM per
    coordinate. Returns the winner as (count, rmse, index, pose, inlier
    mask), or None when no hypothesis has an inlier."""
    obj, cam = corr.obj_pts[samples], corr.cam_pts[samples]
    w = corr.weights[samples]
    wsum = w.sum(axis=1)
    valid = _spread_ok(obj) & (wsum > 0)
    rot, t = _kabsch(obj, cam, w / np.where(wsum > 0, wsum, 1.0)[:, None])
    # In place: the planes are the large arrays here.
    sq = np.zeros((len(corr), len(samples)))
    err = np.empty_like(sq)
    for c in range(3):
        np.matmul(corr.obj_pts, rot[:, c].T, out=err)
        err += t[:, c]
        err -= corr.cam_pts[:, c, None]
        err *= err
        sq += err
    inliers = np.sqrt(sq, out=err) < inlier_tol
    inliers &= valid
    count = np.count_nonzero(inliers, axis=0)
    if not count.any():
        return None
    sq *= inliers
    rmse = np.sqrt(sq.sum(axis=0) / np.maximum(count, 1))
    i = int(np.lexsort((np.arange(len(count)), rmse, -count))[0])
    return int(count[i]), float(rmse[i]), i, Pose(rot[i], t[i]), inliers[:, i]


def _best_2d3d(corr: CorrSet, samples: np.ndarray, inlier_tol: float, k: Intrinsics):
    """One Gauss-Newton hypothesis per (H, 6) sample; same return as ``_best_3d3d``."""
    best, unit = None, np.ones(len(corr))
    for it, sample in enumerate(samples):
        try:
            hyp = solve_2d3d(corr.subset(sample), k).pose
        except Degenerate:
            continue
        err = _pixel_residuals(corr.obj_pts, corr.img_pts, unit, hyp.rotation,
                               hyp.translation, k)
        norms = np.linalg.norm(err.reshape(-1, 2), axis=1)
        inliers = norms < inlier_tol
        count = int(inliers.sum())
        if count == 0:
            continue
        rmse = float(np.sqrt((norms[inliers] ** 2).mean()))
        if best is None or (count, -rmse, -it) > (best[0], -best[1], -best[2]):
            best = (count, rmse, it, hyp, inliers)
    return best


def ransac(corr: CorrSet, mode: str, inlier_tol: float, max_iters: int = RANSAC_ITERS,
           seed: int = 0, k: Intrinsics | None = None) -> SolveReport:
    """Seeded hypothesize-and-verify with a final refit on the inliers.

    ``mode`` is "3d3d" (minimal sample 3, tolerance in meters) or "2d3d"
    (minimal sample 6, tolerance in pixels; requires ``k``). The iteration
    count is fixed, and the best hypothesis is chosen by (inlier count,
    lower rmse, lower hypothesis index), so results are bit-reproducible.
    All minimal samples are drawn up front in one vectorized pass; 3d3d
    hypotheses are solved and scored in one batched pass.
    """
    if mode not in ("3d3d", "2d3d"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "3d3d" and corr.cam_pts is None:
        raise Degenerate("3d3d RANSAC requires cam_pts")
    if mode == "2d3d":
        if corr.img_pts is None:
            raise Degenerate("2d3d RANSAC requires img_pts")
        if k is None:
            raise ValueError("2d3d RANSAC requires intrinsics")
    minimal = 3 if mode == "3d3d" else 6
    n = len(corr)
    if n < minimal:
        raise Degenerate(f"need >= {minimal} correspondences, got {n}")

    samples = _draw_samples(np.random.default_rng(seed), n, minimal, max_iters)
    if mode == "3d3d":
        best = _best_3d3d(corr, samples, inlier_tol)
    else:
        best = _best_2d3d(corr, samples, inlier_tol, k)

    if best is None or best[0] / n < 0.10:
        raise NoConsensus(
            f"best inlier ratio {0 if best is None else best[0] / n:.3f} below 0.10"
        )

    count, rmse, _, pose, inliers = best
    sub = corr.subset(np.nonzero(inliers)[0])
    try:
        if mode == "3d3d":
            refit = solve_3d3d(sub)
        else:
            refit = solve_2d3d(sub, k, init=pose)
        pose, rmse = refit.pose, refit.rmse
    except Degenerate:
        pass
    return SolveReport(pose, count, rmse, max_iters, mode)


def pose_error(pred: Pose, gt: Pose) -> tuple[float, float]:
    """(geodesic rotation error in degrees, translation error in meters).

    The angle is arccos((trace(R_p^T R_g) - 1) / 2); below ~60 degrees it is
    evaluated through the equivalent 2*arcsin(||R_p - R_g||_F / (2*sqrt(2))),
    which stays accurate for tiny angles where arccos loses half the
    significant digits.
    """
    fro = float(np.linalg.norm(pred.rotation - gt.rotation))
    half_sin = fro / (2.0 * math.sqrt(2.0))
    if half_sin < 0.5:
        rot_deg = float(np.degrees(2.0 * np.arcsin(half_sin)))
    else:
        cos = (np.trace(pred.rotation.T @ gt.rotation) - 1.0) / 2.0
        rot_deg = float(np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))))
    return rot_deg, float(np.linalg.norm(pred.translation - gt.translation))
