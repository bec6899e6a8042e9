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
  normal equations are accumulated over the points; the stacked Jacobian
  is never formed. Each point is evaluated once: the evaluation returns
  the objective and a deferred step, and the normal equations are built
  only at the start point and at accepted points, from that evaluation's
  own arrays. The solve stops once the step's predicted decrease is below
  the rounding error of the objective;
* ``solve_fused`` — joint Gauss-Newton over both residual families,
  balanced by per-family noise scales.

``ransac`` wraps either route with seeded hypothesize-and-verify outlier
rejection. All minimal samples are drawn in one vectorized pass, and 3d-3d
hypotheses are spread-tested in closed form, solved in one batched pass and
scored preemptively: all on a seeded subset, the leaders on every
correspondence. 3d-3d RANSAC stops at full consensus: when a hypothesis
with the full subset vote holds every correspondence (with a 1e-9 relative
margin) and the set is not collinear, every tied winner's inliers are all
rows, so the leaders' tie-break cannot change the refit on them and is
skipped. The first ``PREEMPT_LEADERS`` (8) hypotheses are built and tested
first, and the other hypotheses are built only when those do not settle
full consensus; that answer is the one a test of all hypotheses gives.
When a pair-length test shows that no hypothesis can have the full vote,
all are built in one pass.
All solvers are pure functions of their inputs (and seed), and reports
carry the route used as ``mode`` metadata.

A ``CorrSet`` is immutable: it owns read-only copies of its arrays. So it
caches the spread test of its object points and its all-rows 3d-3d
alignment, and every solve of the set reads those: the 3d-3d solve, the
2d-3d default start pose and the full-consensus refit. A sweep that solves
one set in several modes computes each once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

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
GN_STEP_TOL = 1e-10  # Gauss-Newton stops after an accepted step shorter than this
# Preemptive 3d3d scoring: every hypothesis is counted on this many seeded
# correspondences, and those with the top counts are scored on all of them.
PREEMPT_SUBSET, PREEMPT_LEADERS = 100, 8


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


def _owned(a) -> np.ndarray:
    """A C-contiguous float64 copy of ``a``, so the caller's array is never shared."""
    return np.array(a, dtype=np.float64, order="C")


@dataclass(frozen=True)
class CorrSet:
    """Dense correspondences: object points plus camera points and/or pixels.

    ``img_pts`` are in the crop (output-cell) frame, matching the crop
    intrinsics; ``weights`` are nonnegative per-correspondence confidences.

    A set is an immutable value: it copies its arrays and makes the copies
    read-only. It can therefore cache two results that depend on its rows
    alone, and every solve of the set reads them: the spread test of its
    object points and the pose and rmse of ``solve_3d3d`` on all rows. A
    sweep solves one set in several modes, and each mode would otherwise
    redo both. ``subset`` builds a new set with its own cache.
    """

    obj_pts: np.ndarray                 # (N, 3) object frame, meters
    cam_pts: np.ndarray | None = None   # (N, 3) camera frame, meters
    img_pts: np.ndarray | None = None   # (N, 2) pixels, crop frame
    weights: np.ndarray | None = None   # (N,) nonnegative

    def __post_init__(self):
        obj = _owned(self.obj_pts)
        n = len(obj)
        if obj.ndim != 2 or obj.shape[1] != 3:
            raise ValueError("obj_pts must be (N, 3)")
        if self.cam_pts is None and self.img_pts is None:
            raise ValueError("need cam_pts and/or img_pts")
        arrays = {"obj_pts": obj}
        for name, cols in (("cam_pts", 3), ("img_pts", 2)):
            if getattr(self, name) is not None:
                arrays[name] = _owned(getattr(self, name))
                if arrays[name].shape != (n, cols):
                    raise ValueError(f"{name} length/shape mismatch")
        for name, pts in arrays.items():
            if not np.all(np.isfinite(pts)):
                raise ValueError(f"{name} must be finite")
        w = arrays["weights"] = np.ones(n) if self.weights is None else _owned(self.weights)
        if w.shape != (n,):
            raise ValueError("weights length mismatch")
        if not np.all(np.isfinite(w)) or w.min() < 0:
            raise ValueError("weights must be finite and >= 0")
        if not w.sum() > 0:
            raise ValueError("weights must not all be zero")
        for name, a in arrays.items():
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def __len__(self) -> int:
        return len(self.obj_pts)

    @cached_property
    def _spread(self) -> bool:
        """``_spread_ok`` of the object points."""
        return bool(_spread_ok(self.obj_pts))

    @cached_property
    def _alignment(self) -> tuple[Pose, float]:
        """``solve_3d3d``'s weighted alignment of all rows and its weighted
        rmse; that function checks the set first."""
        w = self.weights / self.weights.sum()
        pose = Pose(*_kabsch(self.obj_pts, self.cam_pts, w))
        resid = pose.apply(self.obj_pts) - self.cam_pts
        return pose, float(np.sqrt((w * (resid ** 2).sum(axis=1)).sum()))

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
    return CorrSet(obj, maps.grids.cam_xyz[sel], img, maps.mask[sel])


def _spread_ok(pts: np.ndarray) -> np.ndarray:
    """Whether each (..., N, 3) point set spans more than a line."""
    centered = pts - pts.mean(axis=-2, keepdims=True)
    s = np.linalg.svd(centered, compute_uv=False)
    return s[..., 1] > 1e-9 * np.maximum(s[..., 0], 1e-12)


def _triple_spread_ok(tri: np.ndarray) -> np.ndarray:
    """``_spread_ok`` of (..., 3, 3) point triples in closed form, without an SVD.

    The centred rows c_i of a triple span at most a plane, so its squared
    singular values s0^2 >= s1^2 are the roots of x^2 - F x + P, with
    F = ||C||_F^2 and P = sum_{i<j} |c_i x c_j|^2 (Lagrange's identity):
    s0^2 = (F + sqrt(F^2 - 4P)) / 2 and s1^2 = 2P / (F + sqrt(F^2 - 4P)).
    """
    c = tri - tri.mean(axis=-2, keepdims=True)
    f = np.einsum("...ij,...ij->...", c, c)
    a, b = c[..., [0, 0, 1], :], c[..., [1, 2, 2], :]  # the pairs i < j
    x = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    y = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    z = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    p = (x * x + y * y + z * z).sum(axis=-1)
    root = f + np.sqrt(np.maximum(f * f - 4.0 * p, 0.0))
    s1 = np.sqrt(np.divide(2.0 * p, root, out=np.zeros_like(root), where=root > 0))
    s0 = np.sqrt(0.5 * root)
    return s1 > 1e-9 * np.maximum(s0, 1e-12)


def _check_spread(corr: CorrSet, minimum: int) -> None:
    """Reject sets that are too small or (near-)collinear."""
    if len(corr) < minimum:
        raise Degenerate(f"need >= {minimum} points, got {len(corr)}")
    if not corr._spread:
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
    """Weighted closed-form alignment minimizing sum w ||R a + t - b||^2.

    The alignment is computed once per set and cached on it; each call
    returns a new report of it.
    """
    if corr.cam_pts is None:
        raise Degenerate("3d-3d solving requires cam_pts")
    _check_spread(corr, 3)
    pose, rmse = corr._alignment
    return SolveReport(pose, len(corr), rmse, 1, "3d3d")


# ---------------------------------------------------------------------------
# Gauss-Newton machinery: state (R, t), left update R <- exp([w]x) R, t <- t + dt.
# A residual family takes q = obj R^T, computed once per evaluation, and
# returns its weighted objective phi = sum w ||r||^2 together with a deferred
# step: a function of no arguments that returns the family's 6x6 normal
# equations J^T W J and J^T W r with respect to (w, dt), accumulated over the
# points from that same evaluation's arrays without forming J. Each
# evaluation owns the arrays its step reads, so a step can run after any
# number of later evaluations.

_EYE3 = np.eye(3)


def _hat(v: np.ndarray) -> np.ndarray:
    """The cross-product matrix [v]x."""
    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])


def _so3_exp(w: np.ndarray) -> np.ndarray:
    """Rodrigues' formula; ``np.sinc`` keeps it exact down to w = 0."""
    theta = math.sqrt(float(w @ w))
    wx = _hat(w)
    a = np.sinc(theta / np.pi)                     # sin(theta) / theta
    b = 0.5 * np.sinc(theta / (2.0 * np.pi)) ** 2  # (1 - cos(theta)) / theta^2
    return np.eye(3) + a * wx + b * (wx @ wx)


def _metric_normal(q, cam, w, t, w_sum):
    """Weighted 3d-3d residuals e = R a + t - b; ``w_sum`` is ``w.sum()``.

    Each point's Jacobian is [-[q]x, I], so J^T W J and J^T W r are sums of
    closed-form blocks in the weighted moments of q and e, all read off one
    (4, N) @ (N, 6) product:
    J^T W J = [[tr(Q) I - Q, [sum w q]x], [-[sum w q]x, (sum w) I]] with
    Q = sum w q q^T, and J^T W r = [sum w q x e, sum w e].
    """
    e = q + t - cam
    phi = float(w @ np.einsum("ij,ij->i", e, e))

    def normal():
        n = len(q)
        lhs = np.empty((4, n))
        lhs[0] = w
        np.multiply(q.T, w, out=lhs[1:])
        rhs = np.empty((n, 6))
        rhs[:, :3], rhs[:, 3:] = q, e
        m = lhs @ rhs
        wq, qq, qe = m[0, :3], m[1:, :3], m[1:, 3:]
        jtj = np.zeros((6, 6))
        jtj[:3, :3] = np.trace(qq) * _EYE3 - qq
        jtj[:3, 3:] = _hat(wq)
        jtj[3:, :3] = -jtj[:3, 3:]
        jtj[3:, 3:] = w_sum * _EYE3
        jtr = np.empty(6)
        jtr[:3] = qe[1, 2] - qe[2, 1], qe[2, 0] - qe[0, 2], qe[0, 1] - qe[1, 0]
        jtr[3:] = m[0, 3:]
        return jtj, jtr
    return phi, normal


def _pixel_error(p, img, k: Intrinsics):
    """(N, 2) reprojection errors pi(p) - x of camera-frame points p, with the
    depth clamped at NEAR_EPS, and that clamped depth (N,)."""
    z = np.maximum(p[:, 2], NEAR_EPS)
    d = np.empty((len(p), 2))
    for c, (f, centre) in enumerate(((k.fx, k.cx), (k.fy, k.cy))):
        col = d[:, c]
        np.multiply(p[:, c], f, out=col)
        col /= z
        col += centre
        col -= img[:, c]
    return d, z


def _pixel_normal(q, img, w, t, k: Intrinsics):
    """Weighted reprojection residuals pi(R a + t) - x.

    A point's Jacobian rows are g^T [-[q]x, I] = [q x g, g] for each row g of
    the pinhole derivative d(u, v)/d(R a + t) = [[fx/z, 0, -fx x/z^2],
    [0, fy/z, -fy y/z^2]]. Where the NEAR_EPS depth clamp is active the depth
    derivative is 0. The u rows and the v rows form two (N, 6) blocks, each
    given the residual as a 7th column, so one (7, N) @ (N, 7) product per
    block holds its J^T W J and J^T W r.
    """
    p = q + t
    d, z = _pixel_error(p, img, k)
    phi = float(w @ np.einsum("ij,ij->i", d, d))

    def normal():
        front = p[:, 2] > NEAR_EPS
        a, b = k.fx / z, k.fy / z
        cu, cv = -a * p[:, 0] / z, -b * p[:, 1] / z
        if not front.all():
            cu, cv = np.where(front, cu, 0.0), np.where(front, cv, 0.0)
        q0, q1, q2 = q.T
        m = np.zeros((7, 7))
        rows = np.empty((7, len(q)))
        # u rows [q x g, g, du] of g = (a, 0, cu)
        np.multiply(q1, cu, out=rows[0])
        np.multiply(q2, a, out=rows[1])
        rows[1] -= q0 * cu
        np.multiply(-q1, a, out=rows[2])
        rows[3], rows[4], rows[5], rows[6] = a, 0.0, cu, d[:, 0]
        m += (rows * w) @ rows.T
        # v rows of g = (0, b, cv)
        np.multiply(q1, cv, out=rows[0])
        rows[0] -= q2 * b
        np.multiply(-q0, cv, out=rows[1])
        np.multiply(q0, b, out=rows[2])
        rows[3], rows[4], rows[5], rows[6] = 0.0, b, cv, d[:, 1]
        m += (rows * w) @ rows.T
        return m[:6, :6], m[:6, 6]
    return phi, normal


_EPS = float(np.finfo(np.float64).eps)


def _gauss_newton(evaluate, pose: Pose, max_iters: int, n_res: int):
    """Gauss-Newton on (R, t) with a step-halving line search.

    ``evaluate(R, t)`` returns the objective phi of the ``n_res`` weighted
    residuals and a deferred step that returns (J^T W J, J^T W r) at that
    point. Each point is evaluated once; the step runs only for the start
    point and each accepted trial, so a rejected trial costs its objective
    alone. Each step solves the 6x6 normal equations for the left so(3) x
    R^3 increment (w, dt). The solve stops before the line search once the
    predicted decrease -g.delta is not above n_res * eps * phi, the
    worst-case rounding error of the sum phi (Madsen, Nielsen & Tingleff,
    "Methods for Non-Linear Least Squares Problems", 2004, sec. 3). The
    accepted-objective trace is strictly decreasing. Returns
    (R, t, iterations, trace).
    """
    rot, t = pose.rotation, pose.translation
    phi, normal = evaluate(rot, t)
    if not np.isfinite(phi):
        raise Degenerate("initial state is invalid")
    trace = [phi]
    iters = 0
    for it in range(max_iters):
        iters = it + 1
        jtj, g = normal()
        delta = np.linalg.lstsq(jtj, -g, rcond=None)[0]
        # Converged: no step can show a decrease this far below phi's rounding.
        if not -float(g @ delta) > n_res * _EPS * phi:
            break
        alpha = 1.0
        accepted = False
        while alpha >= 2.0 ** -20:
            rot_new = _so3_exp(alpha * delta[:3]) @ rot
            t_new = t + alpha * delta[3:]
            phi_new, normal_new = evaluate(rot_new, t_new)
            if phi_new < phi:  # False for NaN: a non-finite trial is rejected
                rot, t, phi, normal = rot_new, t_new, phi_new, normal_new
                trace.append(phi)
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break
        if float(np.linalg.norm(alpha * delta)) < GN_STEP_TOL:
            break
    return rot, t, iters, trace


def check_solve_values(**values: float) -> None:
    """Raise ValueError unless a given ``max_iters`` is >= 1 and every other
    given value (``inlier_tol``, ``sigma_m``, ``sigma_px``) is a finite
    value > 0: the one copy of the rules that ``ransac``, ``solve_fused`` and
    the ``solve`` command apply."""
    for name, value in values.items():
        if name == "max_iters":
            if not value >= 1:
                raise ValueError(f"max_iters must be >= 1, got {value!r}")
        elif not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be a finite value > 0, got {value!r}")


def solve_2d3d(corr: CorrSet, k: Intrinsics, init: Pose | None = None) -> SolveReport:
    """Gauss-Newton on weighted reprojection residuals.

    The initial pose defaults to the closed-form 3d-3d solution when camera
    points are available, otherwise to identity rotation at 1 m depth.
    Hitting the iteration limit flags non-convergence via
    ``iterations == 100``; a report is still returned.
    """
    if corr.img_pts is None:
        raise Degenerate("2d-3d solving requires img_pts")
    _check_spread(corr, 6)
    if init is None:
        if corr.cam_pts is not None:
            init = solve_3d3d(corr).pose
        else:
            init = Pose(np.eye(3), np.array([0.0, 0.0, 1.0]))

    obj, img, w = corr.obj_pts, corr.img_pts, corr.weights

    def evaluate(rot, t):
        return _pixel_normal(obj @ rot.T, img, w, t, k)

    rot, t, iters, trace = _gauss_newton(evaluate, init, 100, 2 * len(corr))
    rmse = math.sqrt(trace[-1] / w.sum())
    return SolveReport(Pose(rot, t), len(corr), rmse, iters, "2d3d", trace)


def solve_fused(corr: CorrSet, k: Intrinsics, *, sigma_m: float = SIGMA_M,
                sigma_px: float = SIGMA_PX, seed: int = 0, init: Pose | None = None,
                ransac_iters: int = 128) -> SolveReport:
    """Joint Gauss-Newton over metric and reprojection residuals.

    Each correspondence contributes its 3d-3d residual scaled by 1/sigma_m
    and its pixel residual scaled by 1/sigma_px. Initialization comes from
    robust 3d-3d RANSAC (``ransac_iters`` hypotheses at the 3d3d
    ``RANSAC_INLIER_TOL``) unless an explicit pose is given. Each sigma must
    be a finite value > 0 (ValueError otherwise).
    """
    check_solve_values(sigma_m=sigma_m, sigma_px=sigma_px)
    if corr.cam_pts is None or corr.img_pts is None:
        raise ValueError("fused solving requires both cam_pts and img_pts")
    _check_spread(corr, 3)
    if init is None:
        init = ransac(corr, "3d3d", inlier_tol=RANSAC_INLIER_TOL["3d3d"],
                      max_iters=ransac_iters, seed=seed).pose

    obj, cam, img = corr.obj_pts, corr.cam_pts, corr.img_pts
    w_m, w_px = corr.weights / sigma_m ** 2, corr.weights / sigma_px ** 2
    w_m_sum = w_m.sum()

    def evaluate(rot, t):
        q = obj @ rot.T
        phi_m, normal_m = _metric_normal(q, cam, w_m, t, w_m_sum)
        phi_px, normal_px = _pixel_normal(q, img, w_px, t, k)

        def normal():
            (jtj_m, g_m), (jtj_px, g_px) = normal_m(), normal_px()
            return jtj_m + jtj_px, g_m + g_px
        return phi_m + phi_px, normal

    rot, t, iters, trace = _gauss_newton(evaluate, init, 100, 5 * len(corr))
    rmse = math.sqrt(trace[-1] / (5.0 * corr.weights.sum()))
    return SolveReport(Pose(rot, t), len(corr), rmse, iters, "fused", trace)


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


def _sq_planes(obj: np.ndarray, cam: np.ndarray, rot: np.ndarray, t: np.ndarray):
    """(len(obj), H) squared alignment errors of H hypotheses (R, t), built in
    place one coordinate at a time, one GEMM each."""
    sq = np.zeros((len(obj), len(rot)))
    err = np.empty_like(sq)
    for c in range(3):
        np.matmul(obj, rot[:, c].T, out=err)
        err += t[:, c]
        err -= cam[:, c, None]
        err *= err
        sq += err
    return sq


def _hypotheses_3d3d(corr: CorrSet, samples: np.ndarray, subset: np.ndarray,
                     inlier_tol: float):
    """All (H, 3) minimal-sample hypotheses and their votes on ``subset``.

    A closed-form collinearity test and a batched Kabsch give every
    hypothesis. Returns (R, t, votes): (H, 3, 3), (H, 3) and each
    hypothesis's inlier count on the ``subset`` rows, -1 for a collinear or
    weightless sample.
    """
    obj, cam = corr.obj_pts[samples], corr.cam_pts[samples]
    w = corr.weights[samples]
    wsum = w.sum(axis=1)
    valid = _triple_spread_ok(obj) & (wsum > 0)
    rot, t = _kabsch(obj, cam, w / np.where(wsum > 0, wsum, 1.0)[:, None])
    sub = _sq_planes(corr.obj_pts[subset], corr.cam_pts[subset], rot, t)
    votes = np.where(valid, np.count_nonzero(np.sqrt(sub) < inlier_tol, axis=0), -1)
    return rot, t, votes


def _best_3d3d(corr: CorrSet, rot: np.ndarray, t: np.ndarray, votes: np.ndarray,
               inlier_tol: float):
    """Preemptive scoring of ``_hypotheses_3d3d`` (Nister, "Preemptive RANSAC
    for live structure and motion estimation", ICCV 2003).

    The leaders, the valid hypotheses whose vote is at least the
    ``PREEMPT_LEADERS``-th largest (ties included), are scored on all rows.
    Returns the leader with the most inliers, then the lower rmse, then the
    lower index, as (count, rmse, index, pose, inlier mask), or None when no
    hypothesis has an inlier. When the votes were counted on every row the
    winner is the one an exhaustive scoring picks.
    """
    cut = np.sort(votes)[max(len(votes) - PREEMPT_LEADERS, 0)]
    leaders = np.nonzero(votes >= max(cut, 0))[0]
    sq = _sq_planes(corr.obj_pts, corr.cam_pts, rot[leaders], t[leaders])
    inliers = np.sqrt(sq) < inlier_tol
    count = np.count_nonzero(inliers, axis=0)
    if not count.any():
        return None
    sq *= inliers
    rmse = np.sqrt(sq.sum(axis=0) / np.maximum(count, 1))
    j = int(np.lexsort((leaders, rmse, -count))[0])
    i = int(leaders[j])
    return int(count[j]), float(rmse[j]), i, Pose(rot[i], t[i]), inliers[:, j]


def _full_consensus(corr: CorrSet, rot: np.ndarray, t: np.ndarray, votes: np.ndarray,
                    n_sub: int, inlier_tol: float, limit: int) -> SolveReport | None:
    """``solve_3d3d`` of every row when a hypothesis provably holds every row.

    Only a hypothesis with the full vote ``n_sub`` can hold every row; the
    first ``limit`` of them are scored on all rows against
    ``inlier_tol * (1 - 1e-9)``, a margin far above the rounding of any
    product order, so ``_best_3d3d`` would count every row of such a one
    too. Its winner's inlier mask is then all rows, whichever hypothesis
    wins the tie, and ``ransac``'s refit on that mask is this solve.
    Returns None, and ``ransac`` scores the leaders, when no tested
    hypothesis clears the margin on every row or when this refit is
    degenerate: ``ransac`` then returns the winner's own pose, which the
    tie-break decides.
    """
    top = np.nonzero(votes == n_sub)[0][:limit]
    if not len(top):
        return None
    sq = _sq_planes(corr.obj_pts, corr.cam_pts, rot[top], t[top])
    if not (np.sqrt(sq.max(axis=0)) < inlier_tol * (1.0 - 1e-9)).any():
        return None
    try:
        return solve_3d3d(corr)
    except Degenerate:
        return None


def _no_full_vote(obj: np.ndarray, cam: np.ndarray, inlier_tol: float) -> bool:
    """Whether no rigid motion can hold every row within ``inlier_tol``.

    A motion (R, t) within tol of rows i and j maps a_i - a_j to within
    2 tol of b_i - b_j, and R keeps lengths, so ||a_i - a_j|| and
    ||b_i - b_j|| differ by less than 2 tol. Consecutive rows are compared.
    The margins, 1e-9 of tol and of the largest coordinate, are far above
    the rounding of these lengths and of any hypothesis's computed errors,
    so True means that no hypothesis counts every row as an inlier.
    """
    gap = np.abs(np.linalg.norm(np.diff(obj, axis=0), axis=1)
                 - np.linalg.norm(np.diff(cam, axis=0), axis=1))
    scale = max(np.abs(obj).max(), np.abs(cam).max())
    return bool(gap.max() > 2.0 * inlier_tol * (1.0 + 1e-9) + 1e-9 * scale)


def _consensus_3d3d(corr: CorrSet, samples: np.ndarray, subset: np.ndarray,
                    inlier_tol: float):
    """``_hypotheses_3d3d`` of ``samples``, built only as far as
    ``_full_consensus`` of all of them needs to look.

    The first ``PREEMPT_LEADERS`` hypotheses are built first. Their full-vote
    ones are the first that ``_full_consensus`` of all hypotheses tests, so
    when one of them settles full consensus its refit is that call's answer,
    and the other hypotheses are never built. Otherwise the rest are built
    into the same arrays, and their first full-vote ones are tested, up to
    ``PREEMPT_LEADERS`` tested in all. When ``_no_full_vote`` shows that no
    hypothesis can hold every ``subset`` row, all are built in one pass.
    Returns ((R, t, votes), None) or (None, the full-consensus refit).
    """
    h, n_sub = len(samples), len(subset)
    lead = min(h, PREEMPT_LEADERS)
    if _no_full_vote(corr.obj_pts[subset], corr.cam_pts[subset], inlier_tol):
        lead = 0
    hyps = np.empty((h, 3, 3)), np.empty((h, 3)), np.empty(h, dtype=np.intp)
    tested = 0
    for part in (slice(0, lead), slice(lead, h)):
        if part.start == part.stop:
            continue
        built = tuple(a[part] for a in hyps)
        for dst, src in zip(built, _hypotheses_3d3d(corr, samples[part], subset, inlier_tol)):
            dst[...] = src
        refit = _full_consensus(corr, *built, n_sub, inlier_tol, PREEMPT_LEADERS - tested)
        if refit is not None:
            return None, refit
        tested += np.count_nonzero(built[2] == n_sub)
    return hyps, None


def _best_2d3d(corr: CorrSet, samples: np.ndarray, inlier_tol: float, k: Intrinsics):
    """One Gauss-Newton hypothesis per (H, 6) sample; same return as ``_best_3d3d``."""
    best = None
    for it, sample in enumerate(samples):
        try:
            hyp = solve_2d3d(corr.subset(sample), k).pose
        except Degenerate:
            continue
        norms = np.linalg.norm(_pixel_error(hyp.apply(corr.obj_pts), corr.img_pts, k)[0],
                               axis=1)
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
    All minimal samples are drawn up front in one vectorized pass, then the
    3d3d scoring subset of min(n, ``PREEMPT_SUBSET``) correspondences; 3d3d
    hypotheses are solved in batched passes and scored preemptively. At
    full consensus (``_full_consensus``: a hypothesis holds every row and
    the set is not collinear) 3d3d skips the leaders' scoring and returns
    the refit on every row, the pose and rmse the full scoring would give;
    when the first ``PREEMPT_LEADERS`` hypotheses settle it, the rest are
    never built (``_consensus_3d3d``).
    ``max_iters`` must be >= 1 and ``inlier_tol`` a finite value > 0
    (ValueError otherwise).
    """
    if mode not in ("3d3d", "2d3d"):
        raise ValueError(f"unknown mode {mode!r}")
    check_solve_values(max_iters=max_iters, inlier_tol=inlier_tol)
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

    rng = np.random.default_rng(seed)
    samples = _draw_samples(rng, n, minimal, max_iters)
    if mode == "3d3d":
        subset = np.sort(rng.choice(n, min(n, PREEMPT_SUBSET), replace=False))
        hyps, refit = _consensus_3d3d(corr, samples, subset, inlier_tol)
        if refit is not None:
            return SolveReport(refit.pose, n, refit.rmse, max_iters, mode)
        best = _best_3d3d(corr, *hyps, inlier_tol)
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
