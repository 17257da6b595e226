"""American Polyconic (sphere + ellipsoid).

Semantics per `kernel/pl_project_american_polyconic.opencl:20-219` and host prep
`src/projcl_run.c:369-395` (ml0 from the meridional series).  The inverse is a
2×2 Newton-Raphson with the kernel's full Jacobian, run to float64 tolerance
(the reference runs 6 fixed iterations spherical / 8 ellipsoidal).

Note: the reference kernels are singular at φ=0 (cotφ, undefined output); we
substitute the exact mathematical limit (x→λ, y→−ml0) there instead — a strict
improvement, since the reference's own test corpus avoids exact φ=0.
"""

from __future__ import annotations

import math

import numpy as np

from .base import (
    as_float,
    DEG_TO_RAD,
    RAD_TO_DEG,
    PreparedProjection,
    ProjParams,
    dtype_tol,
    mlfn,
    mlfn1,
    mod_pi,
    newton_rows,
    register,
)


@register("american_polyconic")
def prepare_polyconic(params: ProjParams) -> PreparedProjection:
    info = params.info
    phi0 = params.lat0 * DEG_TO_RAD
    lam0 = params.lon0 * DEG_TO_RAD
    x0, y0 = params.x0, params.y0
    k = params.scale * info.major_axis
    n_iter = 24

    if params.spherical:

        def forward(lon, lat):
            lam = as_float(lon) * DEG_TO_RAD - lam0
            phi = as_float(lat) * DEG_TO_RAD
            sinp, cosp = np.sin(phi), np.cos(phi)
            eq = np.abs(sinp) < 1e-12
            with np.errstate(divide="ignore", invalid="ignore"):
                cot = cosp / sinp
                sinE = np.sin(lam * sinp)
                x = cot * sinE
                # half-angle identity for (1 − cos E): cot·sinE·tan(E/2)
                y = phi - phi0 + cot * sinE * np.tan(0.5 * lam * sinp)
            x = np.where(eq, lam, x)  # equatorial limit
            y = np.where(eq, phi - phi0, y)
            return x0 + k * x, y0 + k * y

        def inverse(x, y):
            xx = (as_float(x) - x0) / k
            yy = (as_float(y) - y0) / k
            phi = yy + phi0
            # keep the Newton iteration off the φ=0 singularity (limit is exact)
            phi = np.where(np.abs(phi) < 1e-9, 1e-9, phi)
            sinp, cosp = np.sin(phi), np.cos(phi)
            lam = np.arcsin(np.clip(xx * sinp / cosp, -1.0, 1.0)) / sinp

            def step(phi, lam, xx, yy):
                sinp, cosp = np.sin(phi), np.cos(phi)
                sinp = np.where(np.abs(sinp) < 1e-12, np.copysign(1e-12, sinp + 1e-300), sinp)
                sinLS, cosLS = np.sin(lam * sinp), np.cos(lam * sinp)
                cosLS1 = sinLS * np.tan(0.5 * lam * sinp)
                c = lam * cosp * cosp / sinp
                f1 = cosp * sinLS / sinp - xx
                f2 = phi - phi0 + cosp * cosLS1 / sinp - yy
                df1p = c * cosLS - sinLS / (sinp * sinp)
                df2p = 1.0 + c * sinLS - cosLS1 / (sinp * sinp)
                df1l = cosp * cosLS
                df2l = cosp * sinLS
                inv_det = 1.0 / (df1p * df2l - df2p * df1l)
                return (f1 * df2l - f2 * df1l) * inv_det, (f2 * df1p - f1 * df2p) * inv_det

            phi, lam = newton_rows(step, (phi, lam), (xx, yy), n_iter, dtype_tol(xx, 1e-14, 1e-6))
            return mod_pi(lam + lam0) * RAD_TO_DEG, phi * RAD_TO_DEG

    else:
        es = info.ecc2
        en = info.en
        ml0 = mlfn(phi0, math.sin(phi0), math.cos(phi0), en)

        def forward(lon, lat):
            lam = as_float(lon) * DEG_TO_RAD - lam0
            phi = as_float(lat) * DEG_TO_RAD
            sinp, cosp = np.sin(phi), np.cos(phi)
            eq = np.abs(sinp) < 1e-12
            with np.errstate(divide="ignore", invalid="ignore"):
                ms = cosp / sinp / np.sqrt(1.0 - es * sinp * sinp)
                sinE = np.sin(lam * sinp)
                x = ms * sinE
                y = (mlfn(phi, sinp, cosp, en) - ml0) + ms * sinE * np.tan(0.5 * lam * sinp)
            x = np.where(eq, lam, x)  # equatorial limit
            y = np.where(eq, mlfn(phi, sinp, cosp, en) - ml0, y)
            return x0 + k * x, y0 + k * y

        def inverse(x, y):
            xx = (as_float(x) - x0) / k
            yy = (as_float(y) - y0) / k
            phi = yy + phi0
            # one Newton step on the meridional series to fix the initial guess
            phi = phi - (mlfn(phi, np.sin(phi), np.cos(phi), en) - (yy + ml0)) / mlfn1(
                phi, np.sin(phi), np.cos(phi), en
            )
            phi = np.where(np.abs(phi) < 1e-9, 1e-9, phi)
            sinp0, cosp0 = np.sin(phi), np.cos(phi)
            mlp0 = np.sqrt(1.0 - es * sinp0 * sinp0)
            lam = np.arcsin(np.clip(xx * sinp0 / cosp0 * mlp0, -1.0, 1.0)) / sinp0

            def step(phi, lam, xx, yy):
                sinp, cosp = np.sin(phi), np.cos(phi)
                sinp = np.where(np.abs(sinp) < 1e-12, np.copysign(1e-12, sinp + 1e-300), sinp)
                mlp = np.sqrt(1.0 - es * sinp * sinp)
                tanp = sinp / cosp
                sinLS, cosLS = np.sin(lam * sinp), np.cos(lam * sinp)
                sinL2, cosL2 = np.sin(0.5 * lam * sinp), np.cos(0.5 * lam * sinp)
                f1 = sinLS / tanp / mlp - xx
                f2 = mlfn(phi, sinp, cosp, en) - ml0 + xx * sinL2 / cosL2 - yy
                df1l = cosp / mlp * cosLS
                df2l = cosp / mlp * sinLS
                c1 = es * (1.0 + cosp * cosp) / (mlp * (1.0 - es * sinp * sinp))
                c2 = 1.0 / (sinp * sinp * mlp * (1.0 - es * sinp * sinp))
                df1p = lam * cosp / tanp / mlp * cosLS + sinLS * (c1 - c2)
                df2p = mlfn1(phi, sinp, cosp, en) + 0.5 * lam * xx * cosp / (cosL2 * cosL2)
                inv_det = 1.0 / (df1p * df2l - df2p * df1l)
                return (f1 * df2l - f2 * df1l) * inv_det, (f2 * df1p - f1 * df2p) * inv_det

            phi, lam = newton_rows(step, (phi, lam), (xx, yy), n_iter, dtype_tol(xx, 1e-14, 1e-6))
            return mod_pi(lam + lam0) * RAD_TO_DEG, phi * RAD_TO_DEG

    return PreparedProjection("american_polyconic", params, forward, inverse)
