"""Mercator (sphere + ellipsoid).

Semantics per `kernel/pl_project_mercator.opencl:1-91` and host prep
`src/projcl_run.c:502-518`: folded scale = scale·a; lon0 is ignored (the
reference kernel takes no λ0 argument); x0/y0 applied after scaling.
"""

from __future__ import annotations

import numpy as np

from .base import as_float, aux_to_geodetic, DEG_TO_RAD, RAD_TO_DEG, PreparedProjection, ProjParams, register


@register("mercator")
def prepare_mercator(params: ProjParams) -> PreparedProjection:
    info = params.info
    k = params.scale * info.major_axis
    x0, y0 = params.x0, params.y0

    if params.spherical:

        def forward(lon, lat):
            lam = as_float(lon) * DEG_TO_RAD
            phi = as_float(lat) * DEG_TO_RAD
            return x0 + k * lam, y0 + k * np.arcsinh(np.tan(phi))

        def inverse(x, y):
            lam = (as_float(x) - x0) / k
            yy = (as_float(y) - y0) / k
            return lam * RAD_TO_DEG, np.arctan(np.sinh(yy)) * RAD_TO_DEG

    else:
        e = info.ecc
        chi_to_phi = info.chi_to_phi

        def forward(lon, lat):
            lam = as_float(lon) * DEG_TO_RAD
            phi = as_float(lat) * DEG_TO_RAD
            y = np.arcsinh(np.tan(phi)) - e * np.arctanh(e * np.sin(phi))
            return x0 + k * lam, y0 + k * y

        def inverse(x, y):
            lam = (as_float(x) - x0) / k
            yy = (as_float(y) - y0) / k
            return lam * RAD_TO_DEG, aux_to_geodetic(np.arctan(np.sinh(yy)), chi_to_phi) * RAD_TO_DEG

    return PreparedProjection("mercator", params, forward, inverse)
