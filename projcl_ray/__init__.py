"""projcl_ray — a Ray-Data-native geospatial engine with the capabilities of
evanmiller/ProjCL (map projections, geodesics, datum shifts, image warping)
plus spatial join, tiling and aggregation over georeferenced image tables
(one in-repo codec per image format), built on `ray.data.Dataset` /
`map_batches` over zero-copy Arrow batches. Every stage has one execution
mode: stateless tasks with per-worker cached state.

Nothing in this package calls ``ray.init()`` — sessions are owned by the
driver, bench.py, or the test fixture.
"""

__version__ = "0.1.0"
