"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship warp→tile→PIP-join→cell-aggregate pipeline on
sf0.001; ``queries()``/``oracle_sql()`` expose the full operator suite from
SURVEY §2 with DuckDB oracles (see projcl_ray/queries.py for the quantization
conventions that make hash-compare robust).

Ray is initialised by the driver BEFORE this module is imported: nothing here
calls ``ray.init()``/``ray.shutdown()``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001; driver checks rows>=0."""
    from projcl_ray.pipelines import flagship

    return flagship(n_images=48)


def queries() -> dict[str, Callable[[str], Any]]:
    from projcl_ray.queries import QUERIES

    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    from projcl_ray.queries import ORACLES

    return dict(ORACLES)
