"""Registry of the Table 4 benchmark applications."""

from __future__ import annotations

from typing import Dict, List

from repro.apps.base import App
from repro.apps.dense_linalg import Gemm, InnerProduct, OuterProduct
from repro.apps.ml import Cnn, Gda, Kmeans, LogReg, Sgd
from repro.apps.sparse import Bfs, PageRank, Smdv
from repro.apps.streaming import BlackScholes, TpchQ6
from repro.errors import UnknownAppError

#: Table 4 order
ALL_APPS: List[App] = [
    InnerProduct(), OuterProduct(), BlackScholes(), TpchQ6(), Gemm(),
    Gda(), LogReg(), Sgd(), Kmeans(), Cnn(), Smdv(), PageRank(), Bfs(),
]

BY_NAME: Dict[str, App] = {app.name: app for app in ALL_APPS}

DENSE = [a for a in ALL_APPS if not a.sparse]
SPARSE_NAMES = ("smdv", "pagerank", "bfs")
for _name in SPARSE_NAMES:
    BY_NAME[_name].sparse = True


def get_app(name: str) -> App:
    """Look up a benchmark by its registry name."""
    try:
        return BY_NAME[name]
    except KeyError:
        raise UnknownAppError(
            f"unknown benchmark {name!r}; available: "
            f"{sorted(BY_NAME)}") from None
