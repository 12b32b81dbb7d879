"""Placement and routing on the Plasticine checkerboard (Section 3.6).

The fabric is a ``cols x rows`` checkerboard of PCUs and PMUs with a
switch at every grid corner (``(cols+1) x (rows+1)`` switches) shared by
the three networks.  Placement is greedy: each virtual unit takes the
free site of the right kind nearest its already-placed neighbours.
Routing is BFS over the switch grid with per-link capacity; a route's
length gives the hop latency the simulator charges.

Placement may be constrained to a rectangular :class:`Region` of the
grid (multi-tenancy: several independent designs packed onto disjoint
sub-grids).  A region-scoped fabric draws sites only from inside its
rectangle and routes only through the region's own switches, so two
fabrics over disjoint regions can never share a unit or a link.  The
kind of each site (PCU vs PMU) is a function of its *absolute* grid
position, so a region carved out of the full fabric sees exactly the
sites the full-fabric checkerboard puts there.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.arch.params import DEFAULT, PlasticineParams
from repro.errors import MappingError

Site = Tuple[int, int]


@dataclass(frozen=True)
class Region:
    """A rectangular sub-grid: ``cols x rows`` units anchored at the
    north-west corner ``(col0, row0)``."""

    col0: int
    row0: int
    cols: int
    rows: int

    def validate(self, params: PlasticineParams) -> "Region":
        """Raise :class:`MappingError` unless the rectangle lies fully
        inside the fabric."""
        if self.cols < 1 or self.rows < 1:
            raise MappingError(f"region {self} is empty")
        if (self.col0 < 0 or self.row0 < 0
                or self.col0 + self.cols > params.grid_cols
                or self.row0 + self.rows > params.grid_rows):
            raise MappingError(
                f"region {self} does not fit the "
                f"{params.grid_cols}x{params.grid_rows} fabric")
        return self

    @staticmethod
    def full(params: PlasticineParams) -> "Region":
        """The whole fabric as a region."""
        return Region(0, 0, params.grid_cols, params.grid_rows)

    def contains(self, site: Site) -> bool:
        """Is the unit site inside this rectangle?"""
        col, row = site
        return (self.col0 <= col < self.col0 + self.cols
                and self.row0 <= row < self.row0 + self.rows)

    def overlaps(self, other: "Region") -> bool:
        """Do two rectangles share any unit site?"""
        return not (self.col0 + self.cols <= other.col0
                    or other.col0 + other.cols <= self.col0
                    or self.row0 + self.rows <= other.row0
                    or other.row0 + other.rows <= self.row0)

    def sites(self) -> Iterator[Site]:
        """Row-major iteration over the unit sites inside."""
        for row in range(self.row0, self.row0 + self.rows):
            for col in range(self.col0, self.col0 + self.cols):
                yield (col, row)

    @property
    def area(self) -> int:
        """Unit sites covered."""
        return self.cols * self.rows

    def as_tuple(self) -> Tuple[int, int, int, int]:
        """Serializable form (``FabricConfig.region``)."""
        return (self.col0, self.row0, self.cols, self.rows)

    def __str__(self):
        return (f"{self.cols}x{self.rows}@"
                f"({self.col0},{self.row0})")


@lru_cache(maxsize=16)
def _checkerboard(grid_cols: int, grid_rows: int, pmu_fraction: float
                  ) -> Tuple[Dict[Site, str], Tuple[Tuple[int, ...], ...]]:
    """The one quota scan of the full grid, row-major: the kind of
    every site, and a summed-area table of the PCU sites
    (``table[r][c]`` = PCU sites with ``row < r`` and ``col < c``).

    A pure function of the three values it reads, so the result is
    memoized; both products come from the same walk and cannot drift.
    Callers must not mutate the dict (``site_kinds`` hands out copies).
    """
    kinds: Dict[Site, str] = {}
    table = [[0] * (grid_cols + 1)]
    quota = 0.0
    for row in range(grid_rows):
        above = table[-1]
        sums = [0]
        in_row = 0
        for col in range(grid_cols):
            quota += pmu_fraction
            if quota >= 1.0:
                quota -= 1.0
                kinds[(col, row)] = "pmu"
            else:
                kinds[(col, row)] = "pcu"
                in_row += 1
            sums.append(above[col + 1] + in_row)
        table.append(sums)
    return kinds, tuple(tuple(sums) for sums in table)


def site_kinds(params: PlasticineParams,
               pmu_fraction: float = 0.5) -> Dict[Site, str]:
    """Kind (``"pcu"``/``"pmu"``) of every site on the full grid, in
    row-major order (a fresh dict per call).

    The quota scan runs over the *whole* fabric regardless of any
    region, so a site's kind never depends on which region looks at it.
    """
    return dict(_checkerboard(params.grid_cols, params.grid_rows,
                              pmu_fraction)[0])


def region_capacity(params: PlasticineParams, region: Region,
                    pmu_fraction: float = 0.5) -> Tuple[int, int]:
    """``(pcu_sites, pmu_sites)`` the region contributes: four lookups
    in the full grid's summed-area table of PCU sites (the packer prices
    thousands of candidate rectangles per plan)."""
    table = _checkerboard(params.grid_cols, params.grid_rows,
                          pmu_fraction)[1]
    top, bottom = table[region.row0], table[region.row0 + region.rows]
    left, right = region.col0, region.col0 + region.cols
    pcus = bottom[right] - bottom[left] - top[right] + top[left]
    return pcus, region.area - pcus


@dataclass
class Net:
    """One routed connection between two placed entities."""

    src: str
    dst: str
    network: str = "vector"      # "vector" | "scalar" | "control"
    path: Tuple[Site, ...] = ()

    @property
    def hops(self) -> int:
        """Registered switch hops along the route."""
        return max(1, len(self.path) - 1)


class Fabric:
    """Placement state for one compilation."""

    def __init__(self, params: PlasticineParams = DEFAULT,
                 tracks_per_link: int = 4,
                 pmu_fraction: float = 0.5,
                 region: Optional[Region] = None,
                 excluded_sites: Optional[Sequence[Site]] = None):
        """``pmu_fraction`` sets the PMU:PCU mix (0.5 = the paper's 1:1
        checkerboard; 2/3 = the 2:1 ratio studied in Section 3.7).

        ``region`` restricts placement and routing to a rectangular
        sub-grid (``None`` = the whole fabric).  The checkerboard
        pattern stays anchored to the full grid, so disjoint regions of
        one chip agree on which sites are PCUs and which are PMUs.

        ``excluded_sites`` masks out individual unit sites (failed
        hardware): placement never uses them, so a design can be
        recompiled *around* broken units inside the same region.
        """
        self.params = params
        self.tracks = tracks_per_link
        self.pmu_fraction = pmu_fraction
        self.region = (region.validate(params) if region is not None
                       else Region.full(params))
        self._constrained = region is not None
        self.excluded: Set[Site] = set(
            (int(c), int(r)) for c, r in (excluded_sites or ()))
        self.free_pcus: List[Site] = []
        self.free_pmus: List[Site] = []
        kinds = _checkerboard(params.grid_cols, params.grid_rows,
                              pmu_fraction)[0]
        for site, kind in kinds.items():
            if self.region.contains(site) and site not in self.excluded:
                (self.free_pmus if kind == "pmu"
                 else self.free_pcus).append(site)
        self._initial_pcus = len(self.free_pcus)
        self._initial_pmus = len(self.free_pmus)
        self.placed: Dict[str, List[Site]] = {}
        self._link_use: Dict[Tuple[Site, Site, str], int] = {}
        self.nets: List[Net] = []

    # -- placement ---------------------------------------------------------------
    def _take_nearest(self, pool: List[Site],
                      near: Optional[Site],
                      kind: str = "unit") -> Site:
        if not pool:
            masked = (f" ({len(self.excluded)} sites excluded as "
                      f"failed)" if self.excluded else "")
            if self._constrained:
                raise MappingError(
                    f"design footprint exceeds region "
                    f"{self.region}: no free {kind} site "
                    f"left ({self._initial_pcus} PCU / "
                    f"{self._initial_pmus} PMU sites total{masked}); "
                    f"choose a larger region instead of spilling "
                    f"outside it")
            raise MappingError(f"fabric exhausted: no free {kind} "
                               f"site left{masked}")
        if near is None:
            return pool.pop(0)
        best = min(pool, key=lambda s: abs(s[0] - near[0])
                   + abs(s[1] - near[1]))
        pool.remove(best)
        return best

    def centroid(self, name: str) -> Optional[Site]:
        """Mean site of an already-placed entity."""
        sites = self.placed.get(name)
        if not sites:
            return None
        col = sum(s[0] for s in sites) // len(sites)
        row = sum(s[1] for s in sites) // len(sites)
        return (col, row)

    def place_pcus(self, name: str, count: int,
                   near: Optional[Site] = None) -> List[Site]:
        """Allocate ``count`` PCU sites for a (partitioned) unit."""
        sites = []
        anchor = near
        for _ in range(count):
            site = self._take_nearest(self.free_pcus, anchor, "PCU")
            sites.append(site)
            anchor = site
        self.placed.setdefault(name, []).extend(sites)
        return sites

    def place_pmus(self, name: str, count: int,
                   near: Optional[Site] = None) -> List[Site]:
        """Allocate ``count`` PMU sites for a logical scratchpad."""
        sites = []
        anchor = near
        for _ in range(count):
            site = self._take_nearest(self.free_pmus, anchor, "PMU")
            sites.append(site)
            anchor = site
        self.placed.setdefault(name, []).extend(sites)
        return sites

    # -- routing -----------------------------------------------------------------
    def _switch_of(self, site: Site) -> Site:
        """The switch at a unit's north-west corner."""
        return site

    def route(self, src_name: str, dst_name: str,
              network: str = "vector") -> Net:
        """BFS route between two placed entities on one network."""
        src_sites = self.placed.get(src_name)
        dst_sites = self.placed.get(dst_name)
        if not src_sites or not dst_sites:
            raise MappingError(
                f"routing {src_name!r}->{dst_name!r}: endpoint not "
                f"placed")
        start = self._switch_of(src_sites[-1])
        goals = {self._switch_of(s) for s in dst_sites}
        path = self._bfs(start, goals, network)
        if path is None:
            raise MappingError(
                f"no capacity to route {src_name!r}->{dst_name!r} on "
                f"the {network} network")
        for a, b in zip(path, path[1:]):
            self._link_use[(a, b, network)] = self._link_use.get(
                (a, b, network), 0) + 1
        net = Net(src_name, dst_name, network, tuple(path))
        self.nets.append(net)
        return net

    def _bfs(self, start: Site, goals: Set[Site],
             network: str) -> Optional[List[Site]]:
        # routes stay inside the region's own switch sub-grid, so
        # tenants on disjoint regions never contend for a link
        min_col, min_row = self.region.col0, self.region.row0
        max_col = self.region.col0 + self.region.cols
        max_row = self.region.row0 + self.region.rows
        frontier = deque([start])
        came: Dict[Site, Optional[Site]] = {start: None}
        while frontier:
            node = frontier.popleft()
            if node in goals:
                path = [node]
                while came[path[-1]] is not None:
                    path.append(came[path[-1]])
                return list(reversed(path))
            col, row = node
            for nxt in ((col + 1, row), (col - 1, row), (col, row + 1),
                        (col, row - 1)):
                if not (min_col <= nxt[0] <= max_col
                        and min_row <= nxt[1] <= max_row):
                    continue
                if nxt in came:
                    continue
                if self._link_use.get((node, nxt, network),
                                      0) >= self.tracks:
                    continue
                came[nxt] = node
                frontier.append(nxt)
        return None

    # -- reporting ---------------------------------------------------------------
    def switches_used(self) -> int:
        """Distinct switch sites any net passes through."""
        used: Set[Site] = set()
        for net in self.nets:
            used.update(net.path)
        return len(used)

    def pcus_used(self) -> int:
        """PCU sites allocated."""
        return self._initial_pcus - len(self.free_pcus)

    def pmus_used(self) -> int:
        """PMU sites allocated."""
        return self._initial_pmus - len(self.free_pmus)
