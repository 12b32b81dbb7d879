"""Multi-tenancy: pack compiled artifacts onto disjoint fabric regions
(first-fit-decreasing by footprint area) and co-simulate them on one
shared chip, whose DRAM channels are the only resource tenants share."""

from repro.tenancy.packer import (PackedTenant, PackReport, pack_apps,
                                  plan_regions, repack)
from repro.tenancy.run import CoRunResult, TenantResult, co_run

__all__ = [
    "PackedTenant", "PackReport", "pack_apps", "plan_regions",
    "repack", "CoRunResult", "TenantResult", "co_run",
]
