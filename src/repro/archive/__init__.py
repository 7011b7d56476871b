"""The preservation vault — durable storage for Table I's promises.

The paper's preservation levels (:mod:`repro.core.preservation`) decide
*what* to keep; this package keeps it for the long term:

* :mod:`repro.archive.cas` — a sha256-keyed, deduplicating
  content-addressed object store on the storage engine (implemented
  in :mod:`repro.storage.cas`);
* :mod:`repro.archive.replicas` — N-way replica groups with quorum
  reads and retry/backoff repair;
* :mod:`repro.archive.fixity` — scheduled digest re-verification,
  every sweep recorded as an OPM provenance run;
* :mod:`repro.archive.migration` — era-driven format migration with
  ``wasDerivedFrom`` provenance between CAS digests;
* :mod:`repro.archive.vault` — the :class:`PreservationVault` facade
  (``ingest / verify / repair / migrate / status``), instrumented via
  :mod:`repro.telemetry` and exposed as the ``repro vault`` CLI;
* :mod:`repro.archive.erasure` — pure-python GF(256) k-of-n erasure
  coding (systematic Reed–Solomon);
* :mod:`repro.archive.merkle` — Merkle-tree manifests for O(log n)
  cross-site fixity sync;
* :mod:`repro.archive.sites` — the simulated multi-site topology
  (regions, latency, outages, bit rot, sampling scrubs);
* :mod:`repro.archive.placement` — per-level redundancy schemes and
  geo-aware, latency-weighted placement;
* :mod:`repro.archive.federation` — the :class:`FederatedVault`
  facade tying all of the above together (``store / fetch / sync /
  audit / rebuild``), with every sync, audit and rebuild persisted as
  an OPM provenance run.
"""

from repro.archive.clock import TickClock
from repro.archive.erasure import Shard, encode, overhead, reconstruct, shard_size
from repro.archive.federation import (
    AuditSampleReport,
    FederatedObject,
    FederatedVault,
    Placement,
    RebuildReport,
    SyncReport,
)
from repro.archive.fixity import AuditReport, FixityAuditor
from repro.archive.merkle import ManifestDiff, MerkleManifest
from repro.archive.migration import (
    FormatMigrationPlanner,
    MigrationPlan,
    MigrationReport,
    MigrationStep,
    at_risk_formats,
)
from repro.archive.placement import (
    PlacementPolicy,
    RedundancyScheme,
    erasure_durability,
    replica_durability,
)
from repro.archive.replicas import RepairAction, ReplicaGroup, ReplicaStatus
from repro.archive.sites import ScrubFinding, Site, SiteTopology
from repro.archive.vault import IngestReport, PreservationVault, RepairReport
from repro.storage.cas import ContentAddressedStore, ObjectStat

__all__ = [
    "AuditReport",
    "AuditSampleReport",
    "ContentAddressedStore",
    "FederatedObject",
    "FederatedVault",
    "FixityAuditor",
    "FormatMigrationPlanner",
    "IngestReport",
    "ManifestDiff",
    "MerkleManifest",
    "MigrationPlan",
    "MigrationReport",
    "MigrationStep",
    "ObjectStat",
    "Placement",
    "PlacementPolicy",
    "PreservationVault",
    "RebuildReport",
    "RedundancyScheme",
    "RepairAction",
    "RepairReport",
    "ReplicaGroup",
    "ReplicaStatus",
    "ScrubFinding",
    "Shard",
    "Site",
    "SiteTopology",
    "SyncReport",
    "TickClock",
    "at_risk_formats",
    "encode",
    "erasure_durability",
    "overhead",
    "reconstruct",
    "replica_durability",
    "shard_size",
]
