"""The content-addressed object store, under its archive name.

The store is implemented in :mod:`repro.storage.cas`, below both the
preservation vault and the provenance repository (which keeps each
run's port values in one); this module keeps the archive import path.
"""

from repro.storage.cas import ContentAddressedStore, ObjectStat, PutItem

__all__ = ["ContentAddressedStore", "ObjectStat", "PutItem"]
