"""Workload bodies for the paper's experiments.

The three benchmark workloads of section 4:

* **append-delete** — append a (name, capability) row, delete it
  (the temporary-file name pattern);
* **tmp-file** — create a 4-byte file, register its capability, look
  the name up, read the file back, delete the name (a compiler's
  temporary between two passes);
* **lookup** — pure directory lookups (98% of production traffic per
  the paper's three-week trace).

Each is one iteration against any of the service implementations;
:func:`repro.bench.harness.drive` runs them in a closed loop and counts
what completes inside its measurement window.
"""

from repro.workloads.generators import (
    ZipfianNames,
    append_delete_once,
    lookup_once,
    mixed_once,
    tmp_file_once,
)

__all__ = [
    "ZipfianNames",
    "append_delete_once",
    "lookup_once",
    "mixed_once",
    "tmp_file_once",
]
