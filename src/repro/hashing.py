"""SHA-256 without OpenSSL.

Importing :mod:`hashlib` loads OpenSSL's libcrypto (through
``_hashlib``): about 3.3 MB more resident memory in every process that
imports this package. CPython also ships its own SHA-256 as a built-in
module — ``_sha256`` up to 3.11, ``_sha2`` from 3.12 — with the same
digests; the standard library's :mod:`random` takes ``sha512`` that way.
The choice is made here once, and everything in the package that hashes
(stream seeds, port names, check fields, registry digests) imports
:func:`sha256` from this module.
"""

from __future__ import annotations

try:
    from _sha2 import sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # Python <= 3.11
    except ImportError:  # pragma: no cover - a build without either
        from hashlib import sha256

__all__ = ["sha256"]
