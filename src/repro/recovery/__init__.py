"""Automated remediation: the detect-isolate-recover loop.

:mod:`repro.obs.monitor` detects (hysteresis alert signals);
:class:`RemediationController` recovers — restarting crashed replicas
in place and scrubbing a disk that reports corruption.
See :mod:`repro.recovery.controller`.
"""

from repro.recovery.controller import RemediationController

__all__ = ["RemediationController"]
