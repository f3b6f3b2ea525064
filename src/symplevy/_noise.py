"""Run code with its floating-point events and warnings recorded instead of issued."""

import warnings

import numpy as np


class Recording:
    """Context manager whose ``as`` target is a list that collects noise instead of issuing it.

    Noise is every numpy floating-point event the caller's error state
    does not ignore (an event it would raise is recorded too) and every
    Python warning. Unlike ``warnings.catch_warnings`` this keeps the
    filters' version, so the once-per-location registries stay valid for
    the caller.
    """

    def __enter__(self):
        noise = []
        reported = {kind: "call" for kind, mode in np.geterr().items() if mode != "ignore"}
        self._errstate = np.errstate(call=lambda kind, flag: noise.append(kind), **reported)
        self._errstate.__enter__()
        self._warnings = warnings.filters, warnings.showwarning
        warnings.filters = [("always", None, Warning, None, 0)]
        warnings.showwarning = lambda *args: noise.append(args)
        return noise

    def __exit__(self, *exc):
        warnings.filters, warnings.showwarning = self._warnings
        self._errstate.__exit__(*exc)
