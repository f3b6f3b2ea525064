"""One workload run in a fresh interpreter; run.py starts it.

Run from the repository root with ``PYTHONPATH=src``. The process first
times ``import symplevy.cli`` plus building the CLI's argument parser,
before it imports anything else but the speed gauge; that is the run's
set-up cost, in CPU seconds at reference speed (see refspeed.py). With
``--setup-only`` it prints ``{"setup_s": ...}`` and exits; otherwise
``workloads.main`` runs the workload.
"""

import sys

if __name__ == "__main__":
    import refspeed

    with refspeed.Gauge() as gauge:
        import symplevy.cli

        symplevy.cli._build_parser()

    import workloads

    sys.exit(workloads.main(gauge.reference_s))
