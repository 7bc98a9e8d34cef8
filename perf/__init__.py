"""Layered performance ledger for the CEP-on-ASP reproduction.

Five workloads measured from outside the program; see ``perf/README.md``.
Entry point: ``python3 perf/run.py`` (or ``python3 -m perf.run``).
"""
