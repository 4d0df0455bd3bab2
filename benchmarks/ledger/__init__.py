"""The perf ledger (see README.md); ``run.py`` is the entry point."""
