"""Host wall-clock benchmark: SQL text in, rows out, with a per-layer
breakdown from a separately traced run. See ``perfbench/README.md``."""
