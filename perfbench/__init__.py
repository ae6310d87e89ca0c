"""Benchmark harness for filtergen; see README.md in this directory."""
