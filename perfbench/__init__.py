"""Benchmark harness for spinorforge; see README.md."""
