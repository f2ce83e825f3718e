"""Benchmark of graphmend's correction loop; see run.py."""
