"""Benchmark of semtree: seeded workloads, output checks and span tracing."""
