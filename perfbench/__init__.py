"""Benchmark of specsamp: workloads, output checks and span tracing."""
