"""The FUSE benchmark: set-up, workloads, audit, tracing and metrics."""
