"""The repository's benchmark: four named workloads, ten end-to-end
metrics and an outside-in per-layer trace (see ``bench/README.md``).

Nothing here is imported by ``src/``; the layers are measured from
outside, by timing calls into their public functions.
"""
