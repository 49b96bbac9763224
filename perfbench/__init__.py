"""Seeded end-to-end benchmark of the rollup engine (see ``run.py``)."""
