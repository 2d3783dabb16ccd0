"""Real-model serving benchmark for the streaming intrusion detector.

``python3 perfbench/run.py`` trains (or loads) the bench-world model,
serves it through ``DetectionServer.from_config`` and drives four seeded
traffic mixes against it; see ``perfbench/README.md``.
"""
