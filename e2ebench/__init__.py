"""End-to-end benchmark of the LION service; run ``python3 e2ebench/run.py``."""
