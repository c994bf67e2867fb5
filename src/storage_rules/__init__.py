"""Storage-economics rules of thumb and a trace-driven buffer-pool simulator.

Break-even caching intervals for RAM vs disk/tape, sequential-access
rules, two-pass sort memory planning, optimal index page sizing,
Kaps/Maps/Scan device metrics, and an N-second-lifetime buffer-pool
simulator, with a CLI that reproduces the reference tables and figure
grids as text or CSV.
"""
