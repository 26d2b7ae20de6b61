"""``python -m solvgeom``: the command line interface of solvgeom.cli."""

from .cli import run

run()
