"""Bundled example instances.

Each instance ships as an edge-list file plus a path file in the formats of
:mod:`tomobound.model`. Available names:

- ``consistent10``: 10 nodes, 4 consistent paths, every node identifiable.
- ``inconsistent10``: 10 nodes, 4 paths meeting the arbitrary-routing bound
  but violating routing consistency between two shared nodes.
- ``half_grid_plus38``: the 8-path half-grid extended with two crossing-3
  nodes; 38 nodes, average length 8.75, consistent, meets the
  consistent-routing bound exactly.
- ``seven_path39``: 7 consistent paths (six of length 12, one of 10) over 39
  nodes, all identifiable; meets the consistent-routing bound exactly.
- ``isp108`` (edge list only): synthetic 108-node / 141-link ISP-like
  topology with 78 degree-1 access nodes, a stand-in for a measured ISP map
  of the same size.

``fat_tree_k4_cover.json`` lists 16 host-address pairs of the 4-ary fat-tree
whose routed paths identify all 36 nodes.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..model import Graph, PathSet, parse_edge_list, parse_path_file

INSTANCES = ("consistent10", "inconsistent10", "half_grid_plus38", "seven_path39")
GRAPHS_ONLY = ("isp108",)


def _read(name: str) -> str:
    return Path(__file__).with_name(name).read_text(encoding="utf-8")


def load_graph(name: str) -> Graph:
    return parse_edge_list(_read(f"{name}.edges"), source=f"{name}.edges")


def load_instance(name: str) -> tuple[Graph, PathSet]:
    if name not in INSTANCES:
        raise KeyError(f"unknown bundled instance {name!r}; have {INSTANCES}")
    return load_graph(name), parse_path_file(_read(f"{name}.paths"), source=f"{name}.paths")


def fat_tree_cover_pairs() -> tuple[int, list[tuple[str, str]]]:
    """(k, host-address pairs) of the bundled all-node-identifying selection."""
    data = json.loads(_read("fat_tree_k4_cover.json"))
    return data["k"], [tuple(p) for p in data["pairs"]]
