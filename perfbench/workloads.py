"""The benchmark's workloads: input generation, op command lines and output checks.

Every workload has a full size, which is measured, and a tiny size, which the
smoke tests run. One op is one or more ``tomobound`` CLI runs, each in a fresh
child process; :meth:`Workload.commands` gives their argument lists.

Run as a script to generate one workload's inputs into a directory (the
benchmark's set-up step, which runs in its own child process):

    python3 perfbench/workloads.py <workload> <full|tiny> <dir>
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

# The seed whose outputs are recorded in digests.json. It reaches the program
# only as placement-grid's --seed; the other workloads have fixed inputs.
DEFAULT_SEED = 1


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_grid(side: int, path: Path) -> None:
    """Edge list of a side x side grid graph, node r*side+c at row r, column c."""
    lines = []
    for r in range(side):
        for c in range(side):
            u = r * side + c
            if c + 1 < side:
                lines.append(f"{u} {u + 1}")
            if r + 1 < side:
                lines.append(f"{u} {u + side}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_fat_tree(k: int, out: Path) -> None:
    """The k-ary fat-tree with all host-pair routed paths, as ``construct fat-tree`` writes them."""
    from tomobound.construct import fat_tree, fat_tree_all_pair_paths
    from tomobound.model import save_graph, save_paths

    ft = fat_tree(k)
    save_graph(ft.graph, out / "fat_tree.edges")
    save_paths(fat_tree_all_pair_paths(ft), out / "fat_tree.paths")


class Workload:
    """One workload at one size. Subclasses set the sizes and the checks."""

    name = ""
    why = ""

    def __init__(self, tiny: bool = False):
        self.size = "tiny" if tiny else "full"

    def make_inputs(self, in_dir: Path) -> None:
        """Write the inputs; runs inside the set-up child process."""

    def commands(self, seed: int, in_dir: Path, out_dir: Path) -> list[list[str]]:
        raise NotImplementedError

    def check_outputs(self, seed: int, stdouts: list[str], out_dir: Path) -> None:
        """Raise ValueError naming the first invariant an op's outputs break."""
        raise NotImplementedError

    def digest_outputs(self, stdouts: list[bytes], out_dir: Path) -> dict:
        """Digests of the normalised stdouts and of every file the op wrote."""
        return {
            "stdout": [_digest(s) for s in stdouts],
            "files": {p.name: _digest(p.read_bytes()) for p in sorted(out_dir.iterdir())},
        }

    def digest_key(self, seed: int) -> str | None:
        """Where this op's digests are recorded, or None when none apply to ``seed``."""
        return f"{self.name}/{self.size}"

    def check(self, seed: int, stdouts: list[bytes], out_dir: Path, digests: dict) -> None:
        """Check one op: the recorded digests where they apply, then the invariants."""
        key = self.digest_key(seed)
        if key is not None and key in digests and self.digest_outputs(stdouts, out_dir) != digests[key]:
            raise ValueError(f"outputs differ from the digests recorded for {key}")
        self.check_outputs(seed, [s.decode("utf-8") for s in stdouts], out_dir)


def _expect(what: str, got: object, want: object) -> None:
    if got != want:
        raise ValueError(f"{what}: got {got!r}, expected {want!r}")


class CheckFatTree(Workload):
    name = "check-fattree"
    why = (
        "check on fat-tree k=6 all pairs (99 nodes, m=1431, 20088 violations): "
        "check_consistency and q_lower_bound take ~90% of an op"
    )

    def __init__(self, tiny: bool = False):
        super().__init__(tiny)
        self.k = 4 if tiny else 6

    def make_inputs(self, in_dir: Path) -> None:
        write_fat_tree(self.k, in_dir)

    def commands(self, seed, in_dir, out_dir):
        return [["check", str(in_dir / "fat_tree.edges"), str(in_dir / "fat_tree.paths")]]

    def check_outputs(self, seed, stdouts, out_dir):
        report = json.loads(stdouts[0])
        _expect("path_violations", report["path_violations"], [])
        _expect("phi1", report["phi1"], report["nodes"])
        _expect("consistent", report["consistent"], False)
        _expect("q_lower_bound", report["q_lower_bound"], 2)
        _expect("violations printed", len(report["consistency_violations"]), 20)


class PlacementGrid(Workload):
    name = "placement-grid"
    why = (
        "random_placement on a 60x60 grid (3600 nodes, 7080 edges), m=4,16,64, "
        "10 trials, dmax 60: 60 shortest_path_tree builds dominate an op"
    )

    def __init__(self, tiny: bool = False):
        super().__init__(tiny)
        self.side, self.m_values, self.trials = (8, (2, 4), 2) if tiny else (60, (4, 16, 64), 10)

    def make_inputs(self, in_dir: Path) -> None:
        write_grid(self.side, in_dir / "grid.edges")

    def commands(self, seed, in_dir, out_dir):
        return [[
            "experiment", "--name", "random_placement",
            "--topology", str(in_dir / "grid.edges"),
            "--m", ",".join(map(str, self.m_values)),
            "--trials", str(self.trials), "--dmax", str(self.side), "--seed", str(seed),
        ]]

    def digest_key(self, seed):
        return super().digest_key(seed) if seed == DEFAULT_SEED else None

    def check_outputs(self, seed, stdouts, out_dir):
        lines = stdouts[0].splitlines()
        _expect("header", lines[:2], [f"# experiment=random_placement seed={seed}", "m,d,scenario,metric,value"])
        rows: dict[tuple[int, str], str] = {}
        for line in lines[2:]:
            m, _d, scenario, metric, value = line.split(",")
            rows[int(m), f"{scenario}.{metric}"] = value
        _expect("m values", sorted({m for m, _ in rows}), sorted(self.m_values))
        # At both sizes every trial can seat m clients within dmax - 1 hops of
        # any server (a corner of the 60x60 grid has 1829 other nodes within
        # 59 hops, of the 8x8 grid 35 within 7), so no trial may be skipped.
        for m in self.m_values:
            _expect(f"m={m}: trials_used", int(rows[m, "random-placement.trials_used"]), self.trials)
            _expect(f"m={m}: trials_skipped", int(rows[m, "random-placement.trials_skipped"]), 0)
            # phi1_max may be 0: on the 8x8 grid two paths can leave no node 1-identifiable
            phi1_max = int(rows[m, "random-placement.phi1_max"])
            bound = int(rows[m, "single-server.bound"])
            if not 0 <= phi1_max <= bound:
                raise ValueError(f"m={m}: phi1_max {phi1_max} is outside [0, single-server bound {bound}]")


class ConstructWrite(Workload):
    name = "construct-write"
    why = (
        "construct ica --m 16 --dbar 200 (1012 nodes, 208 MiB search) then "
        "construct fat-tree --k 8 (8128 paths): the write path, ICA search dominant"
    )

    def __init__(self, tiny: bool = False):
        super().__init__(tiny)
        self.ica = ("4", "4.25", 10) if tiny else ("16", "200", 1012)
        self.k, self.fat_tree_nodes = (4, 36) if tiny else (8, 208)

    def commands(self, seed, in_dir, out_dir):
        m, dbar, _ = self.ica
        return [
            ["construct", "ica", "--m", m, "--dbar", dbar, "--out", str(out_dir)],
            ["construct", "fat-tree", "--k", str(self.k), "--out", str(out_dir)],
        ]

    def check_outputs(self, seed, stdouts, out_dir):
        for text, nodes in zip(stdouts, (self.ica[2], self.fat_tree_nodes)):
            report = json.loads(text)
            _expect("written", report["written"], "<out>")
            _expect("nodes", report["nodes"], nodes)
            _expect("phi1", report["phi1"], nodes)
        written = sorted(p.name for p in out_dir.iterdir())
        _expect("files", written, [f"{s}.{x}" for s in ("fat_tree", "ica") for x in ("edges", "json", "paths")])


WORKLOAD_TYPES = (CheckFatTree, PlacementGrid, ConstructWrite)
NAMES = tuple(w.name for w in WORKLOAD_TYPES)


def get(name: str, tiny: bool = False) -> Workload:
    for w in WORKLOAD_TYPES:
        if w.name == name:
            return w(tiny)
    raise KeyError(f"unknown workload {name!r}; have {', '.join(NAMES)}")


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def _main(argv: list[str]) -> int:
    name, size, out = argv
    workload = get(name, tiny=size == "tiny")
    in_dir = Path(out)
    in_dir.mkdir(parents=True, exist_ok=True)
    workload.make_inputs(in_dir)
    # read every input back with the package's parsers, so a bad input fails set-up
    from tomobound.model import load_graph, load_paths

    for p in sorted(in_dir.iterdir()):
        (load_graph if p.suffix == ".edges" else load_paths)(p)
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
