"""The three workloads: seeded inputs, the operations, and their checks.

A workload hands out rounds.  Every round holds the same operations in
kind and number (fresh inputs drawn from the seed and the round index), so
the share of operations that fail is the same in every run, however many
rounds fit in it.  ghdist is always reached through module attributes at
call time, so the tracer's rebinding of those attributes is seen.
"""
from __future__ import annotations

import csv
import io
import json
import math
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], None] = lambda out: None
    failed: Callable[[object], bool] = lambda out: False


def euclidean_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniform points in [0, 2]^3 with the Euclidean metric, symmetrized."""
    pts = rng.uniform(0.0, 2.0, size=(n, 3))
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    dist = 0.5 * (dist + dist.T)
    np.fill_diagonal(dist, 0.0)
    return dist


# -- curve ------------------------------------------------------------------

class Curve:
    """report(lam) at the default grids across [0, 3*pi].

    Each round draws one lam uniformly in each of CELLS equal cells of
    [0, 3*pi]; the regime breakpoints fall on cell edges, so every regime
    gets lengths in proportion to its share.  The breakpoints themselves
    and the underflowing length 5e-324 are added to every round.
    """

    name = "curve"
    CELLS = 36
    BREAKPOINTS = (0.0, 2 * math.pi / 3, 7 * math.pi / 6, 5 * math.pi / 3,
                   2 * math.pi, 3 * math.pi)
    TINY = 5e-324          # grid step underflows: report raises, counted failed
    COARSE = math.pi / 180  # resampling step for piecewise-linear certificates

    def __init__(self, gh, seed: int, workdir: Path):
        self.gh = gh
        self.seed = seed
        grids = gh.DEFAULT_GRIDS
        self.step, self.n, self.m = grids.pl_step, grids.n_circle, grids.m_grid

    def warmup(self) -> None:
        self.gh.report(1.0)

    def close(self) -> None:
        pass

    def round(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, r, 1])
        width = 3 * math.pi / self.CELLS
        lams = [(k + rng.random()) * width for k in range(self.CELLS)]
        # ascending, like a sweep: the same order of allocation sizes in
        # every round keeps the peak resident size from depending on the seed
        lams = sorted(lams + list(self.BREAKPOINTS) + [self.TINY])
        return [self._op(float(lam)) for lam in lams]

    def _op(self, lam: float) -> Op:
        kind = "report.tiny" if lam == self.TINY else f"report.{checks.regime(lam)}"
        return Op(kind, lambda: self.gh.report(lam), lambda rep: self._check(lam, rep))

    def _check(self, lam: float, rep) -> None:
        slack = checks.grid_slack(lam, self.step, self.n, self.m)
        checks.check_report_bounds(lam, rep.lower.value, rep.upper.value, slack)
        rel = rep.upper.certificate
        if hasattr(rel, "segments"):
            checks.check_pl_certificate(lam, rep.upper.value, slack, rel.segments,
                                        self.COARSE, self.step)
        else:
            checks.check_pairs_certificate(lam, rep.upper.value, slack,
                                           rel.left.dist, rel.right.dist, rel.pairs)


# -- exact ------------------------------------------------------------------

class Exact:
    """Branch and bound and the nonlinearity degree on small spaces.

    Per round: PAIRS_PER_SHAPE seeded pairs for every shape (nx, ny) with
    4 <= nx, ny <= 5, each solved in both orientations; one seeded space of
    each size 5..7 for the exact degree and the heuristic; and, on inputs
    that do not depend on the seed, the pair of 8-point spaces on which the
    search stalls (both orientations) and both degree solvers on the first
    of them.

    Seeded pairs stop at 5 points.  At 7 and 8 the search exhausts its
    budget on some seeds and not on others, so the failed share would
    change with the seed; at 6 the node counts are heavy-tailed (over 80
    solves of 6x6 pairs, a median of 1,461 nodes and a maximum of 65,592),
    which puts a few slow solves near the 90th percentile of every run.
    """

    name = "exact"
    BUDGET = 300_000
    SHAPES = [(4, 4), (4, 5), (5, 4), (5, 5)]
    PAIRS_PER_SHAPE = 100
    DEGREE_SIZES = (5, 6, 7)
    STALL_SEEDS = (300, 400)  # stage one maps every row to column 0 first

    def __init__(self, gh, seed: int, workdir: Path):
        self.gh = gh
        self.seed = seed
        self.options = gh.SearchOptions(max_points=8, node_budget=self.BUDGET)
        self.stall = tuple(euclidean_matrix(np.random.default_rng(s), 8)
                           for s in self.STALL_SEEDS)

    def warmup(self) -> None:
        rng = np.random.default_rng(0)
        x, y = (self.gh.FiniteMetricSpace(euclidean_matrix(rng, 4)) for _ in range(2))
        self.gh.gh_exact(x, y, self.options)

    def close(self) -> None:
        pass

    def round(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, r, 2])
        ops = []
        for nx, ny in self.SHAPES:
            for _ in range(self.PAIRS_PER_SHAPE):
                ops += self._pair(f"{nx}x{ny}", euclidean_matrix(rng, nx),
                                  euclidean_matrix(rng, ny))
        for n in self.DEGREE_SIZES:
            ops += self._degree(n, euclidean_matrix(rng, n))
        ops += self._pair("stall8x8", *self.stall)
        ops += self._degree(8, self.stall[0])
        rng.shuffle(ops)
        return ops

    def _pair(self, shape: str, dx: np.ndarray, dy: np.ndarray) -> list[Op]:
        found = {}

        def op(a, b, key):
            def call():
                return self.gh.gh_exact(self.gh.FiniteMetricSpace(a),
                                        self.gh.FiniteMetricSpace(b), self.options)

            def check(res):
                checks.check_gh_exact(a, b, res.value, res.correspondence.pairs)
                found[key] = res.value
                if len(found) == 2:
                    checks.check_orientations(found["xy"], found["yx"])

            return Op(f"gh_exact.{shape}", call, check,
                      failed=lambda res: res.status != "optimal")

        return [op(dx, dy, "xy"), op(dy, dx, "yx")]

    def _degree(self, n: int, d: np.ndarray) -> list[Op]:
        found = {}

        def check(kind):
            def inner(out):
                value, witness = out
                checks.check_witness(d, value, witness.values)
                found[kind] = value
                if len(found) == 2:
                    checks.check_exact_below_upper(found["exact"], found["upper"])
            return inner

        gh = self.gh
        return [
            Op(f"degree_exact.{n}",
               lambda: gh.nonlinearity_degree_exact(gh.FiniteMetricSpace(d)),
               check("exact")),
            Op(f"degree_upper.{n}",
               lambda: gh.nonlinearity_degree_upper(gh.FiniteMetricSpace(d)),
               check("upper")),
        ]


# -- files ------------------------------------------------------------------

def run_cli(gh, argv: list[str]) -> tuple[int, str, str]:
    """One ghdist command in this process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = gh.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def read_matrix(path: Path) -> np.ndarray:
    """The distance matrix of a space file, parsed without ghdist."""
    text = path.read_text()
    if path.suffix == ".csv":
        rows = list(csv.reader(io.StringIO(text)))[1:]
        return np.array([[float(v) for v in row] for row in rows])
    return np.array(json.loads(text)["dist"], dtype=float)


def shortest_paths(n: int, edges) -> np.ndarray:
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import shortest_path

    u, v, w = zip(*edges)
    adj = coo_matrix((w, (u, v)), shape=(n, n)).tocsr()
    return shortest_path(adj, method="D", directed=False)


class Files:
    """ghdist commands through cli.main on files this workload writes.

    Three size classes, two below and one above the 192-point switch in
    validate_metric: circles of 96, 160 and 256 points, odd segment grids
    of one more point, whiskers and random weighted graphs of the same
    sizes.  Segment and whisker lengths and the graphs come from the seed.
    With three classes of nearly equal counts the median operation sits
    inside the middle class rather than on the edge between two.
    """

    name = "files"
    SIZES = {
        "S": {"circle": 96, "segment": 97, "whisker": (48, 24), "graph": 96},
        "M": {"circle": 160, "segment": 161, "whisker": (96, 32), "graph": 160},
        "L": {"circle": 256, "segment": 257, "whisker": (160, 48), "graph": 256},
    }

    def __init__(self, gh, seed: int, workdir: Path):
        import ghdist.cli  # noqa: F401  (the package does not import its CLI)
        import ghdist.serialization  # noqa: F401

        self.gh = gh
        self.seed = seed
        self.dir = workdir
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        bad = np.abs(np.subtract.outer(np.arange(6.0), np.arange(6.0)))
        bad[0, 5] = bad[5, 0] = 9.0  # d(0,5) > d(0,1) + d(1,5)
        self.bad = self.dir / "triangle.json"
        self.bad.write_text(json.dumps({"labels": [f"p{k}" for k in range(6)],
                                        "dist": bad.tolist()}))

    def warmup(self) -> None:
        run_cli(self.gh, ["make-space", "--kind", "circle", "--n-circle", "96",
                          "--out", str(self.dir / "warmup.json")])

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def path(self, name: str) -> Path:
        return self.round_dir / name

    def round(self, r: int) -> list[Op]:
        # fresh files each round: on ext4, rewriting an existing file in
        # place flushes it to disk on close, and that wait is not ghdist's
        shutil.rmtree(self.dir / f"r{r - 1}", ignore_errors=True)
        self.round_dir = self.dir / f"r{r}"
        self.round_dir.mkdir()
        rng = np.random.default_rng([self.seed, r, 3])
        expected, lam, ops = {}, {}, []
        for size, spec in self.SIZES.items():
            lam[size] = seg_lam = float(rng.uniform(1.0, 6.0))
            n = spec["circle"]
            gap = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
            expected[f"circle_{size}"] = 2 * math.pi * np.minimum(gap, n - gap) / n
            m = spec["segment"]
            t = seg_lam * np.arange(m) / (m - 1)
            expected[f"segment_{size}"] = np.abs(np.subtract.outer(t, t))
            nc, nw = spec["whisker"]
            wlam = float(rng.uniform(2 * math.pi, 3 * math.pi))
            expected[f"whisker_{size}"] = self._whisker(wlam, nc, nw)
            graph_file, expected[f"graph_{size}"] = self._graph(rng, spec["graph"], size)
            args = {
                "circle": ["--kind", "circle", "--n-circle", str(n)],
                "segment": ["--kind", "segment", "--lambda", repr(seg_lam),
                            "--m-grid", str(m)],
                "whisker": ["--kind", "whisker", "--lambda", repr(wlam),
                            "--n-circle", str(nc), "--n-whisker", str(nw)],
                "graph": ["--kind", "graph", "--graph", str(graph_file)],
            }
            for kind, extra in args.items():
                for ext in ("json", "csv"):
                    ops.append(self._make(f"{kind}_{size}", ext, extra, expected[f"{kind}_{size}"]))
        e = expected
        ops += [
            self._bounds("circle_S.json", "segment_S.csv", e, lam["S"]),
            self._bounds("circle_M.csv", "segment_M.json", e, lam["M"]),
            self._bounds("circle_L.json", "segment_L.csv", e, lam["L"]),
            self._bounds("circle_L.csv", "segment_S.json", e, lam["S"], involution=True),
            self._bounds("whisker_M.json", "graph_M.csv", e),
            self._bounds("whisker_L.csv", "graph_L.json", e),
            self._distortion("segment_S.json", "circle_S.csv", e, rng),
            self._distortion("segment_M.csv", "circle_M.json", e, rng),
            self._distortion("graph_L.json", "whisker_L.csv", e, rng),
            self._triangle(),
        ]
        return ops  # make-space first: the other commands read its files

    # -- inputs ----------------------------------------------------------

    @staticmethod
    def _whisker(lam: float, n_circle: int, n_whisker: int) -> np.ndarray:
        """Unit circle plus whiskers of length (lam - pi)/2 at angles pi and 0."""
        arc = 2 * math.pi / n_circle
        step = (lam - math.pi) / 2 / n_whisker
        edges = [(k, (k + 1) % n_circle, arc) for k in range(n_circle)]
        for anchor, first in ((n_circle // 2, n_circle), (0, n_circle + n_whisker)):
            prev = anchor
            for k in range(n_whisker):
                edges.append((prev, first + k, step))
                prev = first + k
        return shortest_paths(n_circle + 2 * n_whisker, edges)

    def _graph(self, rng, n: int, size: str):
        """A random connected graph: a random spanning tree plus 2n chords."""
        order = rng.permutation(n)
        edges = {}
        for k in range(1, n):
            u, v = int(order[k]), int(order[rng.integers(k)])
            edges[(min(u, v), max(u, v))] = float(rng.uniform(0.5, 2.0))
        for _ in range(2 * n):
            u, v = (int(a) for a in rng.choice(n, size=2, replace=False))
            edges[(min(u, v), max(u, v))] = float(rng.uniform(0.5, 2.0))
        edge_list = [(u, v, w) for (u, v), w in sorted(edges.items())]
        path = self.path(f"graph_{size}.graph.json")
        path.write_text(json.dumps({"vertices": n, "edges": [list(e) for e in edge_list]}))
        return path, shortest_paths(n, edge_list)

    # -- operations ------------------------------------------------------

    def _make(self, name: str, ext: str, extra: list[str], expected: np.ndarray) -> Op:
        out = self.path(f"{name}.{ext}")
        argv = ["make-space", *extra, "--out", str(out)]

        def check(result):
            code, _, err = result
            checks.require(code == 0, f"make-space {name}.{ext} exited {code}: {err.strip()}")
            checks.check_matrix(read_matrix(out), expected, out.name)
            text = out.read_text()
            ser = self.gh.serialization
            space = ser.load_space(out)
            again = ser.space_to_csv(space) if ext == "csv" else ser.space_to_json(space)
            checks.check_bytes(text.encode(), again.encode(), out.name)

        return Op(f"make-space.{name}.{ext}",
                  lambda: run_cli(self.gh, argv), check,
                  failed=lambda result: result[0] != 0)

    def _bounds(self, xf: str, yf: str, expected: dict, lam: float | None = None,
                involution: bool = False) -> Op:
        argv = ["bounds", "--x", str(self.path(xf)), "--y", str(self.path(yf))]
        if involution:
            argv += ["--involution", "auto"]
        dx, dy = expected[xf.split(".")[0]], expected[yf.split(".")[0]]

        def check(result):
            code, out, err = result
            checks.require(code == 0, f"bounds {xf} {yf} exited {code}: {err.strip()}")
            records = [json.loads(line) for line in out.splitlines() if line.strip()]
            by_rule = checks.check_records(records, checks.diameter(dx), checks.diameter(dy))
            if lam is not None:
                checks.check_circle_segment_records(by_rule, lam, involution)

        kind = f"bounds.{xf.split('.')[0]}.{yf.split('.')[0]}" + (".auto" if involution else "")
        return Op(kind, lambda: run_cli(self.gh, argv), check,
                  failed=lambda result: result[0] != 0)

    def _distortion(self, xf: str, yf: str, expected: dict, rng) -> Op:
        dx, dy = expected[xf.split(".")[0]], expected[yf.split(".")[0]]
        nx, ny = len(dx), len(dy)
        pairs = {(i, int(rng.integers(ny))) for i in range(nx)}
        pairs |= {(int(rng.integers(nx)), j) for j in range(ny)}
        pairs_file = self.path(f"pairs_{xf.split('.')[0]}.json")
        pairs_file.write_text(json.dumps({"pairs": sorted(pairs)}))
        argv = ["distortion", "--x", str(self.path(xf)), "--y", str(self.path(yf)),
                "--pairs", str(pairs_file)]
        want = checks.pairs_distortion(dx, dy, pairs)

        def check(result):
            code, out, err = result
            checks.require(code == 0, f"distortion exited {code}: {err.strip()}")
            got = json.loads(out)["distortion"]
            checks.require(checks.same_to_12_digits(got, want),
                           f"distortion {got!r} != recomputed {want!r}")

        return Op(f"distortion.{xf.split('.')[0]}", lambda: run_cli(self.gh, argv), check,
                  failed=lambda result: result[0] != 0)

    def _triangle(self) -> Op:
        argv = ["bounds", "--x", str(self.bad), "--y", str(self.path("circle_S.json"))]

        def check(result):
            code, _, err = result
            checks.require("triangle" in err, f"rejection does not name the triangle: {err!r}")

        return Op("bounds.triangle", lambda: run_cli(self.gh, argv), check,
                  failed=lambda result: result[0] != 1)


WORKLOADS = {cls.name: cls for cls in (Curve, Exact, Files)}
