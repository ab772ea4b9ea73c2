"""Benchmark inputs: the polytope corpus and the task list of each workload.

Every input is built here, from code and the seed, and written as the JSON
files the CLI reads.  The program under test sees only those files.

A task is one CLI invocation.  Each workload is a fixed list of tasks that
a fresh process executes once, in order (see README.md for why).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("sweep", "oracle", "tcmix")


def _canonical(rows: list[list[int]]) -> dict:
    """Anticanonical presentation {x : <l, x> <= 1} with the given normals."""
    return {"dim": len(rows[0]), "facets": [{"normal": r, "rhs": 1} for r in rows]}


def _unit(n: int, i: int, sign: int = 1) -> list[int]:
    v = [0] * n
    v[i] = sign
    return v


def _projective(n: int) -> dict:
    return _canonical([_unit(n, i, -1) for i in range(n)] + [[1] * n])


def _p1_power(n: int) -> dict:
    return _canonical([_unit(n, i, s) for i in range(n) for s in (1, -1)])


def _blown_up_projective(n: int) -> dict:
    # blowing up the torus-fixed point where the -e_i facets meet adds the
    # sum of their normals as a new facet normal
    return _canonical([_unit(n, i, -1) for i in range(n)] + [[1] * n, [-1] * n])


# name -> (polytope JSON, anticanonical degree L^n = n! vol)
CORPUS: dict[str, tuple[dict, int]] = {
    # the five polytopes bundled in polytopes/*.json
    "p1": (_canonical([[1], [-1]]), 2),
    "p2": (_canonical([[-1, 0], [0, -1], [1, 1]]), 9),
    "bl1p2": (_canonical([[1, 0], [0, 1], [-1, -1], [1, 1]]), 8),
    "p1xp1": (_canonical([[1, 0], [-1, 0], [0, 1], [0, -1]]), 8),
    "stretched": (_canonical([[-1, 0], [0, 1], [0, -1], [2, 1], [2, -1]]), 5),
    # dims 3-4, built here
    "p3": (_projective(3), 64),
    "blp3": (_blown_up_projective(3), 56),
    "p1x3": (_p1_power(3), 48),
    "p4": (_projective(4), 625),
    "p1x4": (_p1_power(4), 384),
}

# oracle: k ladder and tolerance per polytope.  P4 stops at k = 4: one
# k = 8 task alone takes ~20 s; its tolerance is widened so k = 4 passes.
ORACLE_PLAN: dict[str, tuple[str, str]] = {
    "p1": ("8,16,32,64", "1/16"),
    "p2": ("8,16,32,64", "1/16"),
    "bl1p2": ("8,16,32,64", "1/16"),
    "p1xp1": ("8,16,32,64", "1/16"),
    "stretched": ("8,16,32,64", "1/16"),
    "p3": ("8,16", "1/16"),
    "blp3": ("4,8", "1/16"),
    "p1x3": ("8,16", "1/16"),
    "p4": ("2,4", "1/8"),
    "p1x4": ("4,8", "1/16"),
}

# tcmix: (polytope, affine pieces) of each configuration, in order.  Mostly
# dim 2 with 2-12 pieces; dim 3 only with 2 pieces, since there the cost
# grows steeply with the number of pieces.  The piece counts are fixed so
# that the amount of work varies little with the seed.
TCMIX_PLAN: tuple[tuple[str, int], ...] = tuple(
    (("p2", "bl1p2", "p1xp1", "stretched")[pieces % 4], pieces)
    for pieces in (2, 3, 4, 5, 6, 7, 8, 9, 10, 12)
) + (("p3", 2), ("p1x3", 2))


@dataclass(frozen=True)
class Task:
    id: str
    argv: tuple[str, ...]
    kind: str  # CLI command; selects the output checks
    polytope: str


def _rat(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _random_rational(rng: random.Random) -> Fraction:
    """A rational in [-1, 1] with denominator 1, 2 or 3."""
    q = rng.choice((1, 2, 3))
    return Fraction(rng.randint(-q, q), q)


def random_config(layout: random.Random, jitter: random.Random, dim: int, pieces: int) -> dict:
    """min of `pieces` tangent planes of the concave function -|x|^2/2.

    The plane touching at anchor a is x -> |a|^2/2 - <a, x>, so the
    linearity regions are the Voronoi cells of the anchors.  A third of the
    anchors sit at distance 10, where their cells miss the polytope: those
    pieces are offered to region_subdivision and pruned.  The others are
    distinct points of a 1/16-grid in [-1/4, 1/4]^dim, inside every corpus
    polytope, so each keeps a region.

    `layout` places the anchors, off the grid by a fixed amount; `jitter`
    moves each near anchor by at most 2/512 per coordinate and shuffles the
    pieces.  Taking the layout from a fixed stream and only the jitter from
    the seed keeps the shape of the subdivision, and with it the work,
    nearly the same for every seed while every exact input and output
    changes with it.  Every near coordinate is an odd multiple of 1/512, so
    the size of the rationals does not depend on the seed either.
    """
    grid = range(-4, 5)  # multiples of 1/16
    far: set[tuple[int, ...]] = set()
    while len(far) < pieces // 3:
        far.add(tuple(_unit(dim, layout.randrange(dim), layout.choice((10, -10)))))
    near: set[tuple[int, ...]] = set()
    while len(near) < pieces - len(far):
        near.add(tuple(layout.choice(grid) for _ in range(dim)))
    moved = [tuple(Fraction(32 * g + 2 * (layout.randint(-3, 3) + jitter.randint(-1, 1)) + 1, 512)
                   for g in a) for a in sorted(near)]
    affines = [{"gradient": [_rat(Fraction(-x)) for x in a],
                "constant": _rat(Fraction(sum(x * x for x in a), 2))}
               for a in moved + sorted(far)]
    jitter.shuffle(affines)
    return {"affines": affines}


def step_config(dim: int) -> dict:
    """min(0, -x_1): the step configuration of scripts/run_corpus.py."""
    return {"affines": [
        {"gradient": ["0"] * dim, "constant": "0"},
        {"gradient": ["-1"] + ["0"] * (dim - 1), "constant": "0"},
    ]}


def build_inputs(workload: str, seed: int) -> tuple[dict[str, dict], list[Task]]:
    """(relative path -> JSON document, task list) for one workload.

    Paths are relative to the input directory; task argv refer to them
    through the placeholder prefix "@/".
    """
    files: dict[str, dict] = {}
    tasks: list[Task] = []

    def poly(name: str) -> str:
        files[f"polytopes/{name}.json"] = CORPUS[name][0]
        return f"@/polytopes/{name}.json"

    if workload == "sweep":
        for name in CORPUS:
            path = poly(name)
            tasks.append(Task(f"analyze:{name}", ("analyze", path), "analyze", name))
            tasks.append(Task(f"normal-cone:{name}", ("normal-cone", "--polytope", path),
                              "normal-cone", name))
    elif workload == "oracle":
        for name, (ladder, tol) in ORACLE_PLAN.items():
            dim = CORPUS[name][0]["dim"]
            files[f"tc/step{dim}.json"] = step_config(dim)
            tasks.append(Task(f"oracle:{name}", ("oracle", poly(name), f"@/tc/step{dim}.json",
                                                 "--k-ladder", ladder, "--tol", tol),
                              "oracle", name))
    elif workload == "tcmix":
        rng = random.Random(seed)
        for i, (name, pieces) in enumerate(TCMIX_PLAN):
            dim = CORPUS[name][0]["dim"]
            cfg = f"tc/c{i:02d}.json"
            files[cfg] = random_config(random.Random(f"tcmix/{i}"), rng, dim, pieces)
            rho = ",".join(_rat(_random_rational(rng)) for _ in range(dim))
            path = poly(name)
            tasks.append(Task(f"tc-eval:c{i:02d}", ("tc-eval", path, f"@/{cfg}", f"--rho={rho}"),
                              "tc-eval", name))
            tasks.append(Task(f"reduce:c{i:02d}", ("reduce", path, f"@/{cfg}"), "reduce", name))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return files, tasks


def write_inputs(files: dict[str, dict], root: Path) -> None:
    for rel, doc in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def resolve(argv: tuple[str, ...], root: Path) -> list[str]:
    return [str(root / a[2:]) if a.startswith("@/") else a for a in argv]
