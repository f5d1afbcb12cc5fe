"""Seeded input generators for the benchmark workloads.

Everything here is written against the JSON schema of the command line
(see the top-level README) and uses only ``random.Random(seed)``, so the
inputs do not change when the package's own test generators do.  The
make-up of each list is fixed; the seed only chooses labels, positions,
signs and orders inside each fixed cell, so every seed gives a list of
about the same cost.
"""

from __future__ import annotations

import itertools
import json
import random
from typing import Dict, List, Optional, Tuple

# Labels of the supercuspidal pool: (id, dim, self-dual type, det generator).
RHOS = {
    "p": {"id": "p", "dim": 1, "type": "orthogonal", "det": "u"},
    "q": {"id": "q", "dim": 2, "type": "symplectic"},
    "s": {"id": "s", "dim": 3, "type": "orthogonal", "det": "v"},
}

# Every cli_queries round issues each command this many times per block
# count 1..6.
CLI_REPEATS = 8
CLI_COMMANDS = ("classify", "diag-restriction", "signs", "endoscopy",
                "packet", "cuspidal-support", "elementary-trace", "expand")
MAX_BLOCKS = 6

# The two malformed inputs kept in every cli_queries round.  They do not
# depend on the seed: each raises a bare ValueError out of cli.main today
# instead of returning a DomainError object.
MALFORMED = (
    ("zero_a", ["classify", json.dumps(
        {"group": {"kind": "Sp", "n": 1},
         "blocks": [{"rho": RHOS["p"], "a": 0, "b": 3, "mult": 1,
                     "zeta": "-"}]}, sort_keys=True)]),
    ("bad_zeta", ["classify", json.dumps(
        {"group": {"kind": "Sp", "n": 1},
         "blocks": [{"rho": RHOS["p"], "a": 3, "b": 1, "mult": 1,
                     "zeta": "-"}]}, sort_keys=True)]),
)


# -- block and group bookkeeping (mirrors the documented schema) -----------

def _grid(rho_id: str, orthogonal_side: bool) -> int:
    """Parity (0 integral, 1 half-integral) of A and B for this label."""
    # a + b = 2A + 2, so A integral <=> a + b even
    want_even = (RHOS[rho_id]["type"] == "orthogonal") == orthogonal_side
    return 0 if want_even else 1


def block_from_ab(rho_id: str, twice_a: int, twice_b: int,
                  zeta: int) -> Dict:
    """A block given by doubled (A, B) and zeta, as a JSON object."""
    a = (twice_a + twice_b) // 2 + 1
    b = (twice_a - twice_b) // 2 + 1
    if zeta < 0:
        a, b = b, a
    return {"rho": RHOS[rho_id], "a": a, "b": b, "mult": 1,
            "zeta": "+" if zeta > 0 else "-"}


def _total(blocks: List[Dict]) -> int:
    return sum(blk["a"] * blk["b"] * blk["rho"]["dim"] * blk["mult"]
               for blk in blocks)


def group_for(blocks: List[Dict], orthogonal_side: bool,
              eta: str = "") -> Dict:
    """The quasisplit group whose dual carries these same-type blocks."""
    total = _total(blocks)
    if not orthogonal_side:
        return {"kind": "SOodd", "n": total // 2}
    if total % 2:
        return {"kind": "Sp", "n": (total - 1) // 2}
    return {"kind": "SOeven", "n": total // 2, "eta": eta}


def dims(param: Dict) -> int:
    """N: the total dimension of the blocks."""
    return _total(param["blocks"])


def instance_count(param: Dict) -> int:
    return sum(blk["mult"] for blk in param["blocks"])


def canonical_blocks(param: Dict) -> List[Dict]:
    """Blocks in the package's canonical order (label id, a, b, zeta)."""
    return sorted(param["blocks"], key=lambda blk: (
        blk["rho"]["id"], blk["rho"]["dim"], blk["rho"]["type"],
        blk["a"], blk["b"], blk["zeta"]))


def gap(blk: Dict) -> int:
    """A - B for a block: min(a, b) - 1."""
    return min(blk["a"], blk["b"]) - 1


# -- parameter families ----------------------------------------------------

def _labels(rng: random.Random, k: int) -> List[str]:
    pool = ["p", "q"] if k < 3 else ["p", "q", "s"]
    used = rng.sample(pool, rng.randint(1, min(2, len(pool))))
    return [rng.choice(used) for _ in range(k)]


def ddr_parameter(rng: random.Random, k: int, widths: Tuple[int, ...],
                  orthogonal_side: Optional[bool] = None) -> Dict:
    """k multiplicity-free blocks with disjoint [B, A] per label.

    widths[i] is A - B of block i (in whole steps), so the cost of the
    packet and recursion commands is set by the caller, not the seed.
    """
    if orthogonal_side is None:
        orthogonal_side = rng.random() < 0.7
    labels = _labels(rng, k)
    cursor: Dict[str, int] = {}
    blocks = []
    for rho_id, width in zip(labels, widths):
        base = _grid(rho_id, orthogonal_side)
        tb = cursor.get(rho_id, base + 2 * rng.randint(0, 1))
        ta = tb + 2 * width
        cursor[rho_id] = ta + 2 + 2 * rng.randint(0, 1)
        blocks.append(block_from_ab(rho_id, ta, tb, rng.choice((1, -1))))
    rng.shuffle(blocks)
    eta = "w" if rng.random() < 0.3 else ""
    return {"group": group_for(blocks, orthogonal_side, eta),
            "blocks": blocks}


def discrete_parameter(rng: random.Random, k: int) -> Dict:
    """k tempered multiplicity-free blocks (rho, a, 1) of one type."""
    orthogonal_side = rng.random() < 0.7
    labels = _labels(rng, k)
    used: Dict[str, set] = {}
    blocks = []
    for rho_id in labels:
        parity = 1 - _grid(rho_id, orthogonal_side)  # a odd <=> A integral
        choices = [a for a in range(1, 2 * MAX_BLOCKS + 3)
                   if a % 2 == parity and a not in used.get(rho_id, ())]
        a = rng.choice(choices[:MAX_BLOCKS + 1])
        used.setdefault(rho_id, set()).add(a)
        blocks.append({"rho": RHOS[rho_id], "a": a, "b": 1, "mult": 1,
                       "zeta": "+"})
    rng.shuffle(blocks)
    return {"group": group_for(blocks, orthogonal_side), "blocks": blocks}


def _elementary_block(rng: random.Random, rho_id: str, alpha: int) -> Dict:
    """(rho, alpha, 1) with delta +, or (rho, 1, alpha) with delta -."""
    if alpha > 1 and rng.random() < 0.5:
        return {"rho": RHOS[rho_id], "a": 1, "b": alpha, "mult": 1,
                "zeta": "-"}
    return {"rho": RHOS[rho_id], "a": alpha, "b": 1, "mult": 1, "zeta": "+"}


def elementary_parameter(rng: random.Random, k: int) -> Dict:
    """k elementary blocks (rho, alpha, delta), alphas distinct per label."""
    param = discrete_parameter(rng, k)
    param["blocks"] = [_elementary_block(rng, blk["rho"]["id"], blk["a"])
                       for blk in param["blocks"]]
    return param


def _sign_string(signs: List[str]) -> str:
    text = "".join(signs)
    # argparse reads the value "--" of --eps=-- / --s=-- as an empty
    # list, and cli.main then fails with an AttributeError; that input
    # is left out of the workloads (see CHANGES.md).
    return "++" if text == "--" else text


def random_signs(rng: random.Random, n: int) -> str:
    return _sign_string([rng.choice("+-") for _ in range(n)])


def even_minus(rng: random.Random, n: int) -> str:
    """A sign string with an even number of minus signs (product one)."""
    signs = [rng.choice("+-") for _ in range(n)]
    if signs.count("-") % 2:
        i = rng.randrange(n)
        signs[i] = "+" if signs[i] == "-" else "-"
    return _sign_string(signs)


# A - B of the blocks of a k-block DDR query: a fixed multiset per k (at
# least one compound block, for expand); the seed only places them.
WIDTHS = (1, 2, 0, 1, 0, 2)


def _widths(rng: random.Random, k: int) -> Tuple[int, ...]:
    widths = list(WIDTHS[:k])
    rng.shuffle(widths)
    return tuple(widths)


def cli_query(rng: random.Random, command: str,
              k: int) -> Tuple[List[str], Dict]:
    """One query: argv and the parameter it was built from."""
    if command == "cuspidal-support":
        param = discrete_parameter(rng, k)
        argv = [command, "", "--eps=" + even_minus(rng, k)]
    elif command == "elementary-trace":
        param = elementary_parameter(rng, k)
        argv = [command, "", "--eps=" + even_minus(rng, k)]
    else:
        param = ddr_parameter(rng, k, _widths(rng, k))
        n = instance_count(param)
        if command == "endoscopy":
            argv = [command, "", "--s=" + random_signs(rng, n)]
        elif command == "packet":
            argv = [command, "", "--eps=" + random_signs(rng, n)]
        elif command == "expand":
            canon = canonical_blocks(param)
            compound = [i for i, blk in enumerate(canon) if gap(blk) > 0]
            argv = [command, "", "--block", str(rng.choice(compound))]
            if rng.random() < 0.5:
                argv.append("--eps=" + even_minus(rng, n))
        else:
            argv = [command, ""]
    argv[1] = json.dumps(param, sort_keys=True)
    return argv, param


def cli_stream(seed: int) -> List[Tuple[str, List[str], Optional[Dict]]]:
    """One round of cli_queries: (label, argv, parameter or None).

    Every command appears CLI_REPEATS times for each block count 1..6,
    plus the two fixed malformed inputs; the seed shuffles the order.
    """
    rng = random.Random(seed)
    out = []
    for command, k, rep in itertools.product(
            CLI_COMMANDS, range(1, MAX_BLOCKS + 1), range(CLI_REPEATS)):
        argv, param = cli_query(rng, command, k)
        out.append((f"{command}/{k}", argv, param))
    for label, argv in MALFORMED:
        out.append(("malformed/" + label, argv, None))
    rng.shuffle(out)
    return out


# -- packet_census ---------------------------------------------------------

# (block widths A - B) of the census parameters; the seed picks labels,
# bases and signs.  Each shape, and each entry of FLIP_ALPHAS and
# BOOKKEEPING_SHAPES below, gets CENSUS_COPIES seeded parameters.
CENSUS_SHAPES = ((3,), (5,), (1, 2), (2, 3), (0, 1, 2), (1, 1, 2),
                 (0, 1, 1, 1))
CENSUS_COPIES = 4
# Sizes alpha of the one-label elementary parameters of the flip checks.
FLIP_ALPHAS = ((1, 3, 5), (2, 4, 6), (1, 3, 5, 7), (2, 4, 6, 8),
               (1, 3, 5, 7, 9))
# Block widths of the DDR parameters of the bookkeeping checks.  They sit
# on the symplectic side (groups SO(2n+1)), where every centralizer
# element passes the determinant condition, so each has 2^n elements s
# whatever the seed.
BOOKKEEPING_SHAPES = ((2,), (1, 0), (2, 1), (1, 0, 1), (1, 1, 0, 0))


def elementary_with_sizes(rng: random.Random,
                          alphas: Tuple[int, ...]) -> Dict:
    """One label carrying the given sizes alpha, with seeded deltas."""
    odd = alphas[0] % 2 == 1
    # (label, orthogonal side) pairs for which blocks (rho, alpha, 1) of
    # this alpha parity are of the dual group's type
    options = [("p", odd), ("s", odd), ("q", not odd)]
    rho_id, orthogonal_side = rng.choice(options)
    blocks = [_elementary_block(rng, rho_id, alpha) for alpha in alphas]
    rng.shuffle(blocks)
    return {"group": group_for(blocks, orthogonal_side), "blocks": blocks}


def census_params(seed: int) -> Dict[str, List[Dict]]:
    rng = random.Random(seed)
    packets = [ddr_parameter(rng, len(shape), shape)
               for shape in CENSUS_SHAPES for _ in range(CENSUS_COPIES)]
    flips = [elementary_with_sizes(rng, alphas)
             for alphas in FLIP_ALPHAS for _ in range(CENSUS_COPIES)]
    books = [ddr_parameter(rng, len(shape), shape, orthogonal_side=False)
             for shape in BOOKKEEPING_SHAPES for _ in range(CENSUS_COPIES)]
    return {"packets": packets, "flips": flips, "books": books,
            "order_seed": rng.randrange(2 ** 31)}
