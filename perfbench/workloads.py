"""Workload definitions: the jobs of each workload and their seeded inputs.

Every workload is a list of *jobs*.  A job runs in a fresh interpreter (see
``worker.py``), the way a shell runs the ``arrowquiver`` command line: the
package keeps ``lru_cache`` tables of colorings and constraint systems, so
repeating work inside one process would measure warm caches that no user
sees.  A job loads its inputs, then runs its items one after another.

Only the standard library is imported here, so the runner can build job
lists and input digests without importing the package under test.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference")

# fixture name -> (biquandle file, tensor file, endomorphism file, invariant)
# An endomorphism file of None means every endomorphism (``--full-endos``).
FIXTURES = {
    "flip2_z16": ("biquandle_flip2.txt", "weight_flip2_z16.txt", None, "indeg"),
    "cyc3_z8": ("biquandle_cyc3.txt", "weight_cyc3_z8.txt", "endos_cyc3.txt", "indeg"),
    "cyc3_z3": ("biquandle_cyc3.txt", "weight_cyc3_z3.txt", "endos_cyc3.txt", "twovar"),
    "quad4_z6": ("biquandle_quad4.txt", "weight_quad4_z6.txt", "endos_quad4.txt", "qloop"),
    "shift4_z4": ("biquandle_shift4.txt", "weight_shift4_z4.txt", "endos_shift4.txt", "qloop"),
}

# frozen full-table rows in the test suite, keyed by fixture
TEST_ROWS = {
    "cyc3_z8": "tests/data/rows_indeg_z8.tsv",
    "cyc3_z3": "tests/data/rows_twovar_z3.tsv",
    "shift4_z4": "tests/data/rows_qloop_z4.tsv",
}

# weights: one job per biquandle, so that work shared between the two cyc3
# moduli inside one process shows
WEIGHT_JOBS = {
    "flip2": ("flip2_z16",),
    "cyc3": ("cyc3_z8", "cyc3_z3"),
    "quad4": ("quad4_z6",),
    "shift4": ("shift4_z4",),
}
FIRST_K = 64  # tensors enumerated per (biquandle, m)
# the ``weights check`` defaults; the trial seed stays fixed because trial
# cost varies a lot between seeds and would swamp the 5-item median
VALIDITY_TRIALS = 40
VALIDITY_SEED = 0

# scramble: every (chords, moves) stratum once per repetition, so the mix of
# trial sizes is the same for every seed
SCRAMBLE_CHORDS = range(0, 7)
SCRAMBLE_MOVES = range(1, 9)
SCRAMBLE_REPS = 3

# large: a fixed pool of random diagrams.  Coloring search cost on random
# diagrams is heavy-tailed (at 10 crossings one diagram can cost 50x the
# median), so a pool drawn from --seed would change the run's cost by tens of
# percent from seed to seed.  The seed instead renames the chords and orders
# the items; the pool itself stays fixed and its counts are recorded.
LARGE_FIXTURES = ("cyc3_z8", "quad4_z6", "shift4_z4")
LARGE_POOL_SEED = 20260815
LARGE_POOL = ((8, 24), (9, 12), (10, 8))  # (crossings, diagrams)

ITEM_TIMEOUT_S = 30.0

JOBS = {
    "table": FIXTURES,
    "weights": WEIGHT_JOBS,
    "scramble": FIXTURES,
    "large": LARGE_FIXTURES,
}


def rng_for(seed: int, *parts) -> random.Random:
    """A generator keyed by the seed and a job-specific label."""
    return random.Random(":".join(str(p) for p in (seed, *parts)))


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def random_word(rng: random.Random, chords: int) -> list[tuple[int, str, int]]:
    """A random signed Gauss word as (chord, passage, sign) triples."""
    word = []
    for c in range(1, chords + 1):
        s = rng.choice((1, -1))
        word += [(c, "O", s), (c, "U", s)]
    rng.shuffle(word)
    return word


def large_pool() -> list[list[tuple[int, str, int]]]:
    rng = random.Random(LARGE_POOL_SEED)
    return [random_word(rng, n) for n, count in LARGE_POOL for _ in range(count)]


def jobs(workload: str, seed: int) -> list[dict]:
    """The jobs of one round, in the order they run."""
    names = list(JOBS[workload])
    # the seed picks which job starts the round
    k = seed % len(names)
    return [
        {"workload": workload, "job": name, "seed": seed}
        for name in names[k:] + names[:k]
    ]


def scramble_trials(seed: int, fixture: str) -> list[dict]:
    rng = rng_for(seed, "scramble", fixture)
    trials = []
    for _ in range(SCRAMBLE_REPS):
        for chords in SCRAMBLE_CHORDS:
            for moves in SCRAMBLE_MOVES:
                trials.append(
                    {
                        "word": random_word(rng, chords),
                        "moves": moves,
                        "rng": rng.getrandbits(32),
                    }
                )
    return trials


def large_items(seed: int, fixture: str) -> list[dict]:
    """Pool diagrams with seeded chord names, in seeded order."""
    rng = rng_for(seed, "large", fixture)
    items = []
    for index, word in enumerate(large_pool()):
        n = len(word) // 2
        names = list(range(1, n + 1))
        rng.shuffle(names)
        items.append(
            {"pool": index, "word": [(names[c - 1], p, s) for c, p, s in word]}
        )
    rng.shuffle(items)
    return items


def invalid_tensor(seed: int, fixture: str, n: int, m: int) -> tuple[int, ...]:
    rng = rng_for(seed, "invalid", fixture)
    return tuple(rng.randrange(m) for _ in range(n**4))


def load_reference() -> dict:
    """Recorded reference outputs, as written by ``record.py``."""
    ref = {
        name: json.loads((REFERENCE / f"{name}.json").read_text())
        for name in ("weights", "large", "digests")
    }
    ref["table"] = {
        f: (REFERENCE / f"table_{f}.tsv").read_text(encoding="utf-8")
        for f in FIXTURES
    }
    return ref
