"""Seeded outputs of both sampling routes, pinned value for value.

Each route's tally, its draws in sampling order and its raw label matrices
are fixed by the seed.  A change that moves a route's random stream, or the
order in which the harness reports what it drew, fails here: such a change
updates these values and declares the stream change in CHANGES.md.  Values
are explicit at n = 4 and sha256 digests at n = 8.  At (1, 0.5) hardly any
hit lies past the stick engine's hazard table, so its label matrices are also
pinned at heavy discounts and large alpha, where most rows search the closed
form beyond it, and at configs whose hits the table search resolves: a light
discount, d = 0 and a table that ends at inf after its first stick.  The
engine's own output is pinned with the generator's end state: full labels at
a discount where some hits lie at inf, partition labels at n = 30, and runs of
one-row calls.  The restaurant sampler's raw labels and end state are pinned
the same way at n = 50 to 1000, where most rows hold far fewer blocks than
observations.
"""

import hashlib
import json

import numpy as np
import pytest

from pitmanyor.core import PYParams
from pitmanyor.crp import _TILE, sample_label_matrix
from pitmanyor.harness import run_monte_carlo, sample_partitions
from pitmanyor.stickbreak import (
    _hit_events,
    sample_allocations_batch,
    sample_partition_labels_batch,
)
from reference import restricted_growth

PARAMS = PYParams(1.0, 0.5)
# two batches, so the pool runs one on each worker and the merge is exercised
TRIALS = 40_000
DRAWS_N4 = 40
LABEL_ROWS = 5000

# every partition of [4] as a restricted growth string, in tally key order
N4_KEYS = [
    "0000", "0001", "0010", "0011", "0012", "0100", "0101", "0102",
    "0110", "0111", "0112", "0120", "0121", "0122", "0123",
]

COUNTS_N4 = {
    ("stick", 1729): [3136, 1844, 1921, 610, 2501, 1836, 668, 2516,
                      579, 1904, 2505, 2449, 2539, 2439, 12553],
    ("stick", 42): [3118, 1845, 1918, 674, 2452, 1797, 658, 2448,
                    616, 1862, 2463, 2638, 2494, 2432, 12585],
    ("crp", 1729): [3203, 1870, 1899, 650, 2436, 1901, 618, 2543,
                    625, 1853, 2519, 2523, 2448, 2518, 12394],
    ("crp", 42): [3109, 1877, 1885, 610, 2468, 1874, 634, 2508,
                  565, 1873, 2523, 2464, 2540, 2580, 12490],
}

DRAWS_N4_EXPECTED = {
    ("stick", 1729): "0123 0102 0101 0122 0123 0123 0001 0120 0110 0121 0123 0123 0120 0123 "
                     "0122 0001 0123 0123 0120 0111 0123 0110 0122 0123 0112 0122 0122 0121 "
                     "0012 0123 0123 0100 0111 0112 0012 0100 0123 0120 0122 0111",
    ("stick", 42): "0122 0122 0100 0121 0012 0122 0012 0112 0012 0120 0000 0123 0122 0000 "
                   "0011 0001 0012 0000 0000 0112 0010 0001 0011 0112 0112 0123 0102 0123 "
                   "0123 0123 0123 0102 0123 0102 0112 0112 0010 0123 0123 0100",
    ("crp", 1729): "0123 0112 0000 0122 0102 0000 0111 0123 0010 0001 0110 0112 0000 0123 "
                   "0121 0121 0001 0102 0123 0123 0000 0120 0123 0112 0102 0000 0123 0123 "
                   "0121 0000 0000 0010 0121 0010 0010 0123 0000 0100 0111 0010",
    ("crp", 42): "0110 0120 0123 0102 0121 0011 0111 0101 0000 0123 0123 0000 0000 0123 "
                 "0122 0010 0123 0012 0123 0122 0011 0123 0121 0123 0012 0123 0010 0102 "
                 "0102 0112 0100 0123 0001 0102 0121 0123 0000 0123 0123 0012",
}

COUNTS_N8_SHA = {
    ("stick", 1729): "966f65d89d8c47d1d598c69ac95048d1b64d884100ded43cfc10cb8c1a3c6ee6",
    ("stick", 42): "759d04cd84dd12ac54849b091210048b181acb530a4013f11ad5ae45abf24a49",
    ("crp", 1729): "c09380564d7b2b2d33225a9ecd4746cf435d06e45725476df735efde5fda7117",
    ("crp", 42): "18aff01094c877e4620cf3ccda6cbf6e78d769c478b9f45397828c0d011aa414",
}

DRAWS_N8_SHA = {
    ("stick", 1729): "792601ba7121f1303e98c200886df3ab1c7468ef0f178c4f4b162f261997471b",
    ("stick", 42): "dce66f5d0356aeca3834ba5727a576f01938083f8a13bd291eeac54b734f3485",
    ("crp", 1729): "08153f29b31f6caa8fbaa3be4167bd352a34734d72817008d3d7dd9e02e96c57",
    ("crp", 42): "2df5bc385613e12f85ad89c678f9dddcd207d3b73120fbc6eeae44ebd5f2f776",
}

# sha256 of the little-endian int64 bytes of a (LABEL_ROWS, 8) label matrix
LABELS_N8_SHA = {
    ("stick", 1729): "1623307f344975b8cbbca43bd253640545d4bf5512ff44d1af61ca1ca5cdfaff",
    ("stick", 42): "29ec746108fbc33d28cd16c625dfecb044de694d254da99d49a09596aee235f8",
    ("crp", 1729): "599ab1fdd4683b878dde21c83e2e59209e444aacab82da466ad87791fd6e6493",
    ("crp", 42): "56cd0973d31f03c9049fc066ce43018abcba0ed8d6cf8f902679cbc7024a73f8",
}

# the same digest of stick-engine label matrices at seed 1729, by (sampler,
# alpha, d, n, rows); no full label of this seed passes 2^53
FAR_LABELS_SHA = {
    ("partition", 1.0, 0.9, 30, 1024):
        "b05d3fc2627250c6027b010787ef3fd49dd7ae1aec98de3f1a439bc96ba4d714",
    ("partition", 1e6, 0.5, 30, 512):
        "2dfbfb039d15a94a276f94f375c16acde987618c250398fceafc2b8b15d18bee",
    ("partition", 0.3, 0.7, 8, LABEL_ROWS):
        "dcd87641f8e9b7432a328fc2ef7395b11eeb227128b3c15744da84b6ca53a70c",
    ("full", 0.3, 0.7, 8, LABEL_ROWS):
        "0399f47c0fbf35b50317f44f3c6f459df38d2644cdbf32a75946339d0326ae15",
}

# the same digest, at n = 4, seed 1729 and LABEL_ROWS rows, of partition-label
# matrices whose hits the table search finds, by (alpha, d)
TABLE_LABELS_SHA = {
    (5.0, 0.1): "84ee2ee108150304bd09b30d0c1ec8602cc6f5380ce8c25dcc89ce5cde550a28",
    (1.0, 0.0): "28aab4fecb53d1d9e4c2a70ce5d5257c382b8c27a18095ffcb4bed3b921e3b2b",
    (0.0, 1e-25): "2f62433dd2ecff86dd7467f366e03ffeec31771926ffbb4f38ee86fc72734ab5",
}

# sha256 of the little-endian bytes of a stick-engine label matrix (the
# engine's float64 hit sticks in full-label mode, sample_partition_labels_batch's
# int64 labels otherwise) and of the generator's end state (sorted-key JSON),
# by (label mode, alpha, d, n, rows), at seed 1729; at d = 0.99, 145 of the
# 2000 full-label rows hold an inf hit
ENGINE_SHA = {
    ("full", 1.0, 0.99, 8, 2000): (
        "cc888f510c50b349ff4faf1601c54fcb8a8a07a7388212b6390efacc43a6ba0f",
        "b4827ce4d938d20de344df1c0e47e663247fddf51c648849ec22c60b89c654c6",
    ),
    ("partition", 1.0, 0.5, 30, 4096): (
        "47fba621457de27fabb5dc6fe87f4d388adf7b61496f35d94d9c70b4959f7ed7",
        "e50bce6cb553beced36a5dac558fd1fb2330d429cdb49abb857e759ed4ff0d51",
    ),
}

# the same digests over 25 successive one-row engine calls at (1, 0.9) from
# one generator at seed 1729, float64 in both modes, by (label mode, n)
ONE_ROW_CALLS = 25
ONE_ROW_SHA = {
    ("partition", 4): (
        "af3d90c7b30fa81dad85a8603176842cb7663ef0f7fc19af925c2f70419d0f2c",
        "0b8b8d21b9ba784787f193e4bac3ddd09b3c8b5ca72218f8ba54b02e1cf67b94",
    ),
    ("full", 4): (
        "e2e1fafdb972cbf121a0aec4ef3ec924a3913ec374bf4f82919a35bb86490d1e",
        "0b8b8d21b9ba784787f193e4bac3ddd09b3c8b5ca72218f8ba54b02e1cf67b94",
    ),
    ("partition", 1): (
        "61c7fc1f43f924112b59ebd82a7fa7f6fd7fea423d325fc6116e898f4dffde72",
        "ca2df11ccb280a73f16adefae6dafc12d178bdc59f341ee551f94e71b71038a6",
    ),
    ("full", 1): (
        "4b91e27ad1faf59c336a52695fb78c319633878f7e380a8116e48f29fb1ac936",
        "ca2df11ccb280a73f16adefae6dafc12d178bdc59f341ee551f94e71b71038a6",
    ),
}

# the same digests of `sample_label_matrix` at seed 1729, by (alpha, d, n,
# rows); the _TILE + 1 rows end on a one-column tile with few blocks
RESTAURANT_SHA = {
    (1.0, 0.5, 300, 256): (
        "b9203037338e994bbaecc0df4d438a98198d6b9780137454f79cd9e2d661b10d",
        "ae155b093548a64447191fcf21b7cd212e85b28ca16a07fff23664a325951a94",
    ),
    (1.0, 0.0, 1000, 64): (
        "95984b37161a032326b53099a4b0e4fccb4d191017ccbe73b56ed942c5ce33f4",
        "729b06bcc04cb0f60920a9e35dddde2f41dbdb05787b5d37ba71d54541dd9068",
    ),
    (0.3, 0.7, 1000, 64): (
        "73f1a0149a9c7d2ec7a0943ce048f7815b4435654701124822be2b2d07fd1b90",
        "729b06bcc04cb0f60920a9e35dddde2f41dbdb05787b5d37ba71d54541dd9068",
    ),
    (-0.3, 0.5, 200, 128): (
        "6a0a6cb2c4d2c92a9501cca1b062b09378ee9b828d59a646e149d32a0ec48c92",
        "eccc708628710c00ac732f8b0f357cfaeb8b70511c26dcb8edb12dd3974e7b97",
    ),
    (1.0, 0.9, 100, 512): (
        "967590c220fe80edad388e55246916f77bf8ff8db5408a439392fc5a19423a77",
        "625bdd826f8e407be3442ffc0a1378b2f6a419b5bdfec19063dd8ad18655319a",
    ),
    (0.3, 0.7, 50, _TILE + 1): (
        "24f9bb3b0e6066a0ad58e510dd513af3c588c62b2082d0b3827a5e7528f6d161",
        "45f82ec5794b060f53d98839dd7feaa6236c806121b62cc89e6cada4982a5a81",
    ),
}

ROUTES = [(sampler, seed) for sampler in ("stick", "crp") for seed in (1729, 42)]


def growth_string(partition) -> str:
    return "".join(map(str, restricted_growth(partition)))


def engine_digests(z, rng):
    """sha256 of a label matrix's little-endian bytes and of the generator's state."""
    raw = np.ascontiguousarray(z, dtype=z.dtype.newbyteorder("<")).tobytes()
    state = json.dumps(rng.bit_generator.state, sort_keys=True).encode()
    return hashlib.sha256(raw).hexdigest(), hashlib.sha256(state).hexdigest()


def tally(sampler, n, seed, workers):
    emp = run_monte_carlo(PARAMS, n, TRIALS, sampler, seed, workers=workers)
    return [[growth_string(p), c] for p, c in emp.counts.items()]


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("sampler, seed", ROUTES)
def test_counts_n4(sampler, seed, workers):
    expected = [[key, c] for key, c in zip(N4_KEYS, COUNTS_N4[sampler, seed])]
    assert tally(sampler, 4, seed, workers) == expected


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("sampler, seed", ROUTES)
def test_counts_n8(sampler, seed, workers):
    assert digest(tally(sampler, 8, seed, workers)) == COUNTS_N8_SHA[sampler, seed]


@pytest.mark.parametrize("sampler, seed", ROUTES)
def test_draws_n4(sampler, seed):
    draws = sample_partitions(PARAMS, 4, DRAWS_N4, sampler, seed)
    assert " ".join(map(growth_string, draws)) == DRAWS_N4_EXPECTED[sampler, seed]


@pytest.mark.parametrize("sampler, seed", ROUTES)
def test_draws_n8(sampler, seed):
    draws = sample_partitions(PARAMS, 8, TRIALS, sampler, seed)
    assert digest(list(map(growth_string, draws))) == DRAWS_N8_SHA[sampler, seed]


@pytest.mark.parametrize("sampler, seed", ROUTES)
def test_label_matrices_n8(sampler, seed):
    engine = sample_partition_labels_batch if sampler == "stick" else sample_label_matrix
    z = engine(PARAMS, 8, LABEL_ROWS, np.random.default_rng(seed))
    assert z.shape == (LABEL_ROWS, 8)
    raw = np.ascontiguousarray(z, dtype="<i8").tobytes()
    assert hashlib.sha256(raw).hexdigest() == LABELS_N8_SHA[sampler, seed]


@pytest.mark.parametrize("case", list(FAR_LABELS_SHA))
def test_far_search_label_matrices(case):
    mode, alpha, d, n, rows = case
    engine = sample_partition_labels_batch if mode == "partition" else sample_allocations_batch
    z = engine(PYParams(alpha, d), n, rows, np.random.default_rng(1729))
    assert z.shape == (rows, n)
    raw = np.ascontiguousarray(z, dtype="<i8").tobytes()
    assert hashlib.sha256(raw).hexdigest() == FAR_LABELS_SHA[case]


@pytest.mark.parametrize("alpha, d", list(TABLE_LABELS_SHA))
def test_table_search_label_matrices(alpha, d):
    rng = np.random.default_rng(1729)
    z = sample_partition_labels_batch(PYParams(alpha, d), 4, LABEL_ROWS, rng)
    assert z.shape == (LABEL_ROWS, 4)
    raw = np.ascontiguousarray(z, dtype="<i8").tobytes()
    assert hashlib.sha256(raw).hexdigest() == TABLE_LABELS_SHA[alpha, d]


@pytest.mark.parametrize("case", list(ENGINE_SHA))
def test_engine_output_and_end_state(case):
    mode, alpha, d, n, rows = case
    rng = np.random.default_rng(1729)
    if mode == "full":
        z = _hit_events(PYParams(alpha, d), n, rows, rng, True)
    else:
        z = sample_partition_labels_batch(PYParams(alpha, d), n, rows, rng)
    assert z.shape == (rows, n)
    assert engine_digests(z, rng) == ENGINE_SHA[case]


@pytest.mark.parametrize("mode, n", list(ONE_ROW_SHA))
def test_one_row_engine_calls(mode, n):
    rng = np.random.default_rng(1729)
    calls = [_hit_events(PYParams(1.0, 0.9), n, 1, rng, mode == "full")
             for _ in range(ONE_ROW_CALLS)]
    assert engine_digests(np.concatenate(calls), rng) == ONE_ROW_SHA[mode, n]


@pytest.mark.parametrize("case", list(RESTAURANT_SHA))
def test_restaurant_output_and_end_state(case):
    alpha, d, n, rows = case
    rng = np.random.default_rng(1729)
    z = sample_label_matrix(PYParams(alpha, d), n, rows, rng)
    assert z.shape == (rows, n)
    assert engine_digests(z, rng) == RESTAURANT_SHA[case]
