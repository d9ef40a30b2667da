"""The sets' answers on fixed-seed input families, pinned bit for bit.

Per set type and method there is one sha256 per chunk of inputs (a
family of instances), over
- ``project_all(x)``: the count, then the dtype and bytes of each row;
- ``min_along(a)``: the float's bits, for unit a;
- ``ray_hold(q, a)``: the float's bits, for each q that ``project_all``
  returns alone and each unit a.
A refactor of a set leaves every digest alone.  A deliberate change
updates the digests it moves and names their inputs in CHANGES.md; a
mismatch prints the first chunk that moved, with its inputs.
"""

import functools
import hashlib
import struct

import numpy as np
import pytest

from drfeas.sets import BinaryKnapsackSet, FinitePointSet, TriadicSet

# One digest per chunk, in order: finite random, lattice and near-twins;
# triadic depth 1, 20, 60 and 600; knapsack random, integer, decimal and
# unit weights, each at m = 2-14.
PINS = {
    ("finite", "project_all"): (
        "e51d26d446055c4e467cc360a4c5ed545f48e5d7415cba379464977a53758c29",
        "bb9fa793a124ba409c65cdc4f0c240a4e49fbd82edf4ce50dd5b29fdbe61284e",
        "8861b473caafc3e8b82e8914b91b0b2c25b890a0a1b496a2a9561f44db17a9da"),
    ("finite", "min_along"): (
        "fe6dd5a70cacf485162c49f4b208a30e74562a98cbb480d2ae678c2050820595",
        "e62f350f6bd7f8433c038e12edb3b45d4bd17d85d0f643c7af41e208c48475c8",
        "0136df5fc8613359ba7916c5ce6e5da21f91a2e48ffe8235d095296c5cb1e4f3"),
    ("finite", "ray_hold"): (
        "3f9e4a4d820411744e05f0bc6da26c734887284a949781f4435584217ae88c4e",
        "1178d765dbc745c20f7385cfd47825dfd329e146fe2c7a7bd139e22c943fc24e",
        "7c99edf88b9e5c1e6f82c988345a63bfb856dfe77aacc68e5d03576a5d6d3d9b"),
    ("triadic", "project_all"): (
        "b79b0dc5eb948eef94594b89be53b7563412e3c1641e33a58f81a1dfd38cc06d",
        "e442af16793ab011a6a0f3cde867fa78c1daa79bef17a421ccee1d42a3395f6d",
        "9d312a4c637bbd060ce3970ff554eb87def6ea12cd969dd3eb460948d7c697fd",
        "111eb24e3de4253ad572729b6d817a6a28e9e8b90c33767fdd3541c1965ea0d0"),
    ("triadic", "min_along"): (
        "5317c0ee96a66519f55eebca8a1d4101bd6b3358fd8bea3cfd812cfb5d242df6",
        "5317c0ee96a66519f55eebca8a1d4101bd6b3358fd8bea3cfd812cfb5d242df6",
        "5317c0ee96a66519f55eebca8a1d4101bd6b3358fd8bea3cfd812cfb5d242df6",
        "5317c0ee96a66519f55eebca8a1d4101bd6b3358fd8bea3cfd812cfb5d242df6"),
    ("triadic", "ray_hold"): (
        "be13bd43551f9d854fc3dc7b29e3b3cd77d4f75f64ffff57c134d9453a99c6e7",
        "c2df82f6c90ce132bc1afe6417147fed6c968df0e32255256ef1b2a0329a9216",
        "416bbd0ee350d261d1d871d680d8e7e951578b236e2644280eb6ec7cf0eeb458",
        "d36fe584f5645cc343548e03f3b19ce2fe108ecde38bed9299a42aa268b4103d"),
    ("knapsack", "project_all"): (
        "a0910472e54ef26d2cf5c13d4fae570e1faa55d74a0febf1bfeda79d3eba284c",
        "f5a01174576119572a6a1067df5c441a29c9c39b7f458a1e96789aec926cfb9b",
        "a64c860cc233bf2d4af07a00c59ca8b9dd0ad9b085e045465f4047faae5a3041",
        "b5b5fad94d53c45a01ffa26f3fafbf48b46c5849a790f4d46bb53b558de2998f"),
    ("knapsack", "min_along"): (
        "8b3f07ebcd9ea9fcd48769858a01654bab82efd0220293bf5cc7a53d5f4caad2",
        "4c78ccac7a0ac50eaa15145b3f50e735404c27454a93dc375736be1ad1194571",
        "2c93226b5ef2d114331287f49485281a133aad998a102cd6248659af7f7f4317",
        "521bb91b90a811b4a1d9e7ce71a261d4128297dbefb268e100a7f7828b1f50c8"),
    ("knapsack", "ray_hold"): (
        "7d8106bedb8ff55303a9f6aefeb502cd12830844a701fce0fab2cdac9582b90f",
        "ef9aec68d2631d5221ce9d1629598054a72226958ad092cfb3fdf20563534832",
        "d984b123cc3681294a7b62ed617896e8e1281550bbde242bbccc77ab976d2da6",
        "671f7a966229789ba394e61b8f07f6aa90f0385f7af5ecd99396624a6df6d947"),
}


def _units(rng, n: int, count: int) -> list:
    """``count`` random unit vectors in n-D, then each signed unit axis."""
    v = rng.standard_normal((count, n))
    return [*(v / np.linalg.norm(v, axis=1, keepdims=True)),
            *np.eye(n), *-np.eye(n)]


def _finite():
    rng = np.random.default_rng(20261021)
    random, lattice = [], []
    for _ in range(8):
        n, d = rng.integers(2, 13), rng.integers(1, 4)
        pts = 3 * rng.standard_normal((n, d))
        mid = (pts[1:] + pts[:-1]) / 2
        xs = [*3 * rng.standard_normal((8, d)), *pts, *mid]
        random.append((FinitePointSet(pts), xs, _units(rng, d, 3)))
        n, d = rng.integers(2, 13), rng.integers(1, 4)
        pts = rng.integers(-4, 5, (n, d))
        xs = [*rng.integers(-8, 9, (16, d)) / 2, *pts]
        lattice.append((FinitePointSet(pts), xs, _units(rng, d, 3)))
    twins = []
    for pts in ([(0, 0), (3e-7, 0), (0, 5e-7)], [(1, 1), (1 + 2e-6, 1)],
                [(0,), (1e-9,), (-1e-9,)]):
        pts, d = np.array(pts, float), len(pts[0])
        xs = [*pts, *(pts[1:] + pts[:-1]) / 2, *pts + 1e-8, *pts - 4e-7]
        twins.append((FinitePointSet(pts), xs, _units(rng, d, 3)))
    # squared distances 2|d| apart, ties only within TIE_TOL = 1e-12
    d = np.array([1e-14, 1e-13, 4e-13, 1e-12, 4e-12])
    xs = 0.5 + np.r_[d, -d, 0][:, None]
    twins.append((FinitePointSet([(0,), (1,)]), xs, _units(rng, 1, 0)))
    return {"random": random, "lattice": lattice, "near-twins": twins}


def _triadic():
    rng = np.random.default_rng(3)
    chunks = {}
    for depth in (1, 20, 60, 600):
        s = TriadicSet(depth)
        v = s.values
        mags = 10.0 ** rng.uniform(-150, 150, 40)
        xs = [*rng.uniform(-3, 3, 40), *mags, *-mags, *(v[1:] + v[:-1]) / 2,
              *v]
        units = [np.array([1.0]), np.array([-1.0])]
        chunks[f"depth {depth}"] = [(s, [[t] for t in xs], units)]
    return chunks


def _knapsack():
    rng = np.random.default_rng(14)

    def case(c, threshold):
        m = len(c)
        xs = [*rng.uniform(-0.5, 1.5, (10, m)), *rng.integers(0, 2, (3, m)),
              *np.where(rng.random((3, m)) < 0.5, 0.5, rng.random((3, m))),
              0.5 + 4e-13 * rng.integers(-3, 4, m)]
        # three random units, e_1 and e_2: each ray_hold may search
        return BinaryKnapsackSet(c, threshold), xs, _units(rng, m, 3)[:5]

    chunks = {"random": [], "integer": [], "decimal": [], "unit": []}
    for m in range(2, 15):
        c = rng.uniform(0, 1, m)
        chunks["random"].append(case(c, rng.uniform(0, c.sum())))
        c = rng.integers(1, 10, m).astype(float)
        chunks["integer"].append(case(c, float(rng.integers(0, c.sum() + 1))))
        c = rng.integers(1, 21, m) / 10
        chunks["decimal"].append(case(c, rng.integers(0, 10 * c.sum()) / 10))
        t = float(rng.integers(1, m))  # 1 <= t < m, so t + ulp is reachable
        chunks["unit"] += [case(np.ones(m), t),
                           case(np.ones(m), np.nextafter(t, np.inf))]
    return chunks


FAMILIES = {"finite": _finite, "triadic": _triadic, "knapsack": _knapsack}


def _answers(s, xs, units):
    """(method, bytes of one answer) over the instance's inputs."""
    alone = []
    for x in xs:
        qs = s.project_all(x)
        yield "project_all", len(qs).to_bytes(8, "little")
        for q in qs:
            yield "project_all", q.dtype.str.encode() + q.tobytes()
        alone += qs[:len(qs) == 1]
    for a in units:  # a outer: the knapsack keeps min_along of the last a
        yield "min_along", struct.pack("<d", s.min_along(a))
        for q in alone:
            yield "ray_hold", struct.pack("<d", s.ray_hold(q, a))


@functools.cache
def _digests(kind: str) -> dict:
    """{method: [(chunk name, sha256 hex digest, chunk)]} for one set type."""
    out = {"project_all": [], "min_along": [], "ray_hold": []}
    for name, chunk in FAMILIES[kind]().items():
        hashes = {method: hashlib.sha256() for method in out}
        for s, xs, units in chunk:
            for method, data in _answers(s, xs, units):
                hashes[method].update(data)
        for method, h in hashes.items():
            out[method].append((name, h.hexdigest(), chunk))
    return out


@pytest.mark.parametrize("kind, method", sorted(PINS))
def test_answers_are_pinned(kind, method):
    got = _digests(kind)[method]
    assert len(got) == len(PINS[kind, method])
    for (name, digest, chunk), pinned in zip(got, PINS[kind, method]):
        inputs = [(s, np.array(xs).tolist(), np.array(units).tolist())
                  for s, xs, units in chunk]
        assert digest == pinned, (f"{kind} {method}: chunk {name!r} moved; "
                                  f"its sets, x and a: {inputs}")
