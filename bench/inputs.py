"""Seeded inputs for the convert workload, built without calling catbij.

A tree is a nested tuple: () is a leaf and (left, right) an internal node.
Random trees come from the cycle lemma, so each size-n tree is equally
likely.  Every family's document is derived here from the paper's
definitions, so the expected output of a conversion never depends on the
code under test.
"""

import json
import random

FAMILIES = ("tree", "dyck", "young", "perm213", "torsion")
MAX_N = 12
TORSION_MAX_N = 8  # the CLI's documented bound for torsion pairs
INVALID_EVERY = 20  # one document in INVALID_EVERY is invalid
INVALID_KINDS = ("malformed", "pattern213", "staircase", "dip", "not_torsion", "bool")


def random_postfix(rng, n):
    """Postfix code of a uniform size-n tree: U per leaf, R per internal node.

    Among the 2n+1 rotations of a shuffled word with n+1 U and n R exactly
    one has every proper prefix holding more U than R (the cycle lemma): the
    one starting after the last minimum of the prefix sums.
    """
    word = ["U"] * (n + 1) + ["R"] * n
    rng.shuffle(word)
    low, cut, height = 0, 0, 0
    for k, c in enumerate(word):
        height += 1 if c == "U" else -1
        if height <= low and k + 1 < len(word):
            low, cut = height, k + 1
    return "".join(word[cut:] + word[:cut])


def tree_from_postfix(word):
    stack = []
    for c in word:
        if c == "U":
            stack.append(())
        else:
            right = stack.pop()
            stack.append((stack.pop(), right))
    (tree,) = stack
    return tree


def postfix(t):
    return "U" if not t else postfix(t[0]) + postfix(t[1]) + "R"


def paren(t):
    return "•" if not t else "(" + paren(t[0]) + paren(t[1]) + ")"


def young_rows(word):
    """Partition above the Dyck path word[1:]; column x holds n - h cells,
    h being the height of the (x+1)-th right step."""
    n = len(word) // 2
    cols, h = [], 0
    for c in word[1:]:
        if c == "U":
            h += 1
        else:
            cols.append(n - h)
    return [r for r in (sum(1 for c in cols if c >= j) for j in range(1, n + 1)) if r]


def perm213(t):
    """Minimum-split form: Node(X, Y) reads perm(Y) raised above perm(X),
    then 1, then perm(X) raised by one."""
    if not t:
        return []
    x, y = perm213(t[0]), perm213(t[1])
    return [v + len(x) + 1 for v in y] + [1] + [v + 1 for v in x]


def torsion_pair(t):
    """A left child spanning leaves i..j puts [i+1, j] .. [j, j] in the torsion
    class; a right child spanning i..j puts [i, i] .. [i, j-1] in the free class."""
    tors, free = [], []

    def go(node, i, kind):
        if not node:
            return i
        m = go(node[0], i, "left")
        j = go(node[1], m + 1, "right")
        if kind == "left":
            tors.extend([a, j] for a in range(i + 1, j + 1))
        elif kind == "right":
            free.extend([i, b] for b in range(i, j))
        return j

    go(t, 0, "root")
    return sorted(tors), sorted(free)


def document(family, t):
    """The JSON value catbij's serializer writes for t in `family`."""
    if family == "tree":
        return paren(t)
    word = postfix(t)
    if family == "dyck":
        return word[1:]
    n = len(word) // 2
    if family == "young":
        return {"n": n, "rows": young_rows(word)}
    if family == "perm213":
        return perm213(t)
    tors, free = torsion_pair(t)
    return {"n": n, "torsion": tors, "free": free}


def dumps(value):
    return json.dumps(value, ensure_ascii=False)


def has_213(p):
    m = len(p)
    return any(
        p[j] < p[i] < p[k] for i in range(m) for j in range(i + 1, m) for k in range(j + 1, m)
    )


class Doc:
    __slots__ = ("source", "target", "text", "expected", "kind")

    def __init__(self, source, target, text, expected=None, kind=None):
        self.source = source
        self.target = target
        self.text = text
        self.expected = expected  # parsed JSON of the right output; None if invalid
        self.kind = kind  # invalid-document kind, None if valid


def _size(rng, source, target, max_n, torsion_max_n, low=1):
    top = torsion_max_n if "torsion" in (source, target) else max_n
    return rng.randint(min(low, top), top)


def _tree(rng, n):
    return tree_from_postfix(random_postfix(rng, n))


def valid_doc(rng, max_n=MAX_N, torsion_max_n=TORSION_MAX_N):
    source, target = rng.choice(FAMILIES), rng.choice(FAMILIES)
    t = _tree(rng, _size(rng, source, target, max_n, torsion_max_n))
    return Doc(source, target, dumps(document(source, t)), document(target, t))


def _replace_one(value, rng):
    """Replace one integer 1 inside a JSON value by true, or return None."""
    spots = []

    def walk(v, path):
        if isinstance(v, list):
            for i, w in enumerate(v):
                walk(w, path + (i,))
        elif isinstance(v, dict):
            for k, w in v.items():
                walk(w, path + (k,))
        elif v == 1 and not isinstance(v, bool):
            spots.append(path)

    walk(value, ())
    if not spots:
        return None
    path = rng.choice(spots)
    holder = value
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = True
    return value


def invalid_doc(rng, kind, max_n=MAX_N, torsion_max_n=TORSION_MAX_N):
    """A document every catbij deserializer must reject with CatbijError."""
    target = rng.choice(FAMILIES)
    while True:
        if kind == "malformed":
            source = rng.choice(FAMILIES)
            n = _size(rng, source, target, max_n, torsion_max_n)
            good = document(source, _tree(rng, n))
            if rng.random() < 0.5:
                text = dumps(good)[:-1]  # truncated: not valid JSON
            elif source in ("tree", "perm213"):
                text = dumps({source: good})
            elif source == "dyck":
                text = dumps(list(good))
            else:
                good.pop("rows" if source == "young" else "free")
                text = dumps(good)
            return Doc(source, target, text, kind=kind)
        if kind == "pattern213":
            n = _size(rng, "perm213", target, max_n, torsion_max_n, low=3)
            p = list(range(1, n + 1))
            while not has_213(p):
                rng.shuffle(p)
            return Doc("perm213", target, dumps(p), kind=kind)
        if kind == "staircase":
            n = _size(rng, "young", target, max_n, torsion_max_n)
            doc = document("young", _tree(rng, n))
            doc["rows"] = [n] + doc["rows"][1:] if doc["rows"] else [n]
            return Doc("young", target, dumps(doc), kind=kind)
        if kind == "dip":
            n = _size(rng, "dyck", target, max_n, torsion_max_n)
            w = list(document("dyck", _tree(rng, n)))
            returns, h = [0], 0
            for k, c in enumerate(w):
                h += 1 if c == "U" else -1
                if h == 0 and k + 1 < len(w):
                    returns.append(k + 1)
            k = rng.choice(returns)  # height 0 here, so w[k] is U
            r = w.index("R", k)
            w[k], w[r] = "R", "U"
            return Doc("dyck", target, dumps("".join(w)), kind=kind)
        if kind == "not_torsion":
            # torsion classes are closed under [a, b] -> [a', b] for a <= a' <= b
            n = _size(rng, "torsion", "torsion", max_n, torsion_max_n, low=3)
            doc = document("torsion", _tree(rng, n))
            tors = doc["torsion"]
            wide = [x for x in tors if x[0] < x[1]]
            if wide:
                b = rng.choice(wide)[1]
                tors.remove([b, b])
            else:
                members = {tuple(x) for x in tors}
                spare = [
                    [a, b] for a in range(1, n) for b in range(a + 1, n) if (b, b) not in members
                ]
                if not spare:
                    continue
                tors.append(rng.choice(spare))
                tors.sort()
            return Doc("torsion", target, dumps(doc), kind=kind)
        if kind == "bool":
            source = rng.choice(("young", "perm213", "torsion"))
            n = _size(rng, source, target, max_n, torsion_max_n)
            doc = _replace_one(document(source, _tree(rng, n)), rng)
            if doc is None:
                continue
            return Doc(source, target, dumps(doc), kind=kind)
        raise ValueError(f"unknown invalid kind {kind!r}")


def stream(seed, max_n=MAX_N, torsion_max_n=TORSION_MAX_N):
    """The convert workload's endless document stream for one seed."""
    rng = random.Random(seed)
    k = 0
    while True:
        if k % INVALID_EVERY == INVALID_EVERY - 1:
            kind = INVALID_KINDS[(k // INVALID_EVERY) % len(INVALID_KINDS)]
            yield invalid_doc(rng, kind, max_n, torsion_max_n)
        else:
            yield valid_doc(rng, max_n, torsion_max_n)
        k += 1
