"""Independent brute-force oracle used by the tests.

Field elements are coefficient tuples with schoolbook polynomial arithmetic
modulo the same pinned Conway polynomials the library uses; nothing here
touches the library's lookup tables, discrete logs, or kernels.  Slow on
purpose; only run at small sizes.
"""

import itertools

CONWAY = {
    (2, 2): (1, 1, 1),
    (3, 2): (2, 2, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (5, 2): (2, 4, 1),
    (7, 2): (3, 6, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (3, 4): (2, 0, 0, 2, 1),
}

PRIME_POWERS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1),
                8: (2, 3), 9: (3, 2)}


class RefField:
    """F_{q^2} as coefficient tuples over the prime field."""

    def __init__(self, q):
        p, k = PRIME_POWERS[q]
        self.q = q
        self.p = p
        self.m = 2 * k
        self.conway = CONWAY[(p, self.m)]
        self.zero = (0,) * self.m
        self.one = (1,) + (0,) * (self.m - 1)
        self.x = (0, 1) + (0,) * (self.m - 2)
        # elements ordered as the library ids: zero, then ascending powers of x
        self.elements = [self.zero]
        value = self.one
        for _ in range(q * q - 1):
            self.elements.append(value)
            value = self.mul(value, self.x)
        assert value == self.one
        assert len(set(self.elements)) == q * q

    def add(self, a, b):
        return tuple((u + v) % self.p for u, v in zip(a, b))

    def neg(self, a):
        return tuple((-u) % self.p for u in a)

    def mul(self, a, b):
        prod = [0] * (2 * self.m - 1)
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                prod[i + j] = (prod[i + j] + u * v) % self.p
        for deg in range(2 * self.m - 2, self.m - 1, -1):
            c = prod[deg]
            if c:
                prod[deg] = 0
                for i in range(self.m):
                    prod[deg - self.m + i] = (prod[deg - self.m + i] - c * self.conway[i]) % self.p
        return tuple(prod[: self.m])

    def pw(self, a, e):
        out = self.one
        for _ in range(e):
            out = self.mul(out, a)
        return out

    def conj(self, a):
        return self.pw(a, self.q)

    def wlog(self, a):
        """Discrete log by linear scan of the power list."""
        assert a != self.zero
        return self.elements.index(a) - 1

    def id_of(self, a):
        return self.elements.index(a)


def inner(F, x, y):
    acc = F.zero
    for u, v in zip(x, y):
        acc = F.add(acc, F.mul(u, F.conj(v)))
    return acc


def isotropic_vectors(F, n):
    """All nonzero isotropic vectors, in the library's canonical order."""
    out = []
    for vec in itertools.product(F.elements, repeat=n):
        if all(c == F.zero for c in vec):
            continue
        if inner(F, vec, vec) == F.zero:
            out.append(vec)
    return out


def classify(F, x, y):
    """Sequential relation index of the ordered pair (x, y)."""
    nrel = F.q * F.q - 1
    ip = inner(F, x, y)
    if ip != F.zero:
        return nrel + F.wlog(ip)
    for e in range(nrel):
        lam = F.elements[e + 1]
        if all(yc == F.mul(lam, xc) for xc, yc in zip(x, y)):
            return e
    return 2 * nrel


def tensor(F, vectors, rank):
    """Intersection numbers over all triples from one representative each,
    with constancy verified over every representative pair."""
    labels = {}
    for a, x in enumerate(vectors):
        for b, y in enumerate(vectors):
            labels[a, b] = classify(F, x, y)
    reps = {}
    for (a, b), h in labels.items():
        reps.setdefault(h, []).append((a, b))
    count = len(vectors)
    out = {}
    for h in range(rank):
        seen = None
        for a, b in reps[h]:
            counts = [[0] * rank for _ in range(rank)]
            for z in range(count):
                counts[labels[a, z]][labels[z, b]] += 1
            if seen is None:
                seen = counts
            else:
                assert counts == seen, f"relation {h} counts depend on the pair"
        out[h] = seen
    return out


def hyperbolic_partner_scan(F, u):
    """Isotropic v with <u, v> = 1 by the original canonical-order scan.

    Takes the first w in canonical vector order with <u, w> != 0, rescales it
    to <u, w> = 1 and subtracts the first multiple lam * u (lam in canonical
    element order) with lam + conj(lam) = <w, w>.
    """
    for w in itertools.product(F.elements, repeat=len(u)):
        c = inner(F, u, w)
        if c != F.zero:
            break
    scale = F.pw(F.conj(c), F.q * F.q - 2)  # 1 / conj(c)
    w = tuple(F.mul(scale, wc) for wc in w)
    ww = inner(F, w, w)
    lam = next(a for a in F.elements if F.add(a, F.conj(a)) == ww)
    return tuple(F.add(wc, F.neg(F.mul(lam, uc))) for wc, uc in zip(w, u))
