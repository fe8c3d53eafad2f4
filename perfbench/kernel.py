"""The reference kernel whose running time measures the host's speed.

A fixed piece of pure Python, the benchmark's own, that never calls the
library.  It does the kinds of work fcdiag does: integer loops, small
objects with attribute access, dict inserts, a keyed sort, tuple hashing,
list swaps on a partner array and string formatting.  It imports
nothing, so a fresh interpreter can time it without loading modules that
fcdiag would import itself (see ``run.SETUP_CODE``).
"""


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def kernel() -> int:
    total = 0
    for i in range(6000):
        total += i * i % 7
    pairs = []
    seen = {}
    for i in range(500):
        pair = _Pair(i, (i, i + 1))
        seen[pair.b] = pair.a
        pairs.append(pair)
    pairs.sort(key=lambda pair: -pair.a)
    k = 48
    partner = list(range(k, 2 * k)) + list(range(k))
    for _ in range(20):
        for a in range(1, k - 1):
            p, q = partner[a], partner[a + 1]
            if p == a + 1:
                total += 1
            else:
                partner[p], partner[q] = q, p
                partner[a], partner[a + 1] = a + 1, a
        total += hash(tuple(partner)) & 1
    return total + len(seen) + len(f"{pairs[0].a}:{pairs[-1].b}")


def kernel_time(clock, repeats: int = 2) -> float:
    """Shortest of ``repeats`` timed runs of the kernel, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = clock()
        kernel()
        best = min(best, clock() - start)
    return best
