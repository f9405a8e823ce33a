"""Shape-first oracles for the library's content-first recording tableaux.

``ospd.character`` builds recording tableaux content by content, as chains of
horizontal strips.  These build them the other way, shape first: every
partition up to a size, then every semistandard filling of one shape, column
by column over strictly increasing columns.
"""

import itertools

from ospd.tableau import conjugate


def partitions_up_to(total, max_part):
    """All partitions with |mu| <= total and mu_1 <= max_part."""
    out = [()]

    def extend(prefix, remaining, cap):
        for part in range(min(cap, remaining), 0, -1):
            cur = prefix + (part,)
            out.append(cur)
            extend(cur, remaining - part, part)

    extend((), total, max_part)
    return out


def shape_recording(mu_conj, ell):
    """All SSYT with entries in 1..ell of shape mu_conj, column-major."""
    heights = conjugate(mu_conj)
    results = []

    def extend(j, cols):
        if j == len(heights):
            results.append(tuple(cols))
            return
        for col in itertools.combinations(range(1, ell + 1), heights[j]):
            if not cols or all(cols[-1][i] <= col[i] for i in range(len(col))):
                cols.append(col)
                extend(j + 1, cols)
                cols.pop()

    extend(0, [])
    return results
