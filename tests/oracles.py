"""Independent oracles shared by the tests; they share no code with the
packed kernels they certify."""

from twistcode.linalg import Matrix


def mulclose(generators):
    """Closure of a list of Matrix generators under multiplication.

    Plain dict-based breadth-first closure, the order oracle for small
    groups.  Returns matrices in discovery order with the identity first.
    """

    if not generators:
        raise ValueError("need at least one generator")
    ident = Matrix.identity(generators[0].field, generators[0].rows)
    seen = {ident}
    order = [ident]
    frontier = [ident]
    while frontier:
        new = []
        for g in frontier:
            for s in generators:
                h = g * s
                if h not in seen:
                    seen.add(h)
                    order.append(h)
                    new.append(h)
        frontier = new
    return order
