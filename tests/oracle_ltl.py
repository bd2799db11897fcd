"""Direct LTL evaluation on ultimately periodic words.

Independent of the tableau translation: every operator is evaluated from
its definition by walking the lasso.  Used as the ground truth for the
automaton construction.
"""


def _positions(prefix, period):
    letters = [frozenset(a) for a in list(prefix) + list(period)]
    loop = len(prefix)

    def nxt(i):
        return i + 1 if i + 1 < len(letters) else loop

    return letters, nxt


def holds_on_lasso(f, prefix, period, pos=0):
    letters, nxt = _positions(prefix, period)
    memo = {}

    def ev(g, i):
        key = (g.key, i)
        if key in memo:
            return memo[key]
        k = g.kind
        if k == "true":
            val = True
        elif k == "false":
            val = False
        elif k == "ap":
            val = g.atom in letters[i]
        elif k == "not":
            val = not ev(g.children[0], i)
        elif k == "and":
            val = ev(g.children[0], i) and ev(g.children[1], i)
        elif k == "or":
            val = ev(g.children[0], i) or ev(g.children[1], i)
        elif k == "next":
            val = ev(g.children[0], nxt(i))
        elif k == "until":
            a, b = g.children
            val = False
            j = i
            for _ in range(len(letters) + 1):
                if ev(b, j):
                    val = True
                    break
                if not ev(a, j):
                    break
                j = nxt(j)
        elif k == "release":
            a, b = g.children
            val = True
            j = i
            for _ in range(len(letters) + 1):
                if not ev(b, j):
                    val = False
                    break
                if ev(a, j):
                    break
                j = nxt(j)
        elif k == "finally":
            a = g.children[0]
            val = False
            j = i
            for _ in range(len(letters) + 1):
                if ev(a, j):
                    val = True
                    break
                j = nxt(j)
        elif k == "globally":
            a = g.children[0]
            val = True
            j = i
            for _ in range(len(letters) + 1):
                if not ev(a, j):
                    val = False
                    break
                j = nxt(j)
        else:
            raise ValueError(k)
        memo[key] = val
        return val

    return ev(f, pos)


def random_formula(rng, atoms, depth):
    from ptasynth import ltl

    if depth == 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.1:
            return ltl.TRUE
        if r < 0.2:
            return ltl.FALSE
        a = rng.choice(atoms)  # a name or a (var, op, value) data atom
        return ltl.data_ap(*a) if isinstance(a, tuple) else ltl.ap(a)
    op = rng.choice(["not", "and", "or", "next", "until",
                     "release", "finally", "globally"])
    a = random_formula(rng, atoms, depth - 1)
    if op in ("not", "next", "finally", "globally"):
        return ltl.Formula(op, (a,))
    b = random_formula(rng, atoms, depth - 1)
    return ltl.Formula(op, (a, b))


def random_lasso(rng, atoms, max_prefix, max_period):
    prefix = [frozenset(a for a in atoms if rng.random() < 0.5)
              for _ in range(rng.randrange(0, max_prefix + 1))]
    period = [frozenset(a for a in atoms if rng.random() < 0.5)
              for _ in range(rng.randrange(1, max_period + 1))]
    return prefix, period
