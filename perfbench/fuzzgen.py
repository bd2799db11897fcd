"""Random small models for cross-engine fuzzing.

Frozen copy of the test-suite generator (``tests/model_fuzz.py``) as it
was when the benchmark's answers were recorded.  The ``fuzz`` workload
draws its jobs from here, so a change to the test fuzzer cannot silently
change the workload; ``answers.json`` holds a digest of the job list.

Generates single- and two-component networks with 1-2 clocks, 1-2
parameters over tiny ranges, arbitrary mixes of strict/weak guards and
invariants (upper and lower bounds), resets, and occasionally a data
variable or a handshake channel.  Properties are drawn from a template
pool over the declared labels.
"""


def random_model(rng):
    n_params = rng.randrange(1, 3)
    params = {}
    for name in ("p", "q")[:n_params]:
        lo = rng.randrange(0, 2)
        params[name] = (lo, lo + rng.randrange(1, 4))
    n_clocks = rng.randrange(1, 3)
    clocks = ["x", "y"][:n_clocks]
    two_components = rng.random() < 0.3
    use_var = rng.random() < 0.3

    lines = [f"param {p} = {a}..{b}" for p, (a, b) in params.items()]
    lines.append("clock " + " ".join(clocks))
    if use_var:
        lines.append("var c : 0..2 = 0")
    if two_components:
        lines.append("chan h")

    def expr(allow_param=True):
        terms = []
        if allow_param and rng.random() < 0.7:
            p = rng.choice(list(params))
            k = rng.choice([1, 1, 1, 2, -1, -2])
            terms.append(p if k == 1 else f"{k} * {p}")
        if allow_param and len(params) > 1 and rng.random() < 0.25:
            other = [p for p in params if p not in terms[0]] if terms \
                else list(params)
            if other:
                terms.append(rng.choice(other))
        const = rng.randrange(-2, 4)
        if const or not terms:
            terms.append(str(const))
        out = terms[0]
        for t in terms[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out

    def guard(clock_pool):
        atoms = []
        for _ in range(rng.randrange(0, 3)):
            kind = rng.random()
            if use_var and kind < 0.2:
                atoms.append(f"c {rng.choice(['<=', '>=', '==', '<', '>'])} "
                             f"{rng.randrange(0, 3)}")
            else:
                ck = rng.choice(clock_pool)
                op = rng.choice(["<=", "<", ">=", ">"])
                atoms.append(f"{ck} {op} {expr()}")
        return " && ".join(atoms) if atoms else "true"

    def invariant(clock_pool):
        if rng.random() < 0.4:
            return "true"
        ck = rng.choice(clock_pool)
        if rng.random() < 0.15:
            return f"{ck} >= {rng.randrange(0, 2)}"
        return f"{ck} {rng.choice(['<=', '<'])} {expr()}"

    def component(name, clock_pool, chan_tags):
        n_locs = rng.randrange(2, 4)
        locs = [f"{name}L{i}" for i in range(n_locs)]
        body = [f"component {name} {{"]
        for i, loc in enumerate(locs):
            body.append(f"  location {loc} {{ invariant "
                        f"{invariant(clock_pool)}; label {loc.lower()} }}")
        body.append(f"  init {locs[0]}")
        n_edges = rng.randrange(2, 5)
        for k in range(n_edges):
            src = rng.choice(locs)
            dst = rng.choice(locs)
            parts = [f"guard {guard(clock_pool)}"]
            if chan_tags and k < len(chan_tags):
                parts.append(f"sync h{chan_tags[k]}")
            resets = [c for c in clock_pool if rng.random() < 0.4]
            if resets:
                parts.append("reset " + " ".join(resets))
            if use_var and rng.random() < 0.3:
                delta = rng.choice(["c + 1", "c - 1", "0", "1"])
                guard_ok = ("c <= 1" if "+" in delta else
                            "c >= 1" if "-" in delta else None)
                if guard_ok:
                    parts[0] = (f"guard {guard_ok}"
                                if parts[0] == "guard true"
                                else parts[0] + f" && {guard_ok}")
                parts.append(f"update c := {delta}")
            body.append(f"  edge {src} -> {dst} {{ " + "; ".join(parts) + " }")
        body.append("}")
        return body, locs

    if two_components:
        split = max(1, n_clocks - 1)
        b1, locs1 = component("A", clocks[:split], ["!", "!"])
        b2, locs2 = component("B", clocks[split:] or clocks[:1], ["?", "?"])
        lines += b1 + b2
        labels = [l.lower() for l in locs1 + locs2]
    else:
        b1, locs1 = component("A", clocks, [])
        lines += b1
        labels = [l.lower() for l in locs1]
    return "\n".join(lines), labels


def random_property(rng, labels):
    a = rng.choice(labels)
    b = rng.choice(labels)
    pool = [
        f"G !{a}",
        f"G ({a} -> F {b})",
        f"F {a}",
        f"{a} U {b}",
        f"G F {a}",
        f"F G {a}",
        f"G ({a} -> X !{b})",
        f"!{a} U {b}",
    ]
    return rng.choice(pool)
