"""The benchmark's workloads: seeded inputs, timed operations, traced twins, checks.

Every workload is a closed loop with one caller: the next operation is sent
only after the previous answer is back.  A pass runs a fixed pool of inputs
made from the seed; the harness repeats passes, each from a cold ``rs_shape``
cache.  A traced pass calls the library's public stages one by one, in the
order the library itself uses them, and must give the same answers.
NOTES.md says why each workload exists.
"""

import gc
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd

from socular import (
    collapse,
    collapse_oracle,
    congruence_decompose,
    dim_nilradical,
    double,
    expand,
    f_stat,
    gk_breakdown,
    gk_dimension,
    h_algorithm,
    hollow,
    is_domino_type,
    is_integral,
    is_orbit_partition,
    is_p_dominant,
    is_socular,
    is_special,
    orbit_dimension,
    parabolic_from_composition,
    parabolic_from_roots,
    parse_weight,
    partitions_of,
    render_diagram,
    restricted_transform_oracle,
    richardson_partition,
    rs_shape,
    tilde,
    transpose,
    z_diagram,
)
from socular.gkdim import check_family
from socular.oracles import (
    EnumerationBudget,
    check_collapse,
    check_halg,
    check_socular,
    integral_weights,
)
from socular.partitions import format_partition

_clock = time.perf_counter_ns


def layer(fn) -> str:
    """Span name of a library function: its module below ``socular``, then its name."""
    return f"{fn.__module__.removeprefix('socular.')}.{fn.__name__}"

# which F statistic the integral and half-integral classes contribute
_CLASS_KINDS = {"B": ("b", "b"), "C": ("b", "d"), "D": ("d", "d")}
_WEIGHT_KINDS = ("integral", "half", "generic")


class Raised:
    """The answer recorded for an operation that raised."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, Raised) and other.text == self.text

    def __repr__(self):
        return f"Raised({self.text!r})"


class Pass:
    """What one pass produced: answers, per-operation latencies, operation count."""

    def __init__(self, answers, latencies_ns, ops, spans=None):
        self.answers = answers
        self.latencies_ns = latencies_ns
        self.ops = ops
        self.spans = spans
        self.cache = None  # rs_shape (hits, misses, entries) after the pass
        self.ref_ns = None  # the host-speed reference timed after each call


def _ambient(family: str, n: int) -> int:
    if family == "A":
        return n * (n - 1) // 2
    return n * n - (n if family == "D" else 0)


# ---------------------------------------------------------------- input makers


def _residues(rng, count: int, family: str) -> list[Fraction]:
    """``count`` fractional parts a/b, b in 3..7, in distinct congruence classes."""
    seen, out = set(), []
    while len(out) < count:
        b = rng.randint(3, 7)
        a = rng.randrange(1, b)
        if gcd(a, b) != 1:
            continue
        f = Fraction(a, b)
        key = f if family == "A" else min(f, 1 - f)
        if key not in seen:
            seen.add(key)
            out.append(f)
    return out


def random_weight(rng, family: str, n: int, kind: str) -> tuple[Fraction, ...]:
    """A weight with entries inside +-3n: integral, half-integral or generic.

    Generic weights use 2-4 congruence classes with denominators 3-7; for
    B/C/D entries are negated at random, which keeps their class.
    """
    lim = 3 * n
    if kind == "integral":
        return tuple(Fraction(rng.randint(-lim, lim)) for _ in range(n))
    if kind == "half":
        return tuple(Fraction(2 * rng.randint(-lim, lim - 1) + 1, 2) for _ in range(n))
    residues = _residues(rng, min(n, rng.randint(2, 4)), family)
    classes = list(range(len(residues))) + [
        rng.randrange(len(residues)) for _ in range(n - len(residues))
    ]
    rng.shuffle(classes)
    out = []
    for j in classes:
        v = rng.randint(-lim, lim - 1) + residues[j]
        out.append(-v if family != "A" and rng.random() < 0.5 else v)
    return tuple(out)


def random_composition(rng, family: str, n: int) -> tuple[int, ...]:
    """A composition of n; for B/C/D half of them get a zero tail."""
    k = rng.randint(1, n)
    cuts = sorted(rng.sample(range(1, n), k - 1))
    comp = tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))
    if family != "A" and rng.random() < 0.5:
        comp += (0,)
    return comp


def dominant_weight(rng, family: str, comp: tuple[int, ...], kind: str) -> tuple[Fraction, ...]:
    """A p-dominant weight for the composition, of the given kind.

    Inside a block the entries fall by positive integers.  Without a zero
    tail the last B/C/D block also meets the last simple root, which forces
    its class: C keeps it integral, B and D allow integral or half-integral.
    """
    n = sum(comp)
    blocks = [b for b in comp if b > 0]
    generic = _residues(rng, rng.randint(2, 3), family) if kind == "generic" else None

    def offset(tail: bool) -> Fraction:
        if kind == "integral" or (tail and family == "C"):
            return Fraction(0)
        if kind == "half" or tail:
            return Fraction(1, 2) if kind == "half" or rng.random() < 0.5 else Fraction(0)
        return rng.choice(generic) * rng.choice((1, -1))

    w: list[Fraction] = []
    tail_meets_root = family != "A" and comp[-1] != 0
    for j, size in enumerate(blocks):
        if not (tail_meets_root and j == len(blocks) - 1):
            w.append(rng.randint(-2 * n, 2 * n) + offset(False))
            for _ in range(size - 1):
                w.append(w[-1] - rng.randint(1, 3))
            continue
        off = offset(True)
        if family == "D" and size == 1:
            # only alpha_n = e_{n-1} + e_n is retained: the sum is a positive integer
            w.append(rng.randint(1, 3) - w[-1])
            continue
        if family == "D":
            # e_{n-1} - e_n and e_{n-1} + e_n both pair to positive integers
            bottom = off + rng.randint(-3, 3)
            block = [bottom, bottom + max(1, 1 - int(2 * bottom)) + rng.randint(0, 2)]
        else:
            block = [off + rng.randint(0 if off else 1, 3)]
        while len(block) < size:
            block.append(block[-1] + rng.randint(1, 3))
        w.extend(reversed(block))
    return tuple(w)


# ------------------------------------------------------ traced library stages


def traced_gk_dimension(tr, weight, family: str) -> int:
    """``gk_dimension`` rebuilt from its public stages, each in a span."""
    with tr.span("gkdim.gk_dimension"):
        w = tuple(Fraction(v) for v in weight)
        n = len(w)
        check_family(family, n)

        def penalty(seq, kind: str) -> int:
            sh = tr.call("tableaux.rs_shape", rs_shape, seq)
            return tr.call("hollow.f_stat", f_stat, sh, kind)

        if family == "A":
            split = tr.call("weights.congruence_decompose", congruence_decompose, w, "typeA")
            return n * (n - 1) // 2 - sum(penalty(c.values, "a") for c in split.classes())
        split = tr.call("weights.congruence_decompose", congruence_decompose, w, "bcd")
        kind0, kind_half = _CLASS_KINDS[family]
        total = 0
        for cls, kind in ((split.integral, kind0), (split.half_integral, kind_half)):
            if cls is not None:
                total += penalty(tr.call("weights.double", double, cls.values), kind)
        for cls in split.others:
            total += penalty(tr.call("weights.tilde", tilde, cls.values), "a")
        return _ambient(family, n) - total


def traced_is_socular(tr, weight, setup) -> tuple[bool, int, int]:
    """``is_socular`` rebuilt from its public stages; returns (verdict, gk, dim u)."""
    with tr.span("parabolic.is_socular"):
        w = tuple(weight)
        if not tr.call("parabolic.is_p_dominant", is_p_dominant, w, setup):
            raise ValueError("weight is not p-dominant")
        gk = traced_gk_dimension(tr, w, setup.family)
        du = dim_nilradical(setup)
        comp = setup.normalized_composition
        if not is_integral(w):
            verdict = gk == du
        elif setup.family == "A":
            sh = tr.call("tableaux.rs_shape", rs_shape, w)
            verdict = transpose(sh) == tuple(sorted(comp, reverse=True))
        else:
            parity = "odd" if setup.family in ("B", "C") else "even"
            sh = tr.call("tableaux.rs_shape", rs_shape, tr.call("weights.double", double, w))
            candidate = tr.call("hollow.hollow", hollow, sh, parity)
            zd = tr.call("zdiagram.z_diagram", z_diagram, comp[-1], comp[:-1])
            verdict = candidate == tr.call("hollow.hollow", hollow, zd.shape, parity)
        return verdict, gk, du


def traced_richardson(tr, setup) -> tuple[int, ...]:
    """``richardson_partition`` rebuilt from the Z-diagram and collapse stages."""
    with tr.span("richardson.richardson_partition"):
        comp = setup.normalized_composition
        if setup.family == "A":
            return transpose(sorted(comp, reverse=True))
        tail = comp[-1]
        shape = tr.call("zdiagram.z_diagram", z_diagram, tail, comp[:-1]).shape
        if setup.family != "B":
            return tr.call("partitions.collapse", collapse, shape, setup.family)
        parts = list(shape)
        if 2 * tail < len(parts):
            parts[2 * tail] += 1
        else:
            parts.append(1)
        return tr.call("partitions.collapse", collapse, tuple(parts), "B")


# ------------------------------------------------------------------ workloads


# Host-speed reference.  The host's neighbours slow this CPU by up to 1.7x,
# for stretches from a tenth of a second to longer than a run (NOTES.md).  So
# every timed call is followed by a call of fixed work that uses no socular
# code, timed on its own, and the harness reports each call over the reference
# next to it: the host's speed at that moment cancels out.  A reference's
# ``ref_scale_ns`` is about its time on a quiet moment of the host the
# benchmark was tuned on, so a scaled latency reads about the same as a raw one
# there.
KERNEL_SCALE_NS = 200_000
BARE_SCALE_NS = 55_000_000
_KERNEL_DATA = [Fraction(i * 7 % 13 - 6, 1 + i % 5) for i in range(40)]


def reference_kernel() -> tuple:
    """Fraction sums, a dict and a sort on fixed data (about 0.2 ms), collector off.

    The same kind of work socular does, so host contention slows both alike.
    """
    gc.disable()
    try:
        acc, seen = Fraction(0), {}
        for x in _KERNEL_DATA:
            acc += x
            seen[x] = seen.get(x, 0) + 1
        return acc, len(seen), sorted(_KERNEL_DATA)[0]
    finally:
        gc.enable()


def timed(units, ops: int, tr=None, ref=None) -> Pass:
    """Call each ``(fn, args)`` in turn, timing every call on its own.

    An exception becomes the call's answer, so a failed operation is counted
    rather than ending the run.  With a tracer, spans carry the call's index.
    With ``ref``, each call is followed by ``ref()``, timed apart.
    """
    answers, lat, refs = [], [], []
    for i, (fn, args) in enumerate(units):
        if tr is not None:
            tr.op = i
        t0 = _clock()
        try:
            ans = fn(*args)
        except Exception as exc:
            ans = Raised(exc)
        lat.append(_clock() - t0)
        answers.append(ans)
        if ref is not None:
            t0 = _clock()
            ref()
            refs.append(_clock() - t0)
    p = Pass(answers, lat, ops, tr.spans if tr is not None else None)
    p.ref_ns = refs if ref is not None else None
    return p


class OpWorkload:
    """A pool of independent operations timed one at a time."""

    name = ""
    in_process = True
    reference = staticmethod(reference_kernel)
    ref_scale_ns = KERNEL_SCALE_NS

    def op(self, inp):
        raise NotImplementedError

    def traced_op(self, tr, inp):
        raise NotImplementedError

    def rank(self, i: int):
        """Rank of the i-th input, for the per-rank layer split (None: no split)."""
        return None

    def warm_up(self) -> None:
        timed(((self.op, (inp,)) for inp in self.warm), 0)

    @staticmethod
    def weight(answer) -> int:
        return 1

    def ops_per_pass(self) -> int:
        return len(self.pool)

    def timed_pass(self) -> Pass:
        return timed(((self.op, (inp,)) for inp in self.pool), len(self.pool), ref=self.reference)

    def traced_pass(self, tr) -> Pass:
        return timed(((self.traced_op, (tr, inp)) for inp in self.pool), len(self.pool), tr, self.reference)


class GkUnique(OpWorkload):
    """parse_weight + gk_dimension on long weights that never repeat."""

    name = "gk-unique"

    def __init__(self, rng, per_cell=3, ranks=(16, 64, 128, 256)):
        self.ranks = ranks
        seen: set = set()
        self.pool = self._cells(rng, per_cell, seen)
        rng.shuffle(self.pool)
        self.warm = self._cells(rng, 1, seen)

    def _cells(self, rng, per_cell, seen) -> list:
        # every (family, rank, kind) cell gets the same share, so percentiles do
        # not move with the seed's mix of ranks
        out = []
        for family in "ABCD":
            for n in self.ranks:
                for kind in _WEIGHT_KINDS:
                    for _ in range(per_cell):
                        w = random_weight(rng, family, n, kind)
                        while w in seen:
                            w = random_weight(rng, family, n, kind)
                        seen.add(w)
                        out.append((",".join(str(v) for v in w), family, n))
        return out

    def rank(self, i):
        return self.pool[i][2]

    def op(self, inp):
        text, family, _ = inp
        return gk_dimension(parse_weight(text), family)

    def traced_op(self, tr, inp):
        text, family, _ = inp
        return traced_gk_dimension(tr, tr.call("weights.parse_weight", parse_weight, text), family)

    def check(self, answers, rng) -> dict:
        bad = {}
        sample = set(rng.sample(range(len(self.pool)), max(1, len(self.pool) // 8)))
        for i, ((text, family, n), gk) in enumerate(zip(self.pool, answers)):
            if isinstance(gk, Raised):
                bad[i] = repr(gk)
                continue
            w = parse_weight(text)
            if not 0 <= gk <= _ambient(family, n):
                bad[i] = f"gk {gk} outside [0, {_ambient(family, n)}]"
            elif i in sample and gk_breakdown(w, family)["gkdim"] != gk:
                bad[i] = f"gk {gk} != gk_breakdown {gk_breakdown(w, family)['gkdim']}"
            elif family != "A" and is_integral(w):
                want = _ambient(family, n) - f_stat(rs_shape(double(w)), _CLASS_KINDS[family][0])
                if gk != want:
                    bad[i] = f"gk {gk} != integral formula {want}"
        return bad


class SocularQuery(OpWorkload):
    """The headline query: parabolic, socularity verdict, Richardson partition."""

    name = "socular-query"

    def __init__(self, rng, per_cell=5, ranks=(4, 8, 16, 32, 64)):
        self.pool = self._cells(rng, per_cell, ranks)
        rng.shuffle(self.pool)
        self.warm = self._cells(rng, 1, ranks)

    @staticmethod
    def _cells(rng, per_cell, ranks) -> list:
        # weights: half integral, a quarter half-integral, a quarter generic
        out = []
        for family in "ABCD":
            for n in ranks:
                for kind in ("integral", "integral", "half", "generic"):
                    for _ in range(per_cell):
                        comp = random_composition(rng, family, n)
                        w = dominant_weight(rng, family, comp, kind)
                        if not is_p_dominant(w, parabolic_from_composition(family, comp)):
                            raise RuntimeError(f"generated weight {w} is not dominant for {comp}")
                        out.append((family, comp, w))
        return out

    def rank(self, i):
        return len(self.pool[i][2])

    def op(self, inp):
        family, comp, w = inp
        setup = parabolic_from_composition(family, comp)
        cert = is_socular(w, setup)
        return cert.verdict, cert.gk, cert.dim_u, richardson_partition(setup).partition

    def traced_op(self, tr, inp):
        family, comp, w = inp
        setup = tr.call("parabolic.parabolic_from_composition", parabolic_from_composition, family, comp)
        return traced_is_socular(tr, w, setup) + (traced_richardson(tr, setup),)

    def check(self, answers, rng) -> dict:
        bad = {}
        for i, ((family, comp, w), ans) in enumerate(zip(self.pool, answers)):
            if isinstance(ans, Raised):
                bad[i] = repr(ans)
                continue
            verdict, gk, du, part = ans
            setup = parabolic_from_composition(family, comp)
            n = setup.n
            total = {"A": n, "B": 2 * n + 1}.get(family, 2 * n)
            if du != dim_nilradical(setup) or not 0 <= gk <= du:
                bad[i] = f"gk {gk} / dim u {du} inconsistent"
            elif verdict and gk != du:
                bad[i] = f"socular verdict with gk {gk} != dim u {du}"
            elif sum(part) != total:
                bad[i] = f"Richardson partition {part} does not total {total}"
            elif family != "A" and not (
                is_orbit_partition(part, family) and is_special(part, family)
            ):
                bad[i] = f"Richardson partition {part} is not a special orbit partition"
            elif orbit_dimension(part, family) != 2 * du:
                bad[i] = f"orbit dimension of {part} != 2 dim u = {2 * du}"
        return bad


class OracleSweep:
    """Brute-force cross-checks on tiny inputs; an operation is one comparison.

    A pass is a shuffled list of small library calls: ``check_socular`` for one
    family and one window at rank <= 2, one fast-against-oracle comparison of
    ``collapse`` or ``h_algorithm``, or one ``expand``.  No call takes more than
    tens of milliseconds, so each gets a sample in every pass (see NOTES.md).
    """

    name = "oracle-sweep"
    in_process = True
    reference = staticmethod(reference_kernel)
    ref_scale_ns = KERNEL_SCALE_NS

    def __init__(self, rng, windows=(3, 4, 5), max_n=2, max_total=12, expand_total=14):
        self.expand_inputs = [
            (p, f)
            for total in range(1, expand_total + 1)
            for p in partitions_of(total)
            for f in "BCD"
            if total % 2 == (f == "B") and is_orbit_partition(p, f)
        ]
        collapse_pairs = [
            ("collapse", p, f)
            for total in range(max_total + 1)
            for p in partitions_of(total)
            for f in "BCD"
            if total % 2 == (f == "B")
        ]
        halg_pairs = [
            ("halg", p, f)
            for total in range(0, max_total + 1, 2)
            for p in partitions_of(total)
            if is_domino_type(p)
            for f in "BCD"
        ]
        budgets = [
            EnumerationBudget(max_total=max_total, entry_window=(-k, k), max_n=max_n) for k in windows
        ]
        self.units = (
            [(check_socular, (b, (f,))) for b in budgets for f in "ABCD"]
            + [(self.compare, pair) for pair in collapse_pairs + halg_pairs]
            + [(expand, pf) for pf in self.expand_inputs]
        )
        rng.shuffle(self.units)
        self.ops = sum(self._socular_comparisons(*args) for fn, args in self.units if fn is check_socular)
        self.ops += len(collapse_pairs) + len(halg_pairs) + len(self.expand_inputs)

    @staticmethod
    def _socular_comparisons(budget, families) -> int:
        # per setup: max GK against dim u, then one verdict per p-dominant weight
        count = 0
        for family in families:
            for n in range(2 if family in "AD" else 1, budget.max_n + 1):
                top = n - 1 if family == "A" else n
                for mask in range(1 << top):
                    setup = parabolic_from_roots(family, n, {i + 1 for i in range(top) if mask >> i & 1})
                    count += 1 + sum(
                        1 for w in integral_weights(n, budget.entry_window) if is_p_dominant(w, setup)
                    )
        return count

    # one comparison of check_collapse / check_halg: the fast function and its oracle
    PAIRS = {"collapse": (collapse, collapse_oracle), "halg": (h_algorithm, restricted_transform_oracle)}

    @classmethod
    def compare(cls, label, p, f, tr=None) -> list[str]:
        """The failure lines ``check_collapse`` / ``check_halg`` would give for one input."""
        fast_fn, oracle_fn = cls.PAIRS[label]
        if tr is None:
            fast, slow = fast_fn(p, f), oracle_fn(p, f)
        else:
            with tr.span(f"oracles.check_{label}"):
                fast = tr.call(layer(fast_fn), fast_fn, p, f)
                slow = tr.call(layer(oracle_fn), oracle_fn, p, f)
        return [] if fast == slow else [f"{label} {p} {f}: {fast} != oracle {slow}"]

    def ops_per_pass(self) -> int:
        return self.ops

    def rank(self, i):
        return None

    def warm_up(self) -> None:
        small = EnumerationBudget(max_total=6, entry_window=(-3, 3), max_n=2)
        units = [(check_socular, (small, ("B",))), (check_collapse, (small,)), (check_halg, (small,))]
        timed(units + [(expand, pf) for pf in self.expand_inputs[:20]], 0)

    def timed_pass(self) -> Pass:
        return timed(self.units, self.ops, ref=self.reference)

    def traced_pass(self, tr) -> Pass:
        def traced_units():
            for fn, args in self.units:
                if fn == self.compare:
                    yield fn, (*args, tr)
                else:
                    yield tr.call, (layer(fn), fn, *args)

        return timed(traced_units(), self.ops, tr, self.reference)

    def check(self, answers, rng) -> dict:
        """Each failure line of a check, and each expand mismatch, is one failed comparison."""
        bad = {}
        for i, ((fn, args), ans) in enumerate(zip(self.units, answers)):
            if isinstance(ans, Raised):
                bad[i] = repr(ans)
            elif fn is not expand:
                if ans:
                    bad[i] = "; ".join(ans)
            else:
                p, f = args
                want = transpose(collapse(transpose(p), "B" if f == "B" else "C"))
                if ans != want:
                    bad[i] = f"expand {p} {f}: {ans!r} != transpose-collapse-transpose {want}"
        return bad

    @staticmethod
    def weight(answer) -> int:
        """Failed comparisons behind one failed answer: a check reports one line each."""
        return len(answer) if isinstance(answer, list) and answer else 1


# ------------------------------------------------------------------------ cli

_CLI_CODE = "from socular.cli import main; main()"
_CLI_TRACED_CODE = (
    "import sys, time; t0 = time.perf_counter_ns(); import socular.cli as cli; "
    "t1 = time.perf_counter_ns(); code = cli.run(); t2 = time.perf_counter_ns(); "
    "sys.stdout.flush(); print(t0, t1, t2, file=sys.stderr); sys.exit(code)"
)
CLI_COMMANDS = ("gkdim", "socular", "richardson", "zdiagram", "halg", "collapse", "expand")


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


class Cli(OpWorkload):
    """One sequential subprocess per operation, running ``socular.cli:main``."""

    name = "cli"
    in_process = False
    ref_scale_ns = BARE_SCALE_NS  # a bare ``python -c pass``, spawn to exit

    def __init__(self, rng, per_command=3):
        self.root = os.getcwd()
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        self.pool = [self._make(rng, cmd) for _ in range(per_command) for cmd in CLI_COMMANDS]
        self.warm = [self._make(rng, cmd) for cmd in CLI_COMMANDS[:3]]

    @staticmethod
    def _make(rng, cmd: str) -> tuple[list[str], str]:
        """argv for one call and the line(s) the library says it must print."""
        family = rng.choice("ABCD")
        if cmd == "gkdim":
            n = rng.randint(2, 8)
            w = random_weight(rng, family, n, rng.choice(_WEIGHT_KINDS))
            argv = [cmd, "--family", family, "--n", str(n), f"--weight={_csv(w)}"]
            return argv, str(gk_dimension(w, family))
        if cmd in ("socular", "richardson"):
            n = rng.randint(2, 8)
            comp = random_composition(rng, family, n)
            setup = parabolic_from_composition(family, comp)
            argv = [cmd, "--family", family, "--n", str(n), f"--parabolic={_csv(comp)}"]
            if cmd == "richardson":
                return argv, format_partition(richardson_partition(setup).partition)
            w = dominant_weight(rng, family, comp, rng.choice(_WEIGHT_KINDS))
            verdict = is_socular(w, setup).verdict
            return argv + [f"--weight={_csv(w)}"], f"socular: {'true' if verdict else 'false'}"
        if cmd == "zdiagram":
            a0 = rng.randint(0, 3)
            bs = [rng.randint(1, 4) for _ in range(rng.randint(0 if a0 else 1, 3))]
            shape = z_diagram(a0, bs).shape
            argv = [cmd, "--a0", str(a0)] + (["--b", _csv(bs)] if bs else [])
            return argv, format_partition(shape) + "\n" + render_diagram(shape)
        family = rng.choice("BCD")
        if cmd == "halg":
            cands = [p for t in range(2, 13, 2) for p in partitions_of(t) if is_domino_type(p)]
            fn = h_algorithm
        elif cmd == "collapse":
            cands = [p for t in range(1, 13) if t % 2 == (family == "B") for p in partitions_of(t)]
            fn = collapse
        else:
            cands = [p for t in range(1, 13) for p in partitions_of(t) if is_orbit_partition(p, family)]
            fn = expand
        p = rng.choice(cands)
        return [cmd, "--partition", _csv(p), "--family", family], format_partition(fn(p, family))

    def _spawn(self, code: str, argv) -> tuple[subprocess.CompletedProcess, int, int]:
        t0 = _clock()
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        return proc, t0, _clock()

    def op(self, inp):
        argv, _ = inp
        proc, _, _ = self._spawn(_CLI_CODE, argv)
        return proc.returncode, proc.stdout

    def reference(self) -> None:
        # what any CLI call pays before socular runs
        self._spawn("pass", [])

    def traced_op(self, tr, inp):
        argv, _ = inp
        proc, start, end = self._spawn(_CLI_TRACED_CODE, argv)
        stamps = [int(v) for v in proc.stderr.split()[-3:]]
        points = [start, *stamps, end]
        if points != sorted(points):
            raise RuntimeError(f"child timestamps out of order: {points}")
        parent = tr.add("cli.call", start, end)
        for name, a, b in zip(("cli.startup", "cli.import", "cli.command", "cli.exit"), points, points[1:]):
            tr.add(name, a, b, parent)
        return proc.returncode, proc.stdout

    def interpreter_floor(self, tr, runs: int) -> None:
        """Spans of a bare ``python -c pass``: what any CLI call pays before importing."""
        for _ in range(runs):
            _, start, end = self._spawn("pass", [])
            tr.add("cli.interpreter", start, end)

    def check(self, answers, rng) -> dict:
        bad = {}
        for i, ((argv, want), ans) in enumerate(zip(self.pool, answers)):
            if isinstance(ans, Raised):
                bad[i] = repr(ans)
            elif ans != (0, want + "\n"):
                bad[i] = f"{' '.join(argv)}: got {ans!r}, library says {want!r}"
        return bad


WORKLOADS = {
    "gk-unique": GkUnique,
    "socular-query": SocularQuery,
    "oracle-sweep": OracleSweep,
    "cli": Cli,
}
