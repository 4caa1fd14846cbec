"""The benchmark's four workloads.

Each workload builds its inputs from the seed in its constructor (that is
the set-up that `setup_s` times) and then serves items by index: item i is
the same input on every run with the same seed. `item(i)` does one unit of
user-visible work through the package's public functions and returns the
outcome; `answer` is the outcome a correct program gives on every item.
Calls go through module attributes (`self.verify.fuzz_campaign`, ...) so a
Recorder's wrappers see them.
"""

from __future__ import annotations

import glob
import importlib
import os
import random
import sys

NAMES = ("campaign", "rewrite", "longrun", "mutants")


class SetupError(Exception):
    """The checkout does not hold what the benchmark needs."""


def load_package(root: str):
    """Import loop2rec from `root`/src and nowhere else."""
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.isfile(os.path.join(src, "loop2rec", "__init__.py")):
        raise SetupError(f"no loop2rec package under {src}")
    sys.path.insert(0, src)
    pkg = importlib.import_module("loop2rec")
    if os.path.dirname(os.path.dirname(os.path.realpath(pkg.__file__))) != src:
        raise SetupError(f"imported loop2rec from {pkg.__file__}, not {src}")
    return pkg


class Workload:
    answer = "equivalent"
    exact_items = 6  # items of the counts pass, from index 0

    def __init__(self, pkg, seed: int, mutation=None):
        self.pkg = pkg
        self.opts = pkg.TransformOptions(mutation=mutation)
        for name in ("parser", "checker", "transform", "printer", "interp",
                     "verify", "ast"):
            setattr(self, name, getattr(pkg, name))

    def item(self, i: int, counting: bool = False) -> str:
        raise NotImplementedError


class Campaign(Workload):
    """The `loop2rec fuzz` battery, one generated program per item."""

    exact_items = 60

    def __init__(self, pkg, seed, mutation=None):
        super().__init__(pkg, seed, mutation)
        self.base = seed * 100_000

    def item(self, i, counting=False):
        cfg = self.pkg.GenConfig(seed=self.base + i)
        summary = self.verify.fuzz_campaign(1, cfg, opts=self.opts)
        return "equivalent" if summary.ok else "mismatch"


class Rewrite(Workload):
    """`transform --verify` and `analyze` on source text."""

    answer = "round-trips"
    generated = 480

    def __init__(self, pkg, seed, mutation=None, root="."):
        super().__init__(pkg, seed, mutation)
        paths = sorted(glob.glob(os.path.join(root, "corpus", "*.mj")))
        if not paths:
            raise SetupError(f"no corpus/*.mj under {root}")
        self.texts = []
        for path in paths:
            with open(path, encoding="utf-8") as f:
                self.texts.append(f.read())
        for j in range(self.generated):
            cfg = pkg.GenConfig(seed=seed * 1000 + j, max_depth=4, max_loops=6)
            self.texts.append(pkg.pretty_print(pkg.generate(cfg)))
        self.exact_items = len(self.texts)  # one full cycle of the inputs

    def item(self, i, counting=False):
        program = self.parser.parse(self.texts[i % len(self.texts)])
        if self.checker.check_semantics(program):
            return "input-rejected"
        self.transform.analyze_program(program)
        result = self.transform.transform_program(program, self.opts)
        text = self.printer.pretty_print(result.program)
        again = self.parser.parse(text)
        if self.checker.check_semantics(again):
            return "output-rejected"
        if counting:
            # steps of the original and the rewrite, for steps_ratio only
            for p in (program, result.program):
                try:
                    self.interp.run(p, budget=100_000)
                except self.pkg.InterpError:
                    pass
        return "round-trips" if self.ast.structural_eq(again, result.program) \
            else "round-trip-differs"


LONGRUN_TEMPLATE = """\
void main() {{
    double acc = 0.5;
    int n = 0;
    int w = {w};
    while (w > 0) {{
        acc = acc + 0.25;
        n = n + 1;
        w = w - 1;
    }}
    int m = 7;
    int d = {d};
    do {{
        m = m + 3;
        d = d - 1;
    }} while (d > 0);
    int s = 0;
    for (int i = 0; i < {f}; i = i + 1) {{
        s = s + i;
    }}
    double[] arr = new double[] {{ {arr} }};
    double t = 0.0;
    for (double e : arr) {{
        t = t + e;
    }}
    List<double> lst = new List<double> {{ {lst} }};
    for (double x : lst) {{
        acc = acc * 0.5 + x;
    }}
    int total = 0;
    int o = {o};
    while (o > 0) {{
        int k = {k};
        while (k > 0) {{
            total = total + o;
            k = k - 1;
        }}
        o = o - 1;
    }}
    print(acc);
    print(n);
    print(m);
    print(t);
    print(total);
}}
"""


class Longrun(Workload):
    """`diff_run` over long-running programs from LONGRUN_TEMPLATE.

    Every program has the five loop kinds and one nested pair (six slots).
    Program j runs slot j about DOMINANT times (drawn within 10%) and every
    other slot 500 to 1,500 times, so each loop kind gets a long native loop
    and a long tail chain, and every seed does about the same work."""

    SLOTS = ("while", "do", "for", "foreach_array", "foreach_list", "nested")
    DOMINANT = 18_000

    def __init__(self, pkg, seed, mutation=None):
        super().__init__(pkg, seed, mutation)
        rng = random.Random(seed)
        self.inputs = []
        for slot in self.SLOTS:
            counts = {s: rng.randint(500, 1_500) for s in self.SLOTS}
            counts[slot] = int(self.DOMINANT * rng.uniform(0.9, 1.1))
            program = pkg.parse(self._source(rng, counts))
            errors = pkg.check_semantics(program)
            if errors:
                raise SetupError(f"longrun template does not check: {errors[0]}")
            self.inputs.append(program)

    @staticmethod
    def _source(rng, counts) -> str:
        def elems(n):
            return ", ".join(rng.choice(("0.5", "1.5", "2.0", "-1.0", "3.25"))
                             for _ in range(n))
        outer = rng.randint(10, 40)
        return LONGRUN_TEMPLATE.format(
            w=counts["while"], d=counts["do"], f=counts["for"],
            arr=elems(counts["foreach_array"]), lst=elems(counts["foreach_list"]),
            o=outer, k=max(1, counts["nested"] // outer))

    def item(self, i, counting=False):
        report = self.verify.diff_run(self.inputs[i % len(self.inputs)], self.opts)
        return report.verdict


class Mutants(Workload):
    """Convict every shipped transformer mutation from one seeded start
    point per item: a campaign per mutation that stops at its first mismatch."""

    answer = "mismatch"
    exact_items = 8
    budget = 100_000
    max_programs = 500

    def __init__(self, pkg, seed, mutation=None):
        super().__init__(pkg, seed, mutation)
        self.base = seed * 100_000

    def item(self, i, counting=False):
        cfg = self.pkg.GenConfig(seed=self.base + i * 10)
        for mutation in self.pkg.Mutation:
            summary = self.verify.fuzz_campaign(
                self.max_programs, cfg, budget=self.budget,
                opts=self.pkg.TransformOptions(mutation=mutation), stop_on_first=True)
            if not summary.mismatches:
                return f"{mutation.value} escaped"
        return "mismatch"


def build(name: str, pkg, seed: int, root: str, mutation=None) -> Workload:
    if name == "campaign":
        return Campaign(pkg, seed, mutation)
    if name == "rewrite":
        return Rewrite(pkg, seed, mutation, root=root)
    if name == "longrun":
        return Longrun(pkg, seed, mutation)
    if name == "mutants":
        return Mutants(pkg, seed, mutation)
    raise ValueError(f"unknown workload {name!r}")
