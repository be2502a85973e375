"""Per-rule fixtures: each rule fires on a seeded violation and stays
quiet on the compliant twin."""

from __future__ import annotations

import textwrap

from repro.tools.lint import lint_source


def run(source: str, path: str = "src/repro/system/example.py",
        rules: set[str] | None = None):
    return lint_source(textwrap.dedent(source), path, rules=rules)


def rule_names(findings) -> list[str]:
    return [f.rule for f in findings]


# -- no-ambient-rng -----------------------------------------------------------

class TestAmbientRng:
    def test_fires_on_numpy_global_state(self):
        findings = run("""
            import numpy as np
            x = np.random.rand(3)
        """)
        assert rule_names(findings) == ["no-ambient-rng"]
        assert "hidden global stream" in findings[0].message

    def test_fires_on_stdlib_random(self):
        findings = run("""
            import random
            x = random.random()
            random.shuffle([1, 2])
        """)
        assert rule_names(findings) == ["no-ambient-rng"] * 2

    def test_fires_on_default_rng_even_seeded(self):
        findings = run("""
            import numpy as np
            a = np.random.default_rng()
            b = np.random.default_rng(7)
        """)
        assert rule_names(findings) == ["no-ambient-rng"] * 2

    def test_fires_through_import_aliases(self):
        findings = run("""
            from numpy import random as nr
            nr.seed(0)
        """)
        assert rule_names(findings) == ["no-ambient-rng"]

    def test_quiet_on_pinned_generator_use(self):
        assert run("""
            import numpy as np

            def draw(rng: np.random.Generator) -> float:
                rng.shuffle([1, 2])
                return rng.random()
        """) == []

    def test_quiet_on_keyed_bitgen_construction(self):
        # Compression codecs derive generators from wire-carried seeds.
        assert run("""
            import numpy as np
            rng = np.random.Generator(np.random.Philox(key=5))
        """) == []

    def test_quiet_on_local_name_shadowing(self):
        # A local variable named `random` is not the stdlib module.
        assert run("""
            def f(random):
                return random.choice([1])
        """) == []

    def test_registry_module_is_exempt(self):
        source = """
            import numpy as np
            rng = np.random.default_rng(0)
        """
        assert run(source, path="src/repro/sim/rng.py") == []
        assert rule_names(run(source)) == ["no-ambient-rng"]


# -- no-wall-clock ------------------------------------------------------------

class TestWallClock:
    def test_fires_on_time_module(self):
        findings = run("""
            import time
            t0 = time.time()
            t1 = time.monotonic()
            t2 = time.perf_counter()
        """)
        assert rule_names(findings) == ["no-wall-clock"] * 3

    def test_fires_on_from_imports(self):
        findings = run("""
            from time import monotonic
            from datetime import datetime
            a = monotonic()
            b = datetime.now()
        """)
        assert rule_names(findings) == ["no-wall-clock"] * 2

    def test_quiet_on_simulated_time(self):
        assert run("""
            def fire(loop):
                return loop.now() + 3.0
        """) == []

    def test_perf_harness_is_exempt(self):
        assert run("""
            import time
            t0 = time.perf_counter()
        """, path="src/repro/tools/perf.py") == []


# -- no-global-rebind ---------------------------------------------------------

class TestGlobalRebind:
    def test_fires_on_global_statement(self):
        findings = run("""
            _MODE = "fast"

            def set_mode(mode):
                global _MODE
                previous, _MODE = _MODE, mode
                return previous
        """)
        assert rule_names(findings) == ["no-global-rebind"]
        assert "global _MODE" in findings[0].message

    def test_quiet_on_explicit_arguments(self):
        assert run("""
            _DEFAULT_MODE = "fast"

            def run(mode=_DEFAULT_MODE):
                return mode
        """) == []


# -- no-unordered-iteration ---------------------------------------------------

SIM_PATH = "src/repro/sim/example.py"


class TestUnorderedIteration:
    def test_fires_on_set_literal_iteration(self):
        findings = run("""
            for x in {1, 2, 3}:
                print(x)
        """, path=SIM_PATH)
        assert rule_names(findings) == ["no-unordered-iteration"]

    def test_fires_on_tracked_set_name(self):
        findings = run("""
            def f(items):
                seen = set(items)
                return [x + 1 for x in seen]
        """, path=SIM_PATH)
        assert rule_names(findings) == ["no-unordered-iteration"]

    def test_fires_on_self_attr_set(self):
        findings = run("""
            class Plane:
                def __init__(self):
                    self._dropped = set()

                def drain(self):
                    for d in self._dropped:
                        d.close()
        """, path=SIM_PATH)
        assert rule_names(findings) == ["no-unordered-iteration"]

    def test_fires_on_list_over_set_and_set_pop(self):
        findings = run("""
            def f():
                s = {1, 2}
                order = list(s)
                first = s.pop()
                return order, first
        """, path=SIM_PATH)
        assert rule_names(findings) == ["no-unordered-iteration"] * 2

    def test_fires_on_set_unpacking(self):
        findings = run("""
            a, b = {1, 2}
        """, path=SIM_PATH)
        assert rule_names(findings) == ["no-unordered-iteration"]

    def test_fires_on_dict_mutated_under_iteration(self):
        findings = run("""
            def f(d):
                for k in d:
                    if k < 0:
                        d.pop(k)
        """, path=SIM_PATH)
        assert rule_names(findings) == ["no-unordered-iteration"]
        assert "mutating" in findings[0].message

    def test_quiet_on_sorted_iteration(self):
        assert run("""
            def f():
                s = {3, 1, 2}
                for x in sorted(s):
                    print(x)
                return [y for y in sorted(s)]
        """, path=SIM_PATH) == []

    def test_quiet_on_membership_and_len(self):
        assert run("""
            def f(s: set[int]) -> bool:
                return 3 in s and len(s) > 2
        """, path=SIM_PATH) == []

    def test_quiet_on_plain_dict_iteration(self):
        assert run("""
            def f(d):
                out = []
                for k, v in d.items():
                    out.append((k, v))
                return out
        """, path=SIM_PATH) == []

    def test_quiet_outside_event_ordering_trees(self):
        # nn/ math is order-free: the rule is scoped to sim/actors/system/device.
        assert run("""
            for x in {1, 2, 3}:
                print(x)
        """, path="src/repro/nn/example.py") == []


# -- snapshot-unsafe-state ----------------------------------------------------

ACTOR_PATH = "src/repro/actors/example.py"


class TestSnapshotUnsafeState:
    def test_fires_on_lambda_actor_state(self):
        findings = run("""
            class Coordinator:
                def __init__(self):
                    self.guard = lambda: True
        """, path=ACTOR_PATH)
        assert rule_names(findings) == ["snapshot-unsafe-state"]
        assert "snapshot" in findings[0].message

    def test_fires_on_local_function_object(self):
        findings = run("""
            class Fleet:
                def arm(self):
                    def check():
                        return True
                    self.check = check
        """, path=ACTOR_PATH)
        assert rule_names(findings) == ["snapshot-unsafe-state"]

    def test_fires_on_generator_object_and_dict_slot(self):
        findings = run("""
            class Plane:
                def __init__(self, xs):
                    self.stream = (x for x in xs)
                    self.handlers = {}
                    self.handlers["f"] = lambda m: m
        """, path="src/repro/sim/example.py")
        assert rule_names(findings) == ["snapshot-unsafe-state"] * 2

    def test_fires_on_local_class_instance(self):
        findings = run("""
            class Fleet:
                def build(self):
                    class Runtime:
                        pass
                    self.runtime = Runtime()
        """, path=ACTOR_PATH)
        assert rule_names(findings) == ["snapshot-unsafe-state"]

    def test_fires_on_lambda_default_factory_anywhere(self):
        findings = run("""
            from dataclasses import dataclass, field

            @dataclass
            class Config:
                job: object = field(default_factory=lambda: object())
        """, path="src/repro/core/example.py")
        assert rule_names(findings) == ["snapshot-unsafe-state"]
        assert "module-level function" in findings[0].message

    def test_quiet_on_bound_method_and_module_function(self):
        assert run("""
            import functools

            def default_job():
                return 3

            class Coordinator:
                def __init__(self):
                    self.guard = self._check
                    self.factory = default_job
                    self.partial = functools.partial(default_job)

                def _check(self):
                    return True
        """, path=ACTOR_PATH) == []

    def test_quiet_on_calling_local_helper(self):
        # Calling a local function stores its (picklable) return value.
        assert run("""
            class Plane:
                def grow(self, arr):
                    def extend(a):
                        return a + a
                    self.rows = extend(arr)
        """, path="src/repro/sim/example.py") == []

    def test_module_level_default_factory_is_quiet(self):
        assert run("""
            from dataclasses import dataclass, field

            def default_job():
                return object()

            @dataclass
            class Config:
                job: object = field(default_factory=default_job)
        """, path="src/repro/core/example.py") == []


# -- inplace-op-discipline ----------------------------------------------------

NN_PATH = "src/repro/nn/example.py"


class TestInplaceDiscipline:
    def test_fires_on_allocator_in_inplace_op(self):
        findings = run("""
            import numpy as np

            def step_(w, g):
                scratch = np.zeros(w.size)
                np.multiply(g, 0.1, out=scratch)
                np.subtract(w, scratch, out=w)
                return w
        """)
        assert rule_names(findings) == ["inplace-op-discipline"]
        assert "np.zeros" in findings[0].message

    def test_fires_on_missing_out(self):
        findings = run("""
            import numpy as np

            def scale_(w, f):
                w2 = np.multiply(w, f)
                return w2
        """)
        assert rule_names(findings) == ["inplace-op-discipline"]
        assert "out=" in findings[0].message

    def test_fires_on_copy_method(self):
        findings = run("""
            def fold_(acc, v):
                acc.pending = v.copy()
        """)
        assert rule_names(findings) == ["inplace-op-discipline"]

    def test_quiet_with_out_and_outside_inplace_ops(self):
        assert run("""
            import numpy as np

            def step_(w, g, scratch):
                np.multiply(g, 0.1, out=scratch)
                np.subtract(w, scratch, out=w)
                return w

            def snapshot(w):
                # Allocation is fine outside *_ ops.
                return np.array(w)

            def __make__():
                return np.zeros(3)
        """) == []

    def test_fires_on_hot_path_to_vector_without_out(self):
        findings = run("""
            def report(delta):
                return delta.to_vector()
        """, path=NN_PATH)
        assert rule_names(findings) == ["inplace-op-discipline"]
        assert "to_vector" in findings[0].message

    def test_quiet_on_to_vector_with_out_or_cold_path(self):
        source = """
            def report(delta, buf):
                return delta.to_vector(out=buf)
        """
        assert run(source, path=NN_PATH) == []
        # Cold paths may take the fresh-copy form.
        assert run("""
            def report(delta):
                return delta.to_vector()
        """, path="src/repro/system/example.py") == []

    def test_secagg_is_a_hot_path(self):
        """The vectorized SecAgg plane is covered by both clauses: the
        directory-scoped to_vector policy and the global *_ policy on
        its stacked mask/commit kernels."""
        findings = run("""
            def commit(delta):
                return delta.to_vector()
        """, path="src/repro/secagg/vectorized.py")
        assert rule_names(findings) == ["inplace-op-discipline"]
        findings = run("""
            import numpy as np

            def _apply_masks_(masked, rows):
                extra = np.zeros_like(masked)
                masked += rows + extra
        """, path="src/repro/secagg/vectorized.py")
        assert rule_names(findings) == ["inplace-op-discipline"]
        assert "zeros_like" in findings[0].message
        assert run("""
            def _apply_masks_(masked, rows):
                masked += rows
        """, path="src/repro/secagg/vectorized.py") == []

    BIGMOD_PATH = "src/repro/secagg/bigmod.py"

    def test_fires_on_object_dtype_in_bigmod_kernel(self):
        findings = run("""
            import numpy as np

            def _mont_reduce(limbs):
                return np.array(limbs, dtype=object).sum()
        """, path=self.BIGMOD_PATH)
        assert rule_names(findings) == ["inplace-op-discipline"]
        assert "object" in findings[0].message

    def test_fires_on_astype_object_in_bigmod_kernel(self):
        findings = run("""
            def powmod_batch(limbs):
                return limbs.astype(object)
        """, path=self.BIGMOD_PATH)
        assert rule_names(findings) == ["inplace-op-discipline"]
        assert "boundary" in findings[0].message

    def test_quiet_on_object_dtype_in_bigmod_boundary(self):
        # The int<->limb boundary helpers are the declared escape hatch,
        # and the clause is scoped to bigmod.py only.
        source = """
            import numpy as np

            def _to_limbs(values):
                return np.array(values, dtype=object)

            def _from_limbs(limbs):
                return limbs.astype(object).tolist()
        """
        assert run(source, path=self.BIGMOD_PATH) == []
        assert run("""
            import numpy as np
            table = np.array([1, 2], dtype=object)
        """, path="src/repro/secagg/vectorized.py") == []


# -- report-vector-immutability -----------------------------------------------

AGG_PATH = "src/repro/actors/aggregator.py"


class TestReportImmutability:
    def test_fires_on_augmented_assign(self):
        findings = run("""
            def fold(result):
                v = result.delta_vector
                v += 1.0
        """)
        assert rule_names(findings) == ["report-vector-immutability"]

    def test_fires_on_direct_attribute_mutation(self):
        findings = run("""
            def clamp(report):
                report.delta_vector[0] = 0.0
                report.delta_vector *= 0.5
        """)
        assert rule_names(findings) == ["report-vector-immutability"] * 2

    def test_fires_on_inplace_methods_and_out(self):
        findings = run("""
            import numpy as np

            def scrub(result, noise):
                v = result.delta_vector
                v.fill(0.0)
                np.add(v, noise, out=v)
                np.copyto(v, noise)
        """)
        # fill, out=, copyto — three distinct writes.
        assert rule_names(findings) == ["report-vector-immutability"] * 3

    def test_fires_on_pending_reports_in_aggregator(self):
        findings = run("""
            class Aggregator:
                def flush(self):
                    for device_id in list(self._pending):
                        vec, weight = self._pending[device_id]
                        vec *= weight
        """, path=AGG_PATH)
        assert rule_names(findings) == ["report-vector-immutability"]

    def test_quiet_on_reads_and_fresh_copies(self):
        assert run("""
            import numpy as np

            def fold(result, acc):
                v = result.delta_vector
                acc += v          # writes acc, reads v
                total = v.sum()
                w = v.copy()
                w += 1.0          # fresh storage — legal
                return total, w
        """) == []

    def test_quiet_on_pending_outside_aggregators(self):
        # `pending` tracking is scoped to aggregator modules.
        assert run("""
            def tick(self):
                window = self.pending_window
                window += 1.0
        """, path="src/repro/sim/example.py") == []
