"""Unit tests for the SC001-SC008 AST lint rules, plus the repo self-scan."""

import pathlib
import textwrap

import pytest

from repro.analysis.static_check import diff_against_baseline, run_lint
from repro.analysis.static_check.lint import RULES, lint_source, rules_for_path

REPO_ROOT = pathlib.Path(__file__).parents[3]


# The determinism rules; snippets below carry no module docstring, so the
# SC005 coverage rule is exercised separately in TestSC005Docstrings.
DETERMINISM_RULES = ("SC001", "SC002", "SC003", "SC004")


def rules_of(source, rules=DETERMINISM_RULES, **kwargs):
    return [v.rule for v in lint_source(textwrap.dedent(source), rules=rules, **kwargs)]


class TestSC001Randomness:
    def test_global_random_call_flagged(self):
        assert rules_of(
            """
            import random
            x = random.randint(0, 3)
            """
        ) == ["SC001"]

    def test_aliased_import_tracked(self):
        assert rules_of(
            """
            import random as rnd
            rnd.shuffle(items)
            """
        ) == ["SC001"]

    def test_from_import_tracked(self):
        assert rules_of(
            """
            from random import shuffle
            shuffle(items)
            """
        ) == ["SC001"]

    def test_seeded_random_instance_ok(self):
        assert rules_of(
            """
            import random
            rng = random.Random(42)
            rng.shuffle(items)
            """
        ) == []

    def test_unseeded_random_instance_flagged(self):
        assert rules_of(
            """
            import random
            rng = random.Random()
            """
        ) == ["SC001"]

    def test_numpy_global_state_flagged(self):
        assert rules_of(
            """
            import numpy as np
            x = np.random.permutation(10)
            """
        ) == ["SC001"]

    def test_numpy_default_rng_needs_seed(self):
        assert rules_of(
            """
            from numpy.random import default_rng
            a = default_rng()
            b = default_rng(7)
            """
        ) == ["SC001"]

    def test_seeding_the_module_is_not_flagged(self):
        # random.seed(...) is how tests pin the global state; allowed.
        assert rules_of(
            """
            import random
            random.seed(0)
            """
        ) == []


class TestSC002WallClock:
    def test_time_time_flagged(self):
        assert rules_of(
            """
            import time
            t = time.time()
            """
        ) == ["SC002"]

    def test_perf_counter_from_import_flagged(self):
        assert rules_of(
            """
            from time import perf_counter
            t = perf_counter()
            """
        ) == ["SC002"]

    def test_datetime_now_flagged(self):
        assert rules_of(
            """
            from datetime import datetime
            t = datetime.now()
            """
        ) == ["SC002"]

    def test_datetime_module_path_flagged(self):
        assert rules_of(
            """
            import datetime
            t = datetime.datetime.utcnow()
            """
        ) == ["SC002"]

    def test_time_sleep_is_fine(self):
        assert rules_of(
            """
            import time
            time.sleep(1)
            """
        ) == []


class TestSC003BareAssert:
    def test_assert_flagged(self):
        assert rules_of("assert x > 0\n") == ["SC003"]

    def test_raise_is_fine(self):
        assert rules_of(
            """
            if x <= 0:
                raise ValueError("x must be positive")
            """
        ) == []


class TestSC004SetIteration:
    def test_for_over_set_literal_flagged(self):
        assert rules_of("for x in {1, 2, 3}:\n    pass\n") == ["SC004"]

    def test_for_over_set_call_flagged(self):
        assert rules_of("for x in set(items):\n    pass\n") == ["SC004"]

    def test_for_over_set_variable_flagged(self):
        assert rules_of(
            """
            s = set(items)
            for x in s:
                pass
            """
        ) == ["SC004"]

    def test_annotated_empty_set_tracked(self):
        assert rules_of(
            """
            def f():
                seen: set[int] = set()
                for x in seen:
                    pass
            """
        ) == ["SC004"]

    def test_sorted_wrapper_ok(self):
        assert rules_of(
            """
            s = set(items)
            for x in sorted(s):
                pass
            """
        ) == []

    def test_order_insensitive_reducers_ok(self):
        assert rules_of(
            """
            s = {1, 2, 3}
            n = len(s)
            m = max(s)
            t = sum(s)
            ok = any(x > 1 for x in items)
            """
        ) == []

    def test_list_materialisation_flagged(self):
        assert rules_of("xs = list({3, 1, 2})\n") == ["SC004"]

    def test_comprehension_over_set_flagged(self):
        assert rules_of(
            """
            s = set(items)
            xs = [x + 1 for x in s]
            """
        ) == ["SC004"]

    def test_set_algebra_keeps_setness(self):
        assert rules_of(
            """
            a = set(xs)
            b = a | set(ys)
            for v in b:
                pass
            """
        ) == ["SC004"]

    def test_union_method_keeps_setness(self):
        assert rules_of(
            """
            u = set().union(*groups)
            for v in u:
                pass
            """
        ) == ["SC004"]

    def test_rebinding_to_a_list_clears_setness(self):
        assert rules_of(
            """
            s = set(items)
            s = sorted(s)
            for x in s:
                pass
            """
        ) == []

    def test_membership_test_is_fine(self):
        assert rules_of(
            """
            s = set(items)
            if x in s:
                pass
            """
        ) == []

    def test_function_scopes_are_separate(self):
        assert rules_of(
            """
            def f():
                s = set(items)

            def g():
                s = [1, 2]
                for x in s:
                    pass
            """
        ) == []


class TestSC005Docstrings:
    def test_missing_module_docstring_flagged(self):
        assert rules_of("x = 1\n", rules=("SC005",)) == ["SC005"]

    def test_missing_class_docstring_flagged(self):
        assert rules_of(
            '''
            """Module doc."""

            class Foo:
                pass
            ''',
            rules=("SC005",),
        ) == ["SC005"]

    def test_documented_module_and_class_ok(self):
        assert rules_of(
            '''
            """Module doc."""

            class Foo:
                """Class doc."""
            ''',
            rules=("SC005",),
        ) == []

    def test_nested_class_needs_docstring_too(self):
        assert rules_of(
            '''
            """Module doc."""

            class Outer:
                """Outer doc."""

                class Inner:
                    pass
            ''',
            rules=("SC005",),
        ) == ["SC005"]

    def test_functions_are_not_checked(self):
        assert rules_of(
            '''
            """Module doc."""

            def f():
                pass
            ''',
            rules=("SC005",),
        ) == []

    def test_class_noqa_waives(self):
        assert rules_of(
            '''
            """Module doc."""

            class Foo:  # noqa: SC005
                pass
            ''',
            rules=("SC005",),
        ) == []


class TestSC006AliasMutation:
    def test_subscript_store_into_parameter_flagged(self):
        assert rules_of(
            """
            def kernel(occ):
                occ[0] = 1
            """,
            rules=("SC006",),
        ) == ["SC006"]

    def test_basic_slice_view_keeps_the_alias(self):
        assert rules_of(
            """
            def kernel(occ):
                view = occ[1:]
                view.fill(0)
            """,
            rules=("SC006",),
        ) == ["SC006"]

    def test_fancy_indexing_breaks_the_alias(self):
        # Advanced indexing returns a copy: mutating it is local.
        assert rules_of(
            """
            def kernel(occ, idx):
                picked = occ[idx]
                picked.fill(0)
            """,
            rules=("SC006",),
        ) == []

    def test_augmented_assign_on_parameter_flagged(self):
        assert rules_of(
            """
            def kernel(occ, idx):
                occ[idx] += 1
            """,
            rules=("SC006",),
        ) == ["SC006"]

    def test_ufunc_at_on_parameter_flagged(self):
        assert rules_of(
            """
            import numpy as np

            def kernel(occ, idx):
                np.add.at(occ, idx, 1)
            """,
            rules=("SC006",),
        ) == ["SC006"]

    def test_explicit_copy_clears_the_alias(self):
        assert rules_of(
            """
            def kernel(occ):
                occ = occ.copy()
                occ[0] = 1
            """,
            rules=("SC006",),
        ) == []

    def test_local_arrays_are_free_to_mutate(self):
        assert rules_of(
            """
            def kernel(n):
                scratch = make(n)
                scratch[0] = 1
                scratch.sort()
            """,
            rules=("SC006",),
        ) == []

    def test_self_attributes_are_not_parameters(self):
        assert rules_of(
            """
            class Engine:
                def step(self, idx):
                    self.occ[idx] = 0
            """,
            rules=("SC006",),
        ) == []


class TestSC007UnstableSorts:
    def test_np_argsort_without_kind_flagged(self):
        assert rules_of(
            """
            import numpy as np
            order = np.argsort(keys)
            """,
            rules=("SC007",),
        ) == ["SC007"]

    def test_stable_kind_ok(self):
        assert rules_of(
            """
            import numpy as np
            a = np.argsort(keys, kind="stable")
            b = np.sort(keys, kind="mergesort")
            """,
            rules=("SC007",),
        ) == []

    def test_method_argsort_without_kind_flagged(self):
        assert rules_of(
            "order = keys.argsort()\n", rules=("SC007",)
        ) == ["SC007"]

    def test_unique_with_return_index_flagged(self):
        assert rules_of(
            """
            import numpy as np
            values, first = np.unique(keys, return_index=True)
            """,
            rules=("SC007",),
        ) == ["SC007"]

    def test_value_only_unique_and_lexsort_exempt(self):
        assert rules_of(
            """
            import numpy as np
            values = np.unique(keys)
            order = np.lexsort((minor, major))
            """,
            rules=("SC007",),
        ) == []


class TestSC008ImplicitDtype:
    def test_constructors_without_dtype_flagged(self):
        assert rules_of(
            """
            import numpy as np
            a = np.zeros(4)
            b = np.arange(10)
            """,
            rules=("SC008",),
        ) == ["SC008", "SC008"]

    def test_explicit_dtype_ok(self):
        assert rules_of(
            """
            import numpy as np
            a = np.zeros(4, dtype=np.int64)
            b = np.array([1, 2], dtype=np.int8)
            """,
            rules=("SC008",),
        ) == []

    def test_non_numpy_names_are_ignored(self):
        assert rules_of(
            """
            a = zeros(4)
            b = helper.array([1, 2])
            """,
            rules=("SC008",),
        ) == []


class TestWaivers:
    def test_noqa_with_rule_waives(self):
        assert rules_of("for x in {1, 2}:  # noqa: SC004\n    pass\n") == []

    def test_bare_noqa_waives_everything(self):
        assert rules_of("assert x  # noqa\n") == []

    def test_noqa_for_other_rule_does_not_waive(self):
        assert rules_of("assert x  # noqa: SC004\n") == ["SC003"]


class TestScoping:
    def test_scheduling_packages_get_determinism_rules(self):
        assert rules_for_path("src/repro/mesh/simulator.py") == DETERMINISM_RULES
        assert rules_for_path("src/repro/routing/dor.py") == DETERMINISM_RULES

    def test_infrastructure_packages_get_docstring_rule(self):
        assert rules_for_path("src/repro/perf/instrumentation.py") == ("SC003", "SC005")
        assert rules_for_path("src/repro/harness/specs.py") == ("SC003", "SC005")

    def test_other_packages_get_assert_rule_only(self):
        assert rules_for_path("src/repro/core/bounds.py") == ("SC003",)
        assert rules_for_path("src/repro/verify/oracles.py") == ("SC003",)

    def test_transition_models_get_docstring_rule(self):
        assert rules_for_path("src/repro/mesh/transitions.py") == (
            *DETERMINISM_RULES, "SC005"
        )

    def test_array_kernels_get_every_hazard_rule(self):
        # The numpy kernels get the full stack: package determinism rules,
        # the SC005 prose-contract rule, and the array hazards SC006-SC008.
        assert rules_for_path("src/repro/mesh/array_engine.py") == (
            "SC001", "SC002", "SC003", "SC004", "SC005",
            "SC006", "SC007", "SC008",
        )
        assert rules_for_path("src/repro/mesh/array_state.py") == (
            "SC001", "SC002", "SC003", "SC004", "SC005",
            "SC006", "SC007", "SC008",
        )
        assert rules_for_path("src/repro/verify/engine_equivalence.py") == (
            "SC003", "SC005"
        )

    def test_every_rule_is_scoped_somewhere(self):
        scoped = (
            set(rules_for_path("src/repro/mesh/array_engine.py"))
            | set(rules_for_path("src/repro/perf/x.py"))
        )
        assert scoped == set(RULES)

    def test_rule_subset_respected(self):
        found = rules_of(
            """
            import random
            random.random()
            assert x
            """,
            rules=("SC003",),
        )
        assert found == ["SC003"]

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown lint rules"):
            lint_source("x = 1\n", rules=("SC999",))

    def test_syntax_error_reported_with_path(self):
        with pytest.raises(ValueError, match="broken.py"):
            lint_source("def (\n", path="broken.py")


class TestRepoSelfScan:
    def test_repo_is_clean_against_baseline(self):
        """The acceptance gate: the tree has no new violations."""
        new, _fixed = diff_against_baseline(run_lint(REPO_ROOT))
        assert new == [], "\n".join(str(v) for v in new)

    def test_violation_fields_are_stable(self):
        found = lint_source(
            "import random\nx = random.random()\n",
            path="src/repro/mesh/x.py",
            rules=DETERMINISM_RULES,
        )
        (violation,) = found
        assert violation.fingerprint == (
            "SC001",
            "src/repro/mesh/x.py",
            "x = random.random()",
        )
        assert "x.py:2:" in str(violation)
        assert violation.to_dict()["rule"] == "SC001"
