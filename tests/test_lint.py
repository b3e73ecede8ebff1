"""Tests for :mod:`repro.lint` — the static determinism/contract auditor.

Every rule is pinned by a *catching* fixture (a tiny tree the rule must
flag) and a *passing* fixture (the sanctioned shape it must not), so a
rule that silently stops firing fails here before a regression lands.
Waiver and baseline semantics, the JSON schema, the CLI surface, and the
self-lint invariant (``src/repro`` stays clean) are covered alongside.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.engine import numpy_available
from repro.lint import (Finding, load_baseline, render_json, render_text,
                        rule_names, run_lint, save_baseline, to_json)
from repro.lint.baseline import apply_baseline
from repro.runtime.errors import ConfigurationError

needs_numpy = pytest.mark.skipif(not numpy_available(),
                                 reason="numpy not installed")

REPRO_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def lint_tree(tmp_path, files, rules=None, baseline_path=None):
    """Write *files* under a throwaway package root and lint it."""
    root = tmp_path / "pkg"
    for relpath, source in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return run_lint(root, package="pkg", rules=rules,
                    baseline_path=baseline_path)


def active_rules(result):
    return sorted({finding.rule for finding in result.active})


# ---------------------------------------------------------------------------
# determinism/global-rng
# ---------------------------------------------------------------------------

class TestGlobalRng:
    RULE = "determinism/global-rng"

    def test_catches_module_level_draw(self, tmp_path):
        result = lint_tree(tmp_path, {"mod.py": """\
            import random

            def pick(items):
                return random.choice(items)
            """}, rules=[self.RULE])
        assert active_rules(result) == [self.RULE]
        assert result.exit_code == 1

    def test_catches_aliased_import_and_unseeded_numpy(self, tmp_path):
        result = lint_tree(tmp_path, {"mod.py": """\
            import random as rnd
            import numpy as np

            def draw():
                gen = np.random.default_rng()
                return rnd.random() + np.random.rand()
            """}, rules=[self.RULE])
        assert len(result.active) == 3

    def test_passes_bound_generator(self, tmp_path):
        result = lint_tree(tmp_path, {"mod.py": """\
            import random

            def pick(items, seed):
                rng = random.Random(seed)
                return rng.choice(items)
            """}, rules=[self.RULE])
        assert result.active == []
        assert result.exit_code == 0

    def test_passes_seeded_numpy_factory(self, tmp_path):
        result = lint_tree(tmp_path, {"mod.py": """\
            import numpy

            def gen(seed):
                return numpy.random.default_rng(seed)
            """}, rules=[self.RULE])
        assert result.active == []


# ---------------------------------------------------------------------------
# determinism/wall-clock
# ---------------------------------------------------------------------------

class TestWallClock:
    RULE = "determinism/wall-clock"

    def test_catches_clock_in_engine_path(self, tmp_path):
        result = lint_tree(tmp_path, {"core/timing.py": """\
            import time

            def stamp():
                return time.time()
            """}, rules=[self.RULE])
        assert active_rules(result) == [self.RULE]

    def test_catches_datetime_now(self, tmp_path):
        result = lint_tree(tmp_path, {"stats/clock.py": """\
            import datetime

            def today():
                return datetime.datetime.now()
            """}, rules=[self.RULE])
        assert len(result.active) == 1

    def test_passes_outside_scoped_packages(self, tmp_path):
        result = lint_tree(tmp_path, {"serve/timing.py": """\
            import time

            def stamp():
                return time.perf_counter()
            """}, rules=[self.RULE])
        assert result.active == []


# ---------------------------------------------------------------------------
# determinism/unsorted-fs-scan
# ---------------------------------------------------------------------------

class TestUnsortedFsScan:
    RULE = "determinism/unsorted-fs-scan"

    def test_catches_bare_listdir(self, tmp_path):
        result = lint_tree(tmp_path, {"mod.py": """\
            import os

            def names(path):
                return [n for n in os.listdir(path)]
            """}, rules=[self.RULE])
        assert active_rules(result) == [self.RULE]

    def test_catches_pathlib_glob_method(self, tmp_path):
        result = lint_tree(tmp_path, {"mod.py": """\
            def scan(root):
                for path in root.glob("*.json"):
                    yield path
            """}, rules=[self.RULE])
        assert len(result.active) == 1

    def test_passes_sorted_scan(self, tmp_path):
        result = lint_tree(tmp_path, {"mod.py": """\
            import os

            def names(path):
                return sorted(os.listdir(path))

            def walk(root):
                for item in sorted(root.rglob("*.py")):
                    yield item
            """}, rules=[self.RULE])
        assert result.active == []


# ---------------------------------------------------------------------------
# determinism/set-iteration
# ---------------------------------------------------------------------------

class TestSetIteration:
    RULE = "determinism/set-iteration"

    def test_catches_for_over_set_call(self, tmp_path):
        result = lint_tree(tmp_path, {"mod.py": """\
            def dedupe(items):
                out = []
                for item in set(items):
                    out.append(item)
                return out
            """}, rules=[self.RULE])
        assert active_rules(result) == [self.RULE]

    def test_catches_comprehension_over_set_literal(self, tmp_path):
        result = lint_tree(tmp_path, {"mod.py": """\
            def squares(a, b):
                return [x * x for x in {a, b}]
            """}, rules=[self.RULE])
        assert len(result.active) == 1

    def test_passes_sorted_set(self, tmp_path):
        result = lint_tree(tmp_path, {"mod.py": """\
            def dedupe(items):
                return [item for item in sorted(set(items))]
            """}, rules=[self.RULE])
        assert result.active == []


# ---------------------------------------------------------------------------
# contract/registry-schema-sync
# ---------------------------------------------------------------------------

_WIDGET_IMPL = """\
    class Widget:
        def __init__(self, size=3):
            self.size = size
    """


class TestRegistrySchemaSync:
    RULE = "contract/registry-schema-sync"

    def test_catches_default_mismatch(self, tmp_path):
        result = lint_tree(tmp_path, {
            "impl.py": _WIDGET_IMPL,
            "registries.py": """\
            from .impl import Widget

            ENTRIES = (
                RegistryEntry("widget", Widget,
                              params=(ParamSpec("size", int, 4),)),
            )
            """}, rules=[self.RULE])
        assert active_rules(result) == [self.RULE]
        assert "schema default size=4" in result.active[0].message

    def test_catches_undeclared_required_param(self, tmp_path):
        result = lint_tree(tmp_path, {
            "impl.py": """\
            class Widget:
                def __init__(self, size):
                    self.size = size
            """,
            "registries.py": """\
            from .impl import Widget

            ENTRIES = (
                RegistryEntry("widget", Widget, params=()),
            )
            """}, rules=[self.RULE])
        messages = [finding.message for finding in result.active]
        assert any("required constructor parameter 'size'" in message
                   for message in messages)

    def test_catches_unaddressable_optional_param(self, tmp_path):
        result = lint_tree(tmp_path, {
            "impl.py": """\
            class Widget:
                def __init__(self, size=3, color="red"):
                    self.size = size
                    self.color = color
            """,
            "registries.py": """\
            from .impl import Widget

            ENTRIES = (
                RegistryEntry("widget", Widget,
                              params=(ParamSpec("size", int, 3),)),
            )
            """}, rules=[self.RULE])
        assert any("not addressable" in finding.message
                   for finding in result.active)

    def test_catches_stale_schema_key_in_registry_join(self, tmp_path):
        result = lint_tree(tmp_path, {
            "impl.py": """\
            class CrashAdv:
                def __init__(self, rate=0.5):
                    self.rate = rate
            """,
            "adv.py": """\
            from .impl import CrashAdv

            ADV_SCHEMAS = {
                "crash": (ParamSpec("rate", float, 0.5),),
                "ghost": (),
            }

            def adversary_registry():
                return {"crash": CrashAdv}
            """}, rules=[self.RULE])
        assert any("'ghost'" in finding.message
                   for finding in result.active)

    def test_catches_join_schema_drift(self, tmp_path):
        result = lint_tree(tmp_path, {
            "impl.py": """\
            class CrashAdv:
                def __init__(self, rate=0.5):
                    self.rate = rate
            """,
            "adv.py": """\
            from .impl import CrashAdv

            ADV_SCHEMAS = {
                "crash": (ParamSpec("rate", float, 0.9),),
            }

            def adversary_registry():
                return {"crash": CrashAdv}
            """}, rules=[self.RULE])
        assert any("schema default rate=0.9" in finding.message
                   for finding in result.active)

    def test_passes_consistent_entry_and_join(self, tmp_path):
        result = lint_tree(tmp_path, {
            "impl.py": _WIDGET_IMPL,
            "impl2.py": """\
            class CrashAdv:
                def __init__(self, rate=0.5):
                    self.rate = rate
            """,
            "registries.py": """\
            from .impl import Widget

            ENTRIES = (
                RegistryEntry("widget", Widget,
                              params=(ParamSpec("size", int, 3),)),
            )
            """,
            "adv.py": """\
            from .impl2 import CrashAdv

            ADV_SCHEMAS = {
                "crash": (ParamSpec("rate", float, 0.5),),
            }

            def adversary_registry():
                return {"crash": CrashAdv}
            """}, rules=[self.RULE])
        assert result.active == []

    def test_resolves_shared_paramspec_constant(self, tmp_path):
        result = lint_tree(tmp_path, {
            "impl.py": """\
            class Widget:
                def __init__(self, b):
                    self.b = b
            """,
            "registries.py": """\
            from .impl import Widget

            _BLOCK = ParamSpec("b", int, required=True)

            ENTRIES = (
                RegistryEntry("widget", Widget, params=(_BLOCK,)),
            )
            """}, rules=[self.RULE])
        assert result.active == []

    def test_engages_on_the_real_tree(self):
        """The join is not vacuous: it sees all 18 adversary factories."""
        from repro.lint.rules.contracts import _factory_registries
        from repro.lint.symbols import Project
        project = Project.load(REPRO_ROOT, package="repro")
        factories = _factory_registries(project)
        assert len(factories) >= 18


# ---------------------------------------------------------------------------
# contract/roundtrip-parity
# ---------------------------------------------------------------------------

class TestRoundtripParity:
    RULE = "contract/roundtrip-parity"

    def test_catches_consumed_key_never_emitted(self, tmp_path):
        result = lint_tree(tmp_path, {"mod.py": """\
            class Thing:
                def __init__(self, a, b):
                    self.a = a
                    self.b = b

                def to_dict(self):
                    return {"a": self.a}

                @classmethod
                def from_dict(cls, data):
                    return cls(data["a"], data["b"])
            """}, rules=[self.RULE])
        assert active_rules(result) == [self.RULE]
        assert "'b'" in result.active[0].message

    def test_catches_get_and_membership_reads(self, tmp_path):
        result = lint_tree(tmp_path, {"mod.py": """\
            class Thing:
                def to_dict(self):
                    return {"a": 1}

                @classmethod
                def from_dict(cls, data):
                    kwargs = dict(data)
                    if "meta" in kwargs:
                        kwargs.pop("meta")
                    return cls(kwargs.get("extra"))
            """}, rules=[self.RULE])
        flagged = {finding.message.split("key ")[1].split(" that")[0]
                   for finding in result.active}
        assert flagged == {"'extra'", "'meta'"}

    def test_passes_emitting_every_consumed_key(self, tmp_path):
        result = lint_tree(tmp_path, {"mod.py": """\
            class Thing:
                def __init__(self, a, b=None):
                    self.a = a
                    self.b = b

                def to_dict(self):
                    data = {"a": self.a}
                    if self.b is not None:
                        data["b"] = self.b
                    return data

                @classmethod
                def from_dict(cls, data):
                    return cls(data["a"], data.get("b"))
            """}, rules=[self.RULE])
        assert result.active == []


# ---------------------------------------------------------------------------
# errors/swallowed-failstop
# ---------------------------------------------------------------------------

class TestSwallowedFailstop:
    RULE = "errors/swallowed-failstop"

    def test_catches_discarded_fabric_error(self, tmp_path):
        result = lint_tree(tmp_path, {"mod.py": """\
            from pkg.errors import CheckpointWriteError

            def save(write):
                try:
                    write()
                except CheckpointWriteError:
                    pass
            """}, rules=[self.RULE])
        assert active_rules(result) == [self.RULE]

    def test_passes_reraise_and_recorded(self, tmp_path):
        result = lint_tree(tmp_path, {"mod.py": """\
            from pkg.errors import FabricError, WorkerDiedError

            def run(task, trail):
                try:
                    task()
                except WorkerDiedError as exc:
                    trail.append(str(exc))
                try:
                    task()
                except FabricError:
                    raise
            """}, rules=[self.RULE])
        assert result.active == []


# ---------------------------------------------------------------------------
# errors/broad-except
# ---------------------------------------------------------------------------

class TestBroadExcept:
    RULE = "errors/broad-except"

    def test_catches_bare_and_broad_handlers(self, tmp_path):
        result = lint_tree(tmp_path, {"mod.py": """\
            def run(task):
                try:
                    task()
                except Exception:
                    return None
                try:
                    task()
                except:
                    return None
            """}, rules=[self.RULE])
        assert len(result.active) == 2
        assert all(finding.severity == "warning"
                   for finding in result.active)

    def test_passes_narrow_or_reraising_handlers(self, tmp_path):
        result = lint_tree(tmp_path, {"mod.py": """\
            def run(task):
                try:
                    task()
                except ValueError:
                    return None
                try:
                    task()
                except Exception:
                    raise
            """}, rules=[self.RULE])
        assert result.active == []


# ---------------------------------------------------------------------------
# durability/hand-rolled
# ---------------------------------------------------------------------------

class TestHandRolledDurability:
    RULE = "durability/hand-rolled"

    def test_catches_a_rename_or_sync_outside_the_log_module(self, tmp_path):
        result = lint_tree(tmp_path, {"serve/store.py": """\
            import os

            def store(tmp, path):
                os.replace(tmp, path)
            """}, rules=[self.RULE])
        assert [(f.rule, f.path, f.line) for f in result.active] == [
            (self.RULE, "serve/store.py", 4)]

    def test_passes_inside_the_log_module(self, tmp_path):
        result = lint_tree(tmp_path, {"api/durable.py": """\
            import os

            def replace_file(tmp, path, fd):
                os.fsync(fd)
                os.replace(tmp, path)
            """}, rules=[self.RULE])
        assert result.active == []

    def test_the_tree_renames_and_syncs_only_in_the_log_module(self):
        result = run_lint(REPRO_ROOT, package="repro", rules=[self.RULE])
        assert result.findings == []


# ---------------------------------------------------------------------------
# Waiver semantics
# ---------------------------------------------------------------------------

class TestWaivers:
    def test_trailing_waiver_suppresses_with_reason(self, tmp_path):
        result = lint_tree(tmp_path, {"mod.py": """\
            def run(task):
                try:
                    task()
                except Exception:  # repro-lint: waive[errors/broad-except] -- probe
                    return None
            """}, rules=["errors/broad-except"])
        assert result.active == []
        waived = [f for f in result.findings if f.waived]
        assert len(waived) == 1
        assert waived[0].waive_reason == "probe"

    def test_preceding_line_waiver_with_wrapped_reason(self, tmp_path):
        result = lint_tree(tmp_path, {"mod.py": """\
            def run(task):
                try:
                    task()
                # repro-lint: waive[errors/broad-except] -- the probe
                # absorbs every failure by design
                except Exception:
                    return None
            """}, rules=["errors/broad-except"])
        assert result.active == []
        waived = [f for f in result.findings if f.waived]
        assert waived[0].waive_reason == \
            "the probe absorbs every failure by design"

    def test_waiver_without_reason_is_a_finding(self, tmp_path):
        result = lint_tree(tmp_path, {"mod.py": """\
            def run(task):
                try:
                    task()
                except Exception:  # repro-lint: waive[errors/broad-except]
                    return None
            """}, rules=["errors/broad-except"])
        rules = active_rules(result)
        assert "lint/bad-waiver" in rules
        assert "errors/broad-except" in rules  # not suppressed

    def test_invalid_rule_id_is_a_finding(self, tmp_path):
        result = lint_tree(tmp_path, {"mod.py": """\
            # repro-lint: waive[NotARule] -- because
            x = 1
            """})
        assert active_rules(result) == ["lint/bad-waiver"]

    def test_unused_waiver_is_a_finding(self, tmp_path):
        result = lint_tree(tmp_path, {"mod.py": """\
            # repro-lint: waive[errors/broad-except] -- nothing here
            x = 1
            """}, rules=["errors/broad-except"])
        assert active_rules(result) == ["lint/unused-waiver"]

    def test_unused_waiver_exempt_when_rule_not_selected(self, tmp_path):
        result = lint_tree(tmp_path, {"mod.py": """\
            # repro-lint: waive[errors/broad-except] -- nothing here
            x = 1
            """}, rules=["determinism/set-iteration"])
        assert result.active == []

    def test_waiver_syntax_in_docstring_is_ignored(self, tmp_path):
        result = lint_tree(tmp_path, {"mod.py": '''\
            """Write ``# repro-lint: waive[rule-id] -- reason`` to waive."""

            PATTERN = "# repro-lint: waive[not/parsed]"
            '''})
        assert result.active == []

    def test_waiver_only_covers_named_rule(self, tmp_path):
        result = lint_tree(tmp_path, {"core/mod.py": """\
            import time

            def stamp():
                # repro-lint: waive[errors/broad-except] -- wrong rule
                return time.time()
            """}, rules=["determinism/wall-clock", "errors/broad-except"])
        assert "determinism/wall-clock" in active_rules(result)


# ---------------------------------------------------------------------------
# Baseline semantics
# ---------------------------------------------------------------------------

_DIRTY = {"mod.py": """\
    import random

    def pick(items):
        return random.choice(items)
    """}


class TestBaseline:
    def test_baseline_grandfathers_known_findings(self, tmp_path):
        dirty = lint_tree(tmp_path, _DIRTY,
                          rules=["determinism/global-rng"])
        assert dirty.exit_code == 1
        baseline_path = tmp_path / "baseline.json"
        save_baseline(baseline_path, dirty.findings)

        again = lint_tree(tmp_path, _DIRTY,
                          rules=["determinism/global-rng"],
                          baseline_path=baseline_path)
        assert again.exit_code == 0
        assert [f.baselined for f in again.findings] == [True]

    def test_baseline_survives_line_shifts(self, tmp_path):
        dirty = lint_tree(tmp_path, _DIRTY,
                          rules=["determinism/global-rng"])
        baseline_path = tmp_path / "baseline.json"
        save_baseline(baseline_path, dirty.findings)

        shifted = {"mod.py": "# a new comment\n\n" + textwrap.dedent(
            _DIRTY["mod.py"])}
        again = lint_tree(tmp_path, shifted,
                          rules=["determinism/global-rng"],
                          baseline_path=baseline_path)
        assert again.exit_code == 0

    def test_new_finding_still_fails_under_baseline(self, tmp_path):
        dirty = lint_tree(tmp_path, _DIRTY,
                          rules=["determinism/global-rng"])
        baseline_path = tmp_path / "baseline.json"
        save_baseline(baseline_path, dirty.findings)

        grown = {"mod.py": textwrap.dedent(_DIRTY["mod.py"])
                 + "\n\ndef also(items):\n"
                   "    return random.shuffle(items)\n"}
        again = lint_tree(tmp_path, grown,
                          rules=["determinism/global-rng"],
                          baseline_path=baseline_path)
        assert again.exit_code == 1
        assert len(again.active) == 1  # only the new site

    def test_stale_baseline_entry_is_surfaced(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(json.dumps({
            "version": 1,
            "findings": [{"rule": "determinism/global-rng",
                          "path": "gone.py",
                          "message": "long since fixed"}],
        }), encoding="utf-8")
        result = lint_tree(tmp_path, {"mod.py": "x = 1\n"},
                           baseline_path=baseline_path)
        assert result.stale_baseline == [
            ("determinism/global-rng", "gone.py", "long since fixed")]

    def test_multiset_matching(self):
        finding = Finding(rule="r/a", severity="error", path="p.py",
                          line=3, col=0, message="dup")
        twin = Finding(rule="r/a", severity="error", path="p.py",
                       line=9, col=0, message="dup")
        from collections import Counter
        kept, unmatched = apply_baseline([finding, twin],
                                         Counter({finding.key(): 1}))
        assert [f.baselined for f in kept] == [True, False]
        assert not unmatched

    def test_corrupt_baseline_is_a_configuration_error(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("not json", encoding="utf-8")
        with pytest.raises(ConfigurationError):
            load_baseline(path)


# ---------------------------------------------------------------------------
# Findings, JSON schema, parse failures
# ---------------------------------------------------------------------------

class TestFindingsAndReport:
    def test_finding_roundtrip_exact(self):
        finding = Finding(rule="determinism/wall-clock", severity="error",
                          path="core/x.py", line=7, col=4,
                          message="clock read", suggestion="thread it")
        assert Finding.from_dict(finding.to_dict()) == finding
        waived = finding.waive("never feeds results")
        assert Finding.from_dict(waived.to_dict()) == waived
        assert Finding.from_dict(finding.grandfather().to_dict()).baselined

    def test_unknown_severity_rejected(self):
        with pytest.raises(ConfigurationError):
            Finding(rule="r/a", severity="fatal", path="p.py", line=1,
                    col=0, message="m")

    def test_json_schema_shape(self, tmp_path):
        result = lint_tree(tmp_path, _DIRTY,
                           rules=["determinism/global-rng"])
        payload = json.loads(render_json(result))
        assert payload["version"] == 1
        assert payload["rules"] == ["determinism/global-rng"]
        assert payload["summary"]["errors"] == 1
        assert payload["summary"]["exit_code"] == 1
        restored = [Finding.from_dict(item)
                    for item in payload["findings"]]
        assert restored == result.findings

    def test_render_text_mentions_waiver_reason(self, tmp_path):
        result = lint_tree(tmp_path, {"mod.py": """\
            def run(task):
                try:
                    task()
                except Exception:  # repro-lint: waive[errors/broad-except] -- probe
                    return None
            """}, rules=["errors/broad-except"])
        text = render_text(result, verbose=True)
        assert "waived: probe" in text
        assert render_text(result).endswith("(1 waived, 0 baselined)")

    def test_parse_failure_is_a_finding_not_a_crash(self, tmp_path):
        result = lint_tree(tmp_path, {
            "broken.py": "def oops(:\n",
            "fine.py": "import random\nx = random.random()\n",
        })
        rules = active_rules(result)
        assert "lint/parse-error" in rules
        assert "determinism/global-rng" in rules  # other files still audited
        assert result.exit_code == 1

    def test_unknown_rule_is_a_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError):
            lint_tree(tmp_path, {"mod.py": "x = 1\n"},
                      rules=["no/such-rule"])


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

class TestCli:
    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == rule_names()
        assert len(out) == 9

    def test_dirty_tree_exits_one(self, tmp_path, capsys):
        root = tmp_path / "dirty"
        root.mkdir()
        (root / "mod.py").write_text(
            "import random\nx = random.random()\n", encoding="utf-8")
        assert main(["lint", str(root)]) == 1
        assert "determinism/global-rng" in capsys.readouterr().out

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        root = tmp_path / "dirty"
        root.mkdir()
        (root / "mod.py").write_text(
            "import random\nx = random.random()\n", encoding="utf-8")
        baseline = tmp_path / "baseline.json"
        assert main(["lint", str(root), "--baseline", str(baseline),
                     "--write-baseline"]) == 0
        assert baseline.exists()
        capsys.readouterr()
        assert main(["lint", str(root),
                     "--baseline", str(baseline)]) == 0
        assert "1 baselined" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        root = tmp_path / "clean"
        root.mkdir()
        (root / "mod.py").write_text("x = 1\n", encoding="utf-8")
        assert main(["lint", str(root), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["exit_code"] == 0

    def test_unknown_rule_exits_via_system_exit(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["lint", str(tmp_path), "--rules", "no/such-rule"])

    def test_write_baseline_requires_baseline_path(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["lint", str(tmp_path), "--write-baseline"])

    def test_validate_all_registered_covers_cross_product(self, capsys):
        assert main(["validate", "--all-registered", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        pairs = {(row["protocol"], row["adversary"]) for row in rows}
        assert len(pairs) == len(rows)  # no duplicate pairs
        protocols = {row["protocol"] for row in rows}
        adversaries = {row["adversary"] for row in rows}
        assert len(protocols) == 8
        assert len(adversaries) == 18
        assert len(rows) == 8 * 18
        assert all(row["status"] == "ok" for row in rows)

    def test_validate_all_registered_rejects_request_file(self):
        with pytest.raises(SystemExit):
            main(["validate", "requests.json", "--all-registered"])

    def test_validate_without_input_errors(self):
        with pytest.raises(SystemExit):
            main(["validate"])


# ---------------------------------------------------------------------------
# The self-lint invariant and the set-iteration fix it pinned
# ---------------------------------------------------------------------------

class TestSelfLint:
    def test_src_repro_is_clean(self):
        """The shipped tree passes its own audit (waivers all reasoned)."""
        result = run_lint(REPRO_ROOT, package="repro")
        assert len(result.rules) == 9
        assert result.active == []
        assert result.exit_code == 0
        for finding in result.findings:
            assert finding.waived
            assert finding.waive_reason  # every waiver carries a reason

    def test_self_lint_exercises_every_rule_somewhere(self):
        """Waivers prove the determinism/error rules fire on real code."""
        result = run_lint(REPRO_ROOT, package="repro")
        waived_rules = {finding.rule for finding in result.findings}
        assert "determinism/set-iteration" in waived_rules
        assert "determinism/wall-clock" in waived_rules
        assert "errors/broad-except" in waived_rules

    @needs_numpy
    def test_code_translation_visits_codes_sorted(self):
        """Regression: codec interning order must not depend on set order.

        ``_code_translation`` interns previously unseen values via
        ``VALUE_CODEC.code``; visiting distinct old codes in sorted order
        makes the codes assigned to fresh values a deterministic function
        of the message, not of hash seeding.
        """
        import numpy as np

        from repro.core.npsupport import VALUE_CODEC
        from repro.runtime.messages import NumpyLevelMessage

        old_codes = [VALUE_CODEC.code(f"lint-reg-old-{i}")
                     for i in range(5)]
        codes = np.asarray(old_codes[::-1] + old_codes, dtype=np.int64)
        translation = NumpyLevelMessage._code_translation(
            None, codes,
            lambda value: f"fresh-{value}")
        fresh = [translation[code] for code in sorted(old_codes)]
        assert fresh == sorted(fresh)  # interned in ascending old-code order
